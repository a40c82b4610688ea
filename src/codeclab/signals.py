"""Signal containers and binary PNM (PGM/PPM) I/O.

Only binary netpbm with maxval 255 is supported.  Keeping the loader this
small makes every byte of an image round-trip exactly, so measured drift in
a re-compression chain is attributable to the codec, never to file I/O.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np


class PnmError(ValueError):
    """Malformed or unsupported PNM data."""


@dataclasses.dataclass(eq=False)
class ImageBuffer:
    """Integer raster: gray (1 channel) or RGB (3), samples in [0, 255].

    ``samples`` is flat, row-major, channel-interleaved.
    """

    width: int
    height: int
    channels: int
    samples: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad dimensions {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        arr = np.asarray(self.samples)
        if arr.dtype != np.uint8:
            # a float (incl. NaN) or object sample would be truncated by the cast
            if arr.dtype.kind not in "iu":
                raise ValueError(f"samples must be integers, got dtype {arr.dtype}")
            if np.any(arr < 0) or np.any(arr > 255):
                raise ValueError("samples out of [0, 255]")
            arr = arr.astype(np.uint8)
        self.samples = arr.ravel()
        expected = self.width * self.height * self.channels
        if self.samples.size != expected:
            raise ValueError(
                f"expected {expected} samples, got {self.samples.size}"
            )

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def planes(self) -> np.ndarray:
        """Float64 copy of shape (channels, height, width)."""
        a = self.samples.reshape(self.height, self.width, self.channels)
        return np.moveaxis(a, 2, 0).astype(np.float64)

    @classmethod
    def from_planes(cls, planes: np.ndarray) -> "ImageBuffer":
        """Build from a (channels, height, width) array already in [0, 255]."""
        c, h, w = planes.shape
        interleaved = np.moveaxis(planes, 0, 2)
        return cls(w, h, c, interleaved.astype(np.uint8))

    def same_as(self, other: "ImageBuffer") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and self.channels == other.channels
            and np.array_equal(self.samples, other.samples)
        )


@dataclasses.dataclass(eq=False)
class SourceVector:
    """1-D real signal with every value in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size == 0:
            raise ValueError("empty source vector")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("source values must lie in [0, 1]")

    def __len__(self) -> int:
        return self.values.size

    def same_as(self, other: "SourceVector") -> bool:
        return np.array_equal(self.values, other.values)


Signal = ImageBuffer | SourceVector


@dataclasses.dataclass
class Dataset:
    """Ordered evaluation inputs: images from disk, or one synthetic vector."""

    items: list
    source_path: str
    item_names: list[str]
    warnings: list[str] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def from_source(cls, vec: SourceVector, name: str = "uniform-source") -> "Dataset":
        return cls(items=[vec], source_path="<synthetic>", item_names=[name])


_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read the next header token, skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch in (b"#",):
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise PnmError("malformed header: unexpected end of data")
    return data[start:pos], pos


def parse_pnm(data: bytes) -> ImageBuffer:
    """Parse binary PGM (P5) or PPM (P6) bytes with maxval 255."""
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise PnmError(f"malformed header: magic {magic!r} is not P5/P6")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PnmError(f"malformed header: non-numeric field {token!r}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise PnmError(f"malformed header: bad dimensions {width}x{height}")
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PnmError("malformed header: missing raster separator")
    pos += 1
    need = width * height * channels
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise PnmError(
            f"truncated pixel data: expected {need} bytes, got {len(raster)}"
        )
    return ImageBuffer(width, height, channels, np.frombuffer(raster, np.uint8))


def serialize_pnm(img: ImageBuffer) -> bytes:
    """Canonical binary PNM bytes; inverse of parse_pnm."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return header + img.samples.tobytes()


def generate_uniform_source(n: int, seed: int) -> SourceVector:
    """n iid draws from U[0, 1) using NumPy's PCG64 generator.

    The generator identity (PCG64 via numpy.random.default_rng) is part of
    the reproducibility contract: same (n, seed) gives identical output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return SourceVector(rng.random(n))


def load_dataset(path: str | Path) -> Dataset:
    """Load every binary PNM in a directory, sorted by filename.

    Non-PNM files are skipped with a warning record; an empty or missing
    directory is an error.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {root}")
    items, names, warnings = [], [], []
    for p in sorted(root.iterdir(), key=lambda p: p.name):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if data[:2] not in (b"P5", b"P6"):
            warnings.append(f"skipped non-PNM file: {p.name}")
            continue
        try:
            items.append(parse_pnm(data))
            names.append(p.name)
        except PnmError as e:
            warnings.append(f"skipped unreadable PNM {p.name}: {e}")
    if not items:
        raise ValueError(f"no loadable PNM images in {root}")
    return Dataset(items=items, source_path=str(root), item_names=names, warnings=warnings)
