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

    def same_as(self, other: "ImageBuffer") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and self.channels == other.channels
            and np.array_equal(self.samples, other.samples)
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, or a view of it that refuses writes; the caller's array keeps its
    own flags."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


class SourceVector:
    """1-D real signal with every value in [0, 1], plain or factored.

    ``SourceVector(values)`` is plain.  ``SourceVector(cells=..., table=...)``
    is factored: its values are ``table[cells]``, gathered on each read and
    not kept.  ``cells`` is a compact index array (uint8 for at most 256 cells,
    uint16 otherwise) that every stage output derived from one source shares,
    and ``table`` a small float64 array of per-cell values.  The caller
    guarantees every index is below ``table.size``; the range check runs on
    the table.

    A vector is immutable: ``values``, ``cells`` and ``table`` are read-only
    views, and a stage keeps what it derives from a vector on it
    (``nearest``).  They may alias the arrays passed in, so the caller must
    not edit those afterwards.
    """

    def __init__(self, values=None, *, cells=None, table=None):
        factored = cells is not None
        if factored != (table is not None) or factored == (values is not None):
            raise ValueError("give either values, or both cells and table")
        self._values = self.cells = self.table = None
        # (codewords, each value's index into them): a plain vector's last
        # per-sample quantisation, kept so that it is done once per source
        self.nearest = None
        if factored:
            cells = np.asarray(cells)
            if cells.dtype not in (np.uint8, np.uint16) or cells.ndim != 1:
                raise ValueError("cells must be a 1-D uint8 or uint16 array")
            self.cells = _read_only(cells)
            checked = self.table = _read_only(np.asarray(table, dtype=np.float64).ravel())
        else:
            checked = self._values = _read_only(np.asarray(values, dtype=np.float64).ravel())
        if len(self) == 0 or checked.size == 0:
            raise ValueError("empty source vector")
        if not (checked.min() >= 0.0 and checked.max() <= 1.0):  # NaN fails too
            raise ValueError("source values must lie in [0, 1]")

    @property
    def values(self) -> np.ndarray:
        return self._values if self.cells is None else _read_only(self.table[self.cells])

    def __len__(self) -> int:
        return (self._values if self.cells is None else self.cells).size

    def same_as(self, other: "SourceVector") -> bool:
        return np.array_equal(self.values, other.values)


Signal = ImageBuffer | SourceVector


@dataclasses.dataclass
class Dataset:
    """Ordered evaluation inputs: images from disk, or one synthetic vector."""

    items: list
    item_names: list[str]
    warnings: list[str] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def from_source(cls, vec: SourceVector) -> "Dataset":
        return cls(items=[vec], item_names=["uniform-source"])


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
    return Dataset(items=items, item_names=names, warnings=warnings)
