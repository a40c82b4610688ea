"""Adapter for command-line codecs (libjpeg, openjpeg, neural wrappers, ...).

Each reconstruct call runs in a fresh temporary directory.  Command templates
use {input}, {output} and {quality} placeholders, substituted literally with
no shell interpretation.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shlex
import subprocess
import tempfile
from pathlib import Path

from .codecs import Bitstream, Codec
from .signals import ImageBuffer, parse_pnm, serialize_pnm


class ExternalCodecError(RuntimeError):
    """External encode/decode pipeline failed."""


@dataclasses.dataclass
class ExternalCodecSpec:
    encode_cmd: str
    decode_cmd: str
    quality_map: list[str]
    timeout_s: float = 60.0

    def __post_init__(self):
        if not self.quality_map:
            raise ValueError("quality_map must be non-empty")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError("timeout_s must be finite and positive")

    @classmethod
    def from_dict(cls, doc) -> "ExternalCodecSpec":
        """Spec from a parsed JSON object, type-checked field by field."""
        if not isinstance(doc, dict):
            raise ValueError("external codec spec must be a JSON object")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        for field in ("encode_cmd", "decode_cmd", "quality_map"):
            if field not in doc:
                raise ValueError(f"missing spec field: {field}")
        for field in ("encode_cmd", "decode_cmd"):
            if not isinstance(doc[field], str):
                raise ValueError(f"{field} must be a string")
        if not isinstance(doc["quality_map"], list):
            raise ValueError("quality_map must be a list")
        timeout = doc.get("timeout_s", 60.0)
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ValueError("timeout_s must be a number")
        try:
            timeout = float(timeout)
        except OverflowError:  # an integer past the float range
            raise ValueError("timeout_s must be finite and positive") from None
        return cls(
            encode_cmd=doc["encode_cmd"],
            decode_cmd=doc["decode_cmd"],
            quality_map=[str(q) for q in doc["quality_map"]],
            timeout_s=timeout,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "ExternalCodecSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExternalCodecSpec":
        return cls.from_json(Path(path).read_text())


def _substitute(template: str, mapping: dict[str, str]) -> list[str]:
    argv = []
    for token in shlex.split(template):
        for key, value in mapping.items():
            token = token.replace("{" + key + "}", value)
        argv.append(token)
    return argv


def _run(argv: list[str], timeout: float, cwd: Path, what: str) -> None:
    try:
        proc = subprocess.run(
            argv, cwd=cwd, capture_output=True, timeout=timeout, check=False
        )
    except FileNotFoundError as e:
        raise ExternalCodecError(f"{what}: command not found: {e.filename}") from None
    except subprocess.TimeoutExpired:
        raise ExternalCodecError(f"{what}: timed out after {timeout}s") from None
    if proc.returncode != 0:
        raise ExternalCodecError(
            f"{what}: exit status {proc.returncode}; "
            f"stderr: {proc.stderr.decode(errors='replace').strip()!r}"
        )


class ExternalCodec(Codec):
    """Codec backed by user-supplied encode/decode command lines."""

    signal_kind = "image"
    codec_id = "external"

    def __init__(self, spec: ExternalCodecSpec):
        self.spec = spec

    @property
    def num_levels(self) -> int:
        return len(self.spec.quality_map)

    def encode(self, img, q):
        raise NotImplementedError("external codecs only support reconstruct()")

    def decode(self, bs):
        raise NotImplementedError("external codecs only support reconstruct()")

    def reconstruct(self, img: ImageBuffer, q: int):
        self.check_quality(q)
        native = self.spec.quality_map[q - 1]
        with tempfile.TemporaryDirectory(prefix="codeclab-ext-") as tmp:
            workdir = Path(tmp)
            src = workdir / ("input.pgm" if img.channels == 1 else "input.ppm")
            enc = workdir / "encoded.bin"
            dec = workdir / ("decoded.pgm" if img.channels == 1 else "decoded.ppm")
            src.write_bytes(serialize_pnm(img))
            _run(
                _substitute(
                    self.spec.encode_cmd,
                    {"input": str(src), "output": str(enc), "quality": native},
                ),
                self.spec.timeout_s,
                workdir,
                "encoder",
            )
            if not enc.is_file():
                raise ExternalCodecError("encoder produced no output file")
            payload = enc.read_bytes()
            _run(
                _substitute(
                    self.spec.decode_cmd,
                    {"input": str(enc), "output": str(dec), "quality": native},
                ),
                self.spec.timeout_s,
                workdir,
                "decoder",
            )
            if not dec.is_file():
                raise ExternalCodecError("decoder produced no output file")
            out = parse_pnm(dec.read_bytes())
        if (out.width, out.height) != (img.width, img.height):
            raise ExternalCodecError(
                f"decoded dims {out.width}x{out.height} != input {img.width}x{img.height}"
            )
        return out, Bitstream(payload=payload, bits_used=8.0 * len(payload))

