"""Codec construction from textual ids, as used by configs and the CLI.

Ids: "nested-scalar", "midpoint-scalar", "block-dct", "external".
Options (all optional): levels and source_n (scalar codecs),
native_qualities (block-dct), spec / spec_path (external).
An id of the form "name:arg" is shorthand for the obvious option
(ladder size for the scalar codecs, spec path for external; block-dct
takes none); "name:" with an empty arg is refused.
Option values are type-checked, never coerced; a bad value raises ValueError.
"""
from __future__ import annotations

from .codecs import Codec, ScalarQuantizerCodec
from .blockdct import BlockDctCodec, DEFAULT_NATIVE_QUALITIES
from .external import ExternalCodec, ExternalCodecSpec
from .ladders import build_midpoint_ladder, build_nested_ladder


def make_codec(codec_id: str, options: dict | None = None) -> Codec:
    options = dict(options or {})
    name, sep, arg = codec_id.partition(":")
    if sep and not arg:
        raise ValueError(f"codec id {codec_id!r} has an empty argument after ':'")
    if name in ("nested-scalar", "midpoint-scalar"):
        if arg:
            levels = int(arg) if arg.isascii() and arg.isdigit() else arg
        else:
            levels = options.pop("levels", 3)
        _check_count("levels", levels)
        if "source_n" in options:
            _check_count("source_n", options.pop("source_n"))
        _reject_unknown(name, options)
        build = build_nested_ladder if name == "nested-scalar" else build_midpoint_ladder
        return ScalarQuantizerCodec(build(levels))
    if name == "block-dct":
        if arg:
            raise ValueError(f"codec 'block-dct' takes no argument, got {codec_id!r}")
        native = options.pop("native_qualities", DEFAULT_NATIVE_QUALITIES)
        if not isinstance(native, (list, tuple)) or not all(_is_int(q) for q in native):
            raise ValueError(f"native_qualities must be a list of integers, got {native!r}")
        _reject_unknown(name, options)
        return BlockDctCodec(native)
    if name == "external":
        if arg:
            spec = ExternalCodecSpec.from_file(arg)
        elif "spec_path" in options:
            path = options.pop("spec_path")
            if not isinstance(path, str):
                raise ValueError(f"spec_path must be a string, got {path!r}")
            spec = ExternalCodecSpec.from_file(path)
        elif "spec" in options:
            spec = ExternalCodecSpec.from_dict(options.pop("spec"))
        else:
            raise ValueError("external codec needs a spec (external:PATH or spec_path)")
        _reject_unknown(name, options)
        return ExternalCodec(spec)
    raise ValueError(f"unknown codec id {codec_id!r}")


def _is_int(v) -> bool:
    # bool is an int subclass, but true/false is never a count or a seed
    return isinstance(v, int) and not isinstance(v, bool)


def _check_count(what: str, v) -> None:
    if not _is_int(v) or v < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {v!r}")


def _reject_unknown(name: str, options: dict) -> None:
    if options:
        raise ValueError(f"unknown options for codec {name!r}: {sorted(options)}")
