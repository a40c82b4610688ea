"""Spans around the program's layer functions, recorded from outside the program.

`Tracer.install` replaces each target function or method with a wrapper that
records (name, start, end, parent) in memory; `remove` restores the
originals.  A module-level function is replaced under every name a codeclab
module binds it to, so `from .chains import _mse` call sites are traced too.
A target that no longer exists is listed in `absent` and its metrics read 0.
"""
from __future__ import annotations

import collections
import importlib
import json
import sys
import time
from pathlib import Path

# span name -> (module, attribute path, optional byte count of (args, result))
TARGETS = {
    "protocol.resolve_dataset": ("codeclab.protocol", "resolve_dataset", None),
    "protocol.compute_rd_curves": ("codeclab.protocol", "compute_rd_curves", None),
    "report.emit_report": ("codeclab.report", "emit_report", None),
    "registry.make_codec": ("codeclab.registry", "make_codec", None),
    "chains.evaluate_cell": ("codeclab.chains", "evaluate_cell", None),
    "chains.derive_rng": ("codeclab.chains", "derive_rng", None),
    "chains.sample_quality_sequence": ("codeclab.chains", "sample_quality_sequence", None),
    "chains._mse": ("codeclab.chains", "_mse", None),
    "codecs.Codec.reconstruct": ("codeclab.codecs", "Codec.reconstruct", None),
    "codecs.Codec.bpp": ("codeclab.codecs", "Codec.bpp", None),
    "codecs.ScalarQuantizerCodec.encode": ("codeclab.codecs", "ScalarQuantizerCodec.encode", None),
    "codecs.ScalarQuantizerCodec.decode": ("codeclab.codecs", "ScalarQuantizerCodec.decode", None),
    "codecs._pack_indices": ("codeclab.codecs", "_pack_indices", None),
    "codecs._unpack_indices": ("codeclab.codecs", "_unpack_indices", None),
    "blockdct.BlockDctCodec.encode": (
        "codeclab.blockdct", "BlockDctCodec.encode", lambda a, r: len(r.payload)),
    "blockdct.BlockDctCodec.decode": ("codeclab.blockdct", "BlockDctCodec.decode", None),
    "blockdct.BlockDctCodec._channel_indices": (
        "codeclab.blockdct", "BlockDctCodec._channel_indices", None),
    "blockdct._pad_to_blocks": ("codeclab.blockdct", "_pad_to_blocks", None),
    "blockdct._to_blocks": ("codeclab.blockdct", "_to_blocks", None),
    "blockdct._from_blocks": ("codeclab.blockdct", "_from_blocks", None),
    "blockdct.round_half_away": ("codeclab.blockdct", "round_half_away", None),
    "blockdct._entropy_bits": ("codeclab.blockdct", "_entropy_bits", None),
    "ladders.quantize_array": ("codeclab.ladders", "quantize_array", None),
    "ladders.build_nested_ladder": ("codeclab.ladders", "build_nested_ladder", None),
    "ladders.build_midpoint_ladder": ("codeclab.ladders", "build_midpoint_ladder", None),
    "ladders.uniform_source_mse": ("codeclab.ladders", "uniform_source_mse", None),
    "signals.load_dataset": ("codeclab.signals", "load_dataset", None),
    "signals.ImageBuffer.__post_init__": ("codeclab.signals", "ImageBuffer.__post_init__", None),
    "signals.SourceVector.__post_init__": ("codeclab.signals", "SourceVector.__post_init__", None),
    "signals.serialize_pnm": ("codeclab.signals", "serialize_pnm", lambda a, r: len(r)),
    "signals.parse_pnm": ("codeclab.signals", "parse_pnm", lambda a, r: len(a[0])),
    "external.ExternalCodec.reconstruct": ("codeclab.external", "ExternalCodec.reconstruct", None),
    "external._run": ("codeclab.external", "_run", None),
}

# per-layer metric -> (aggregate, spans, unit, better); aggregates are per
# traced round: "total" time, "self" time (minus child spans), "count" of
# calls, "bytes" from the target's byte count
LAYER_METRICS = {
    "protocol.grid_s": ("total", ["chains.evaluate_cell"], "s", "lower"),
    "protocol.rd_s": ("total", ["protocol.compute_rd_curves"], "s", "lower"),
    "protocol.rd_sweeps": ("count", ["protocol.compute_rd_curves"], "count", "lower"),
    "protocol.report_s": ("total", ["report.emit_report"], "s", "lower"),
    "chains.stages": (
        "count", ["codecs.Codec.reconstruct", "external.ExternalCodec.reconstruct"],
        "count", "lower"),
    "chains.sequence_s": (
        "total", ["chains.derive_rng", "chains.sample_quality_sequence"], "s", "lower"),
    "chains.mse_s": ("total", ["chains._mse"], "s", "lower"),
    "blockdct.encode_s": ("total", ["blockdct.BlockDctCodec.encode"], "s", "lower"),
    "blockdct.decode_s": ("total", ["blockdct.BlockDctCodec.decode"], "s", "lower"),
    "blockdct.pad_s": ("total", ["blockdct._pad_to_blocks"], "s", "lower"),
    "blockdct.blocking_s": ("total", ["blockdct._to_blocks", "blockdct._from_blocks"], "s", "lower"),
    "blockdct.fdct_s": ("self", ["blockdct.BlockDctCodec._channel_indices"], "s", "lower"),
    "blockdct.round_s": ("total", ["blockdct.round_half_away"], "s", "lower"),
    "blockdct.entropy_s": ("total", ["blockdct._entropy_bits"], "s", "lower"),
    "blockdct.serialise_s": ("self", ["blockdct.BlockDctCodec.encode"], "s", "lower"),
    "blockdct.idct_s": ("self", ["blockdct.BlockDctCodec.decode"], "s", "lower"),
    "blockdct.payload_bytes": ("bytes", ["blockdct.BlockDctCodec.encode"], "B", "lower"),
    "codecs.encode_s": ("total", ["codecs.ScalarQuantizerCodec.encode"], "s", "lower"),
    "codecs.decode_s": ("total", ["codecs.ScalarQuantizerCodec.decode"], "s", "lower"),
    "codecs.pack_s": ("total", ["codecs._pack_indices"], "s", "lower"),
    "codecs.unpack_s": ("total", ["codecs._unpack_indices"], "s", "lower"),
    "ladders.quantize_s": ("total", ["ladders.quantize_array"], "s", "lower"),
    "ladders.build_s": (
        "total", ["ladders.build_nested_ladder", "ladders.build_midpoint_ladder"], "s", "lower"),
    "ladders.mse_evals": ("count", ["ladders.uniform_source_mse"], "count", "lower"),
    "signals.load_s": ("total", ["signals.load_dataset"], "s", "lower"),
    "signals.validate_s": (
        "total", ["signals.ImageBuffer.__post_init__", "signals.SourceVector.__post_init__"],
        "s", "lower"),
    "signals.pnm_s": ("total", ["signals.serialize_pnm", "signals.parse_pnm"], "s", "lower"),
    "signals.pnm_bytes": ("bytes", ["signals.serialize_pnm", "signals.parse_pnm"], "B", "lower"),
    "external.reconstruct_s": ("total", ["external.ExternalCodec.reconstruct"], "s", "lower"),
    "external.spawn_s": ("total", ["external._run"], "s", "lower"),
    "external.spawns": ("count", ["external._run"], "count", "lower"),
    "external.io_s": ("self", ["external.ExternalCodec.reconstruct"], "s", "lower"),
    "registry.make_codec_s": ("total", ["registry.make_codec"], "s", "lower"),
}


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent index, round)
        self.nbytes: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, count_bytes):
        key = len(self.names)
        self.names.append(name)
        spans, stack, nbytes = self.spans, self._stack, self.nbytes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (key, start, end, parent, self.round)
            if count_bytes is not None:
                nbytes[name] += count_bytes(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "codeclab" or n.startswith("codeclab."))]
        for name, (module, path, count_bytes) in TARGETS.items():
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, orig = found
            wrapper = self._wrap(name, orig, count_bytes)
            if "." in path:  # a method: the class attribute is the only binding
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, bound, orig))
                        setattr(mod, bound, wrapper)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed total and self time and the call count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"total": 0.0, "self": 0.0, "count": 0} for n in self.names}
        for i, (key, start, end, _, _) in enumerate(self.spans):
            agg = out[self.names[key]]
            agg["total"] += end - start
            agg["self"] += end - start - child[i]
            agg["count"] += 1
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        totals = self.totals()
        out = {}
        for metric, (agg, names, _, _) in LAYER_METRICS.items():
            if agg == "bytes":
                value = sum(self.nbytes[n] for n in names)
            else:
                value = sum(totals[n][agg] for n in names if n in totals)
            out[metric] = value / rounds
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (key, start, end, parent, rnd) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "round": rnd, "name": self.names[key],
                                    "start": start, "end": end, "parent": parent}) + "\n")
