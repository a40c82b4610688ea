"""codeclab benchmark: one workload through the `codeclab evaluate` path.

    python3 perfbench/run.py --workload dct-chains --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from src/.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; the last line of standard output is one JSON object.
See perfbench/README.md for the workloads, metrics and checks.
"""
from __future__ import annotations

import os

# one BLAS thread: the benchmark is a single process on a shared 2-vCPU host
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is timed in batches spread over the run: the host's speed drifts
# over seconds, and sub-millisecond set-ups see that drift in full
SETUP_BATCH = 4

END_TO_END_UNITS = {"stages_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def use_source_tree() -> bool:
    """Put the checkout's src/ on sys.path; False when there is none."""
    if not (ROOT / "src" / "codeclab" / "__init__.py").is_file():
        print(f"error: no codeclab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def prepare(wl, seed: int, work: Path) -> tuple[Path, list]:
    """Write the workload's corpus and config under `work`; return the config
    path and the corpus images as arrays."""
    import corpus

    work.mkdir(parents=True)
    images, dataset = [], None
    if wl.channels:
        dataset = work / "dataset"
        images = corpus.write_corpus(dataset, wl.channels, wl.count, wl.width, wl.height, seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(wl.config(str(dataset) if dataset else None, seed)))
    return config_path, images


def expectations(wl, seed: int, images: list, codec) -> dict:
    """Everything `checks.check_report` compares a report of this workload with."""
    import checks
    from codeclab import signals

    expect = {}
    if wl.channels:
        items = [signals.ImageBuffer(wl.width, wl.height, wl.channels, img) for img in images]
        samples = [wl.width * wl.height] * wl.count
        peak = 255.0
        if wl.codec == "block-dct":
            expect["dct"] = checks.dct_reference(images)
        else:
            header = len(f"P5\n{wl.width} {wl.height}\n255\n")
            expect["pnm_bpp"] = 8 * (header + wl.width * wl.height) / (wl.width * wl.height)
    else:
        n = wl.codec_options["source_n"]
        items = [signals.SourceVector(checks.uniform_source(seed, n))]
        samples = [n]
        peak = 1.0
        expect["source_n"] = n
    expect["shadow"] = checks.shadow_report(codec, items, samples, wl, seed, peak)
    return expect


def _timed_rounds(evaluate, seconds: float, after) -> tuple[list[float], list[float]]:
    """Whole evaluate rounds until `seconds` have passed (at least one).
    Returns the wall time and the CPU time (probe.cpu_s) of each round."""
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()
        c0 = probe.cpu_s()
        t0 = time.perf_counter()
        data = evaluate()
        walls.append(time.perf_counter() - t0)
        cpus.append(probe.cpu_s() - c0)
        after(data)
    return walls, cpus


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import checks
    from codeclab import protocol, registry, report
    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    work = HERE / "out" / f"work-{wl.name}-{os.getpid()}"
    saved_tempdir = tempfile.tempdir
    try:
        config_path, images = prepare(wl, seed, work)
        tempfile.tempdir = str(work)  # the external adapter's per-stage temp dirs

        # set-up: what evaluate does before the first grid cell
        setups = []

        def set_up():
            for _ in range(SETUP_BATCH):
                c0 = probe.cpu_s()
                cfg = protocol.EvalConfig.from_file(config_path)
                codec = registry.make_codec(cfg.codec, cfg.codec_options)
                protocol.resolve_dataset(cfg, codec)
                setups.append(probe.cpu_s() - c0)
            return cfg, codec

        cfg, codec = set_up()

        def evaluate() -> bytes:
            return report.emit_report(protocol.run_protocol(cfg), "json")

        first = evaluate()  # warm-up round: first-touch allocations, lazy imports
        # the peak of set-up plus one report, before any probe runs and
        # whatever the number of rounds
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        differing = 0

        def keep(data: bytes) -> None:
            nonlocal differing
            differing += data != first

        tracer = Tracer()
        if trace:
            plain, _ = _timed_rounds(evaluate, seconds / 2, keep)
            tracer.install()

            def keep_traced(data: bytes) -> None:
                tracer.round += 1
                keep(data)

            try:
                traced, _ = _timed_rounds(evaluate, seconds / 2, keep_traced)
            finally:
                tracer.remove()
            rounds = 1 + len(plain) + len(traced)
        else:
            host_probe = probe.make_probe(wl, images, work)
            host_probe()  # warm-up
            probes = []

            def after_round(data: bytes) -> None:
                keep(data)
                c0 = probe.cpu_s()
                host_probe()
                probes.append(probe.cpu_s() - c0)
                set_up()

            plain, plain_cpu = _timed_rounds(evaluate, seconds, after_round)
            rounds = 1 + len(plain)

        # checks, outside every timed region
        verdict = checks.check_report(json.loads(first), wl,
                                      expectations(wl, seed, images, codec))
        problems = list(verdict.problems)
        if differing:
            problems.append(f"{differing} of {rounds} rounds gave other report bytes")
        for line in problems + verdict.failures:
            print(f"check: {line}")

        if trace:
            n = len(traced)
            values = tracer.layer_metrics(n)
            units = {m: spec[2] for m, spec in LAYER_METRICS.items()}
            bpp_calls = tracer.totals().get("codecs.Codec.bpp", {}).get("count", 0) / n
            values["chains.rate_use_ratio"] = wl.rates_read() / bpp_calls if bpp_calls else 0.0
            values["chains.stage_ratio"] = values["chains.stages"] / wl.nominal_stages()
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            values["trace.coverage"] = tracer.top_level_s() / sum(traced)
            units.update({"chains.rate_use_ratio": "ratio", "chains.stage_ratio": "ratio",
                          "trace.overhead_s": "s", "trace.coverage": "ratio"})
            for name in tracer.absent:
                print(f"absent: {name}")
            tracer.write(HERE / "out" / f"trace-{wl.name}-seed{seed}.jsonl")
        else:
            nominal = wl.nominal_stages()
            # CPU times scaled to the host speed at which the probe takes
            # probe_ref_s: a slow phase of the host stretches the probe too.
            # Means, not medians: the probes sample the whole run, so the
            # ratio of the means cancels a phase that covers part of it
            speed = wl.probe_ref_s / statistics.fmean(probes)
            values = {
                "stages_per_s": nominal / (statistics.fmean(plain_cpu) * speed),
                "setup_s": statistics.median(setups) * speed,
                "peak_rss_mb": peak_rss_mb,
            }
            print(f"unscaled: {nominal / statistics.median(plain):.6g} stages per wall second, "
                  f"set-up {statistics.median(setups) * 1e3:.4g} ms CPU, "
                  f"probe {statistics.fmean(probes):.4g} s CPU (reference {wl.probe_ref_s} s)")
            units = END_TO_END_UNITS
        metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
        for m, v in metrics.items():
            print(f"{m:28s} {v['value']:.6g} {v['unit']}")
        print(f"rounds {rounds} (1 warm-up), set-ups {len(setups)}, "
              f"numpy {np.__version__}")
        print("round walls " + " ".join(f"{w:.4f}" for w in plain))
        return {
            "correct": not problems,
            "attempted": verdict.attempted * rounds,
            "failed": verdict.failed * rounds,
            "metrics": metrics,
        }
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="codeclab benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not use_source_tree():
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
