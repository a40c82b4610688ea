"""Show that the report checks reject corrupted reports.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload: one `evaluate` round on seed 1 must pass every check;
then three corrupted copies of its report (one rho altered, one
single-pass bpp altered, one grid cell removed) must each be rejected.
Exits 0 when every workload behaves so, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys

import run


def _alter(value):
    return value * 1.001 + 1e-6


CORRUPTIONS = {
    "altered rho": lambda rep: rep["grid"][-1].update(mean=_alter(rep["grid"][-1]["mean"])),
    "altered bpp": lambda rep: rep["rd_single"][0].update(
        mean_bpp=_alter(rep["rd_single"][0]["mean_bpp"])),
    "missing cell": lambda rep: rep["grid"].pop(0),
}


def selftest(name: str, seed: int = 1) -> bool:
    import checks
    from codeclab import protocol, registry, report
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    work = run.HERE / "out" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config_path, images = run.prepare(wl, seed, work)
        cfg = protocol.EvalConfig.from_file(config_path)
        codec = registry.make_codec(cfg.codec, cfg.codec_options)
        genuine = json.loads(report.emit_report(protocol.run_protocol(cfg), "json"))
        expect = run.expectations(wl, seed, images, codec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = True
    v = checks.check_report(genuine, wl, expect)
    passed = not v.failures and not v.problems
    print(f"{name}: genuine report {'passes' if passed else 'FAILS'} "
          f"({v.attempted} operations)")
    for line in v.problems + v.failures:
        print(f"    {line}")
    ok &= passed
    for what, corrupt in CORRUPTIONS.items():
        rep = copy.deepcopy(genuine)
        corrupt(rep)
        v = checks.check_report(rep, wl, expect)
        rejected = bool(v.failures or v.problems)
        first = (v.problems + v.failures + ["nothing flagged"])[0]
        print(f"{name}: {what}: {'rejected' if rejected else 'NOT REJECTED'} ({first})")
        ok &= rejected
    return ok


def main(argv=None) -> int:
    from workloads import WORKLOADS

    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    if not run.use_source_tree():
        return 2
    results = [selftest(n) for n in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
