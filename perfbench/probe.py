"""Host-speed probe: a fixed piece of work, written here, that resembles a
workload's stages and is timed between its rounds.

The benchmark's host is a shared VM whose vCPUs run at speeds that drift by
up to half over minutes (README.md, "Noise on this host").  No statistic
over one run removes a drift slower than the run, so every timed round is
followed by a probe, and the run's times are scaled by the probe's mean:
a slow phase slows both alike.  The probe calls no code of the program,
so a change under src/ moves the rounds and not the probe.

Times are CPU seconds of this process and its waited-for children
(`cpu_s`), which leave out the time the host steals from the vCPU.
"""
from __future__ import annotations

import mmap
import os
import resource
import subprocess
import tempfile
from pathlib import Path

import numpy as np

import checks

_SELF, _CHILDREN = resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN


def cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    a, b = resource.getrusage(_SELF), resource.getrusage(_CHILDREN)
    return a.ru_utime + a.ru_stime + b.ru_utime + b.ru_stime


def _touch_fresh_pages(nbytes: int, chunk: int = 1 << 20) -> None:
    """Map, write and unmap `nbytes` of anonymous memory, `chunk` at a time:
    the kernel's page-fault and zeroing work of large short-lived arrays."""
    for _ in range(nbytes // chunk):
        buf = mmap.mmap(-1, chunk)
        try:
            for off in range(0, chunk, mmap.PAGESIZE):
                buf[off] = 1
        finally:
            buf.close()


def make_probe(wl, images: list, work: Path):
    """A callable doing a fixed amount of work shaped like `wl`'s stages."""
    reps = wl.probe_reps
    if wl.codec == "block-dct":
        # the reference block DCT on the workload's own images, channels side
        # by side as one plane: arrays of the same size as a stage's (beyond
        # L2 for dct-large-rgb), the same per-position Python loop in the
        # entropy count, and the page faults of large short-lived arrays
        planes = [img.reshape(img.shape[0], -1) for img in images]
        table = checks.quant_table(checks.DCT_NATIVE_QUALITIES[3])
        fault_bytes = wl.probe_fault_mb << 20

        def probe() -> None:
            for _ in range(reps):
                for plane in planes:
                    checks.dct_plane(plane, table)
                _touch_fresh_pages(fault_bytes)

    elif wl.codec == "external":
        # one identity stage written here: a temp dir, a PGM written, copied
        # by two cp children, read back, parsed and compared
        header = b"P5\n%d %d\n255\n" % (wl.width, wl.height)
        pixels = images[0].tobytes()
        ref = images[0].reshape(-1).astype(np.float64)

        def probe() -> None:
            for _ in range(reps):
                with tempfile.TemporaryDirectory(dir=work) as tmp:
                    src, mid, dst = (os.path.join(tmp, n) for n in ("in.pgm", "bits", "out.pgm"))
                    with open(src, "wb") as f:
                        f.write(header + pixels)
                    for a, b in ((src, mid), (mid, dst)):
                        subprocess.run(["cp", a, b], cwd=tmp, capture_output=True,
                                       timeout=60, check=True)
                    with open(dst, "rb") as f:
                        data = f.read()
                out = np.frombuffer(data, np.uint8, offset=len(header)).astype(np.float64)
                float(np.mean((out - ref) ** 2))

    else:
        # uniform quantisation of the source, index packing and the MSE
        x = checks.uniform_source(0, wl.codec_options["source_n"])
        weights = 1 << np.arange(7, -1, -1)

        def probe() -> None:
            for step in range(reps):
                levels = 2 << (step % 4)
                idx = np.floor(x * levels).astype(np.uint8)
                packed = np.packbits(np.unpackbits(idx[:, None], axis=1))
                back = np.unpackbits(packed).reshape(-1, 8) @ weights
                float(np.mean((x - (back + 0.5) / levels) ** 2))

    return probe
