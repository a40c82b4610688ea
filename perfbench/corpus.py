"""Seeded synthetic image corpus for the benchmark.

Every image mixes three textures whose parameters are drawn from the seed:
low-frequency waves, a bright Gaussian blob, and a checkerboard on a ramp
with Gaussian noise.  RGB images draw each channel from the same mixture
with its own parameters, so channels are correlated but not equal.  Files
are binary PNM (P5/P6, maxval 255) written by this module, so the program
under test receives only bytes on disk.

    python3 perfbench/corpus.py --kind gray --count 2 --width 64 --height 64 \\
        --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np


def _plane(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    fx, fy = rng.uniform(6.0, 14.0, 2)
    waves = 50 * np.sin(xx / fx + rng.uniform(0, 2 * np.pi)) + 35 * np.cos(yy / fy)
    cx, cy = rng.uniform(0.3, 0.7, 2) * (width, height)
    r2 = ((xx - cx) / (width / 4)) ** 2 + ((yy - cy) / (height / 4)) ** 2
    blob = 110 * np.exp(-r2)
    cell = int(rng.integers(6, 14))
    checker = 25 * (((xx // cell) + (yy // cell)) % 2) + 40 * xx / width + 30 * yy / height
    noise = rng.normal(0.0, 4.0, (height, width))
    return np.clip(np.round(60 + waves + blob + checker + noise), 0, 255).astype(np.uint8)


def make_image(rng: np.random.Generator, width: int, height: int, channels: int) -> np.ndarray:
    """(height, width, channels) uint8 array."""
    return np.stack([_plane(rng, width, height) for _ in range(channels)], axis=2)


def pnm_bytes(img: np.ndarray) -> bytes:
    height, width, channels = img.shape
    magic = b"P5" if channels == 1 else b"P6"
    return magic + b"\n%d %d\n255\n" % (width, height) + img.tobytes()


def write_corpus(out: Path, channels: int, count: int, width: int, height: int,
                 seed: int) -> list[np.ndarray]:
    """Write count images as img0.pnm, img1.pnm, ... and return them in file order."""
    rng = np.random.default_rng([seed, channels, width, height])
    out.mkdir(parents=True, exist_ok=True)
    images = []
    for i in range(count):
        img = make_image(rng, width, height, channels)
        (out / f"img{i}.pnm").write_bytes(pnm_bytes(img))
        images.append(img)
    return images


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kind", choices=("gray", "rgb"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    a = p.parse_args(argv)
    write_corpus(a.out, 1 if a.kind == "gray" else 3, a.count, a.width, a.height, a.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
