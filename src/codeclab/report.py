"""Report emitters: canonical JSON, fixed-schema CSV, and dependency-free SVG.

All emitters are pure functions of their inputs and byte-deterministic;
infinite PSNR appears as the marker string "inf", never a float overflow.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

from .protocol import EvalReport, RdPoint

CSV_COLUMNS = ("codec", "q_min", "k", "b", "mode", "kind", "mean", "std_err")


def emit_report(rep: EvalReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        text = json.dumps(_jsonable(rep), sort_keys=True, indent=2)
        return (text + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for g in rep.grid:
            writer.writerow(
                [
                    rep.config["codec"],
                    g.q_min,
                    g.k,
                    g.b,
                    rep.config["mode"],
                    g.distortion_kind,
                    _csv_num(g.mean),
                    _csv_num(g.std_err),
                ]
            )
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


_INF = "inf"


def _jsonable(x):
    """Report value -> JSON value: dataclasses by field, dict keys as strings
    (so sort_keys orders them as strings), and +-inf as the "inf" marker."""
    # most nodes are leaves, so they are tested first
    if isinstance(x, float):
        return _INF if math.isinf(x) else x
    if isinstance(x, (int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


def _csv_num(x: float) -> str:
    return _INF if math.isinf(x) else repr(x)


_WIDTH, _HEIGHT = 800, 600
_MARGIN = 70


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_svg(
    rd_single: list[RdPoint], rd_multi: list[RdPoint], title: str = "rate-distortion"
) -> bytes:
    """Two-polyline bpp/PSNR chart (single-pass vs multi-round), 800x600.

    Infinite-PSNR points are dropped with a note in the output.
    """
    curves = {
        "single-pass": [(p.mean_bpp, p.mean_psnr) for p in rd_single],
        "multi-round": [(p.mean_bpp, p.mean_psnr) for p in rd_multi],
    }
    dropped = 0
    finite = {}
    for name, pts in curves.items():
        keep = [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
        dropped += len(pts) - len(keep)
        finite[name] = keep
    if any(not pts for pts in finite.values()):
        raise ValueError("a curve has no finite points to plot")
    xs = [x for pts in finite.values() for x, _ in pts]
    ys = [y for pts in finite.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def sy(y):
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    colors = {"single-pass": "#1f509e", "multi-round": "#c23b22"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="30" text-anchor="middle" font-size="18">{title}</text>',
    ]
    if dropped:
        parts.append(
            f'<text x="{_WIDTH - _MARGIN}" y="50" text-anchor="end" font-size="11">'
            f"{dropped} infinite-PSNR point(s) not shown</text>"
        )
    # axes
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>'
    )
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        px, py = sx(fx), sy(fy)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_HEIGHT - _MARGIN}" x2="{_fmt(px)}" '
            f'y2="{_HEIGHT - _MARGIN + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_HEIGHT - _MARGIN + 22}" text-anchor="middle" '
            f'font-size="12">{_fmt(fx)}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN - 6}" y1="{_fmt(py)}" x2="{_MARGIN}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 10}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-size="12">{_fmt(fy)}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">bpp</text>'
    )
    parts.append(
        f'<text x="20" y="{_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {_HEIGHT // 2})">PSNR (dB)</text>'
    )
    for name, pts in finite.items():
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colors[name]}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{colors[name]}"/>'
            )
    # legend
    for i, name in enumerate(finite):
        y0 = _MARGIN + 20 * i
        parts.append(
            f'<line x1="{_WIDTH - 220}" y1="{y0}" x2="{_WIDTH - 190}" y2="{y0}" '
            f'stroke="{colors[name]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - 182}" y="{y0 + 4}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
