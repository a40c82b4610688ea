"""Checks of an `evaluate` report against numbers computed apart from the program.

Three sources of expected values:

* `dct_reference`: an 8x8 block DCT written here (own basis, own table
  scaling, half-away rounding, own zero-order entropy) gives the single-pass
  MSE and bpp of every item at every level, with a tolerance that covers the
  only place where two correct implementations may differ: coefficients that
  sit exactly on a .5 tie (see README.md).
* `shadow_report`: this module's own Monte Carlo loop re-derives every quality
  sequence from the documented RNG streams, runs the chains through the
  program's codec, and aggregates rho, theorem-1 and RD numbers itself.  It
  checks the protocol, chain and aggregation code; the codec it calls is
  checked separately by `dct_reference` or by the exact properties below.
* properties that hold by construction: rho = 0 for strong idempotent codecs
  and for one-stage chains, bpp = q - 1 for the nested ladder, the uniform
  quantiser's MSE, and the identity codec's PNM-sized rate.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

# ITU-T T.81 Annex K luminance table and the block-DCT ladder's native qualities.
T81_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ]
)
DCT_NATIVE_QUALITIES = (5, 15, 25, 35, 45, 55, 65, 75)

REL_TOL = 1e-9  # shadow vs report: same arithmetic, summation order may differ
TIE_EPS = 1e-9  # |frac(|c|/T) - 1/2| below this counts as a tie
STREAM_RHO, STREAM_RD, STREAM_SOURCE = 0, 1, 2


def quant_table(native: int) -> np.ndarray:
    """IJG scaling of the T.81 table with the scale 5000/q kept exact (the
    program's documented rule), rounded half up and clamped to [1, 255]."""
    scale = Fraction(5000, native) if native < 50 else Fraction(200 - 2 * native)
    return np.array(
        [[min(255, max(1, math.floor(b * scale / 100 + Fraction(1, 2)))) for b in row]
         for row in T81_LUMA.tolist()],
        dtype=np.int64,
    )


def _basis() -> np.ndarray:
    u = np.arange(8)[:, None]
    x = np.arange(8)[None, :]
    alpha = np.where(u == 0, math.sqrt(1 / 8), 1 / 2)
    return alpha * np.cos((2 * x + 1) * u * math.pi / 16)


_C = _basis()
# Rows 0 and 4 of the basis are +-1/(2*sqrt(2)); so the four coefficients with
# u, v in {0, 4} are (signed integer sums)/8 and can be rounded exactly.
_EXACT = (0, 4)
_SIGN = {0: np.ones(8, np.int64), 4: np.array([1, -1, -1, 1, 1, -1, -1, 1])}


def _half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, np.floor(x + 0.5), -np.floor(0.5 - x))


def _pad(plane: np.ndarray) -> np.ndarray:
    """Edge-replicate to multiples of 8."""
    h, w = plane.shape
    rows = np.minimum(np.arange(-(-h // 8) * 8), h - 1)
    cols = np.minimum(np.arange(-(-w // 8) * 8), w - 1)
    return plane[rows][:, cols]


def _split(padded: np.ndarray) -> np.ndarray:
    """(H, W) -> (H/8 * W/8, 8, 8), blocks in row-major order."""
    h, w = padded.shape
    return padded.reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)


def _entropy_bits(idx: np.ndarray) -> float:
    """n*H summed over the 64 positions, as n*log2(n) - sum c*log2(c)."""
    n = idx.shape[0]
    total = 0.0
    for col in idx.reshape(n, 64).T:
        _, counts = np.unique(col, return_counts=True)
        total += n * math.log2(n) - float(np.sum(counts * np.log2(counts)))
    return total


def _decode_sse(idx: np.ndarray, table: np.ndarray, orig: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
    """Per-block squared error of the reconstruction of idx against orig."""
    pix = np.einsum("ux,nuv,vy->nxy", _C, idx * table, _C) + 128.0
    recon = np.clip(_half_away(pix), 0, 255)
    return np.sum(mask * (recon - orig) ** 2, axis=(1, 2))


def dct_plane(plane: np.ndarray, table: np.ndarray) -> tuple[float, float, float, float]:
    """(sse, sse_tol, bits, bits_tol) of one channel at one quantisation table."""
    h, w = plane.shape
    padded = _pad(plane.astype(np.int64))
    orig = _split(padded.astype(np.float64))
    valid = np.zeros(padded.shape)
    valid[:h, :w] = 1.0  # padding pixels are cropped away by the decoder
    mask = _split(valid)
    centred = _split(padded) - 128
    coeffs = np.einsum("ux,nxy,vy->nuv", _C, centred.astype(np.float64), _C)
    ratio = coeffs / table
    idx = _half_away(ratio)
    frac = np.abs(ratio) - np.floor(np.abs(ratio))
    tie = np.abs(frac - 0.5) < TIE_EPS
    for u in _EXACT:
        for v in _EXACT:
            s = np.einsum("x,nxy,y->n", _SIGN[u], centred, _SIGN[v])  # coefficient * 8
            t = int(table[u, v])
            mag = (2 * np.abs(s) + 8 * t) // (16 * t)
            idx[:, u, v] = np.sign(s) * mag
            tie[:, u, v] = (2 * np.abs(s) + 8 * t) % (16 * t) == 0
    sse_blocks = _decode_sse(idx, table, orig, mask)
    sse_tol = 0.0
    tie_blocks = np.flatnonzero(tie.any(axis=(1, 2)))
    for n in tie_blocks:
        pos = np.argwhere(tie[n])
        if len(pos) > 10:
            raise RuntimeError(f"{len(pos)} ties in one block; reference bound not built for it")
        combos = []
        for mask_bits in range(1 << len(pos)):
            alt = idx[n].copy()
            for j, (u, v) in enumerate(pos):
                if mask_bits >> j & 1:
                    alt[u, v] -= np.sign(alt[u, v])  # the other neighbour of the tie
            combos.append(_decode_sse(alt[None], table, orig[n:n + 1], mask[n:n + 1])[0])
        sse_tol += max(combos) - min(combos)
    nblocks = idx.shape[0]
    # moving one count to a neighbouring bin changes n*H by at most
    # 2 * (log2(n) + log2(e)) bits
    bits_tol = int(tie.sum()) * 2 * (math.log2(nblocks) + math.log2(math.e))
    return float(sse_blocks.sum()), sse_tol, _entropy_bits(idx.astype(np.int64)), bits_tol


@dataclasses.dataclass
class RefPoint:
    mse: float
    mse_tol: float
    bpp: float
    bpp_tol: float


def dct_reference(images: list[np.ndarray]) -> list[RefPoint]:
    """Single-pass (mean MSE, mean bpp) per level, averaged over items as the
    report does, each with its tie tolerance."""
    points = []
    for native in DCT_NATIVE_QUALITIES:
        table = quant_table(native)
        mses, mse_tols, bpps, bpp_tols = [], [], [], []
        for img in images:
            h, w, ch = img.shape
            per = [dct_plane(img[:, :, c], table) for c in range(ch)]
            mses.append(sum(p[0] for p in per) / (h * w * ch))
            mse_tols.append(sum(p[1] for p in per) / (h * w * ch))
            bpps.append(sum(p[2] for p in per) / (h * w))
            bpp_tols.append(sum(p[3] for p in per) / (h * w))
        points.append(RefPoint(float(np.mean(mses)), float(np.mean(mse_tols)),
                               float(np.mean(bpps)), float(np.mean(bpp_tols))))
    return points


def uniform_source(master_seed: int, n: int) -> np.ndarray:
    """The synthetic source, from its documented stream (master_seed, 2)."""
    state = np.random.SeedSequence([master_seed, STREAM_SOURCE]).generate_state(1, np.uint64)
    return np.random.default_rng(int(state[0])).random(n)


# ---------------------------------------------------------------- shadow run


def _levels(rng: np.random.Generator, q_min: int, q_max: int, k: int) -> list[int]:
    """k uniform draws from [q_min, q_max], one uniform position forced to q_min."""
    levels = rng.integers(q_min, q_max + 1, size=k)
    levels[int(rng.integers(k))] = q_min
    return [int(q) for q in levels]


def _values(sig) -> np.ndarray:
    return np.asarray(sig.values if hasattr(sig, "values") else sig.samples, np.float64)


def _mse(a, b) -> float:
    d = _values(a) - _values(b)
    return float(np.mean(d * d))


def _psnr(mse: float, peak: float) -> float:
    return math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)


def _mean_psnr(mses: list[float], peak: float) -> float:
    ps = [_psnr(m, peak) for m in mses]
    return math.inf if any(math.isinf(p) for p in ps) else float(np.mean(ps))


def _stats(vals: list[float]) -> tuple[float, float, float]:
    a = np.asarray(vals, np.float64)
    std = float(a.std(ddof=1)) if a.size > 1 else 0.0
    return float(a.mean()), std, std / math.sqrt(a.size)


def shadow_report(codec, items: list, samples: list[int], wl, seed: int, peak: float) -> dict:
    """Expected grid, theorem-1 and RD numbers, computed by this module's own
    loop with `codec.reconstruct` as the only program call."""
    levels = wl.levels
    singles = {}  # (q, item) -> reconstruction
    rd_single = {}
    for q in range(1, levels + 1):
        bpps, mses = [], []
        for i, x in enumerate(items):
            y, bs = codec.reconstruct(x, q)
            singles[q, i] = y
            bpps.append(bs.bits_used / samples[i])
            mses.append(_mse(x, y))
        rd_single[q] = {"mean_bpp": float(np.mean(bpps)), "mean_mse": float(np.mean(mses)),
                        "mean_psnr": _mean_psnr(mses, peak)}

    def chain(x, stream, q_min, k, i, t):
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream, q_min, k, i, t]))
        y = x
        for q in _levels(rng, q_min, levels, k):
            y, bs = codec.reconstruct(y, q)
        return y, bs

    grid = {}
    for q_min in wl.q_mins:
        for k in wl.k_list:
            rho, x_single, x_chain = [], [], []
            for i, x in enumerate(items):
                for t in range(wl.b):
                    y, _ = chain(x, STREAM_RHO, q_min, k, i, t)
                    rho.append(_mse(singles[q_min, i], y))
                    x_single.append(_mse(x, singles[q_min, i]))
                    x_chain.append(_mse(x, y))
            mean, std, se = _stats(rho)
            ms, _, se_s = _stats(x_single)
            mc, _, se_c = _stats(x_chain)
            grid[q_min, k] = {"mean": mean, "sample_std": std, "std_err": se,
                              "mean_single": ms, "mean_chain": mc,
                              "std_err_single": se_s, "std_err_chain": se_c}
    rd_multi = {}
    for k in wl.k_list:
        for q_min in range(1, levels + 1):
            bpps, mses = [], []
            for i, x in enumerate(items):
                for t in range(wl.b):
                    y, bs = chain(x, STREAM_RD, q_min, k, i, t)
                    bpps.append(bs.bits_used / samples[i])
                    mses.append(_mse(x, y))
            rd_multi[k, q_min] = {"mean_bpp": float(np.mean(bpps)),
                                  "mean_mse": float(np.mean(mses)),
                                  "mean_psnr": _mean_psnr(mses, peak)}
    return {"rd_single": rd_single, "grid": grid, "rd_multi": rd_multi}


# ---------------------------------------------------------------- the checks


@dataclasses.dataclass
class Verdict:
    attempted: int
    failures: list[str]  # one entry per failed operation
    problems: list[str]  # faults of the report as a whole

    @property
    def failed(self) -> int:
        return len(self.failures)


def _num(v) -> float:
    return math.inf if v == "inf" else float(v)


def _close(got, want: float, rel: float = REL_TOL) -> bool:
    got = _num(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rel * abs(want)


def _within(got, want: float, tol: float) -> bool:
    return abs(_num(got) - want) <= tol + REL_TOL * abs(want)


def check_report(rep: dict, wl, expect: dict) -> Verdict:
    """One verdict per operation (grid cell or RD point) of one report.

    `expect` holds "shadow" (from shadow_report) and, per workload kind,
    "dct" (from dct_reference), "pnm_bpp" or "source_n".
    """
    problems, failures = [], []
    cfg = rep.get("config", {})
    for key, want in (("k_list", list(wl.k_list)), ("b", wl.b),
                      ("q_min_list", list(wl.q_mins)), ("codec_ladder_levels", wl.levels)):
        if cfg.get(key) != want:
            problems.append(f"config echo {key}={cfg.get(key)!r}, expected {want!r}")
    if len(cfg.get("dataset_items", [])) != wl.items:
        problems.append(f"dataset_items {cfg.get('dataset_items')!r}, expected {wl.items} items")

    def index(rows, key, what):
        out = {}
        for r in rows:
            if key(r) in out:
                problems.append(f"duplicate {what} {key(r)}")
            out[key(r)] = r
        return out

    grid = index(rep.get("grid", []), lambda g: (g["q_min"], g["k"]), "grid cell")
    thm = index(rep.get("theorem1", []), lambda t: (t["q_min"], t["k"]), "theorem1 record")
    single = index(rep.get("rd_single", []), lambda p: p["quality"], "rd_single point")
    multi = {k: index(rep.get("rd_multi", {}).get(str(k), []), lambda p: p["quality"],
                      f"rd_multi[{k}] point") for k in wl.k_list}
    cells = {(q, k) for q in wl.q_mins for k in wl.k_list}
    if set(grid) - cells or set(thm) - cells:
        problems.append(f"unexpected cells {sorted((set(grid) | set(thm)) - cells)}")
    if set(single) - set(range(1, wl.levels + 1)):
        problems.append("unexpected rd_single qualities")
    if set(rep.get("rd_multi", {})) != {str(k) for k in wl.k_list}:
        problems.append(f"rd_multi keys {sorted(rep.get('rd_multi', {}))}")

    shadow, dct = expect["shadow"], expect.get("dct")
    exact_zero = wl.codec.startswith("nested-scalar") or wl.codec == "external"

    for q_min, k in sorted(cells):
        g, t = grid.get((q_min, k)), thm.get((q_min, k))
        why = []
        if g is None or t is None:
            why.append("missing")
        else:
            s = shadow["grid"][q_min, k]
            if g["b"] != wl.b or g["n_pairs"] != wl.items * wl.b or g["distortion_kind"] != "MSE":
                why.append(f"b/n_pairs/kind {g['b']}/{g['n_pairs']}/{g['distortion_kind']}")
            if not _num(g["mean"]) >= 0:
                why.append(f"rho {g['mean']} < 0")
            for key in ("mean", "sample_std", "std_err"):
                if not _close(g[key], s[key]):
                    why.append(f"{key} {g[key]!r} != {s[key]!r}")
            for key in ("mean_single", "mean_chain", "std_err_single", "std_err_chain"):
                if not _close(t[key], s[key]):
                    why.append(f"theorem1 {key} {t[key]!r} != {s[key]!r}")
            slack = 3 * math.hypot(_num(t["std_err_single"]), _num(t["std_err_chain"]))
            holds = _num(t["mean_chain"]) >= _num(t["mean_single"]) - slack
            if t["satisfied"] is not holds:
                why.append(f"theorem1 flag {t['satisfied']!r}, recomputed {holds}")
            elif not holds and (wl.theorem1_holds or k == 1):
                why.append("theorem1 not satisfied")
            if (exact_zero or k == 1) and g["mean"] != 0:
                why.append(f"rho {g['mean']!r} != 0")
            if k == 1 and t["mean_chain"] != t["mean_single"]:
                why.append("one-stage chain differs from the single pass")
            if dct and not _within(t["mean_single"], dct[q_min - 1].mse, dct[q_min - 1].mse_tol):
                why.append(f"mean_single {t['mean_single']!r} vs reference {dct[q_min - 1]}")
        if why:
            failures.append(f"cell q_min={q_min} k={k}: " + "; ".join(why))

    def rd_common(p, s) -> list[str]:
        return [f"{key} {p[key]!r} != {s[key]!r}"
                for key in ("mean_bpp", "mean_mse", "mean_psnr") if not _close(p[key], s[key])]

    prev_psnr = -math.inf
    for q in range(1, wl.levels + 1):
        p = single.get(q)
        if p is None:
            failures.append(f"rd_single q={q}: missing")
            continue
        why = rd_common(p, shadow["rd_single"][q])
        if dct:
            r = dct[q - 1]
            if not _within(p["mean_mse"], r.mse, r.mse_tol):
                why.append(f"mse {p['mean_mse']!r} vs reference {r.mse!r} +- {r.mse_tol:.3g}")
            if not _within(p["mean_bpp"], r.bpp, r.bpp_tol):
                why.append(f"bpp {p['mean_bpp']!r} vs reference {r.bpp!r} +- {r.bpp_tol:.3g}")
            if not _num(p["mean_psnr"]) > prev_psnr:
                why.append(f"psnr {p['mean_psnr']!r} does not rise above {prev_psnr!r}")
            prev_psnr = _num(p["mean_psnr"])
        if "source_n" in expect:
            if p["mean_bpp"] != q - 1:
                why.append(f"bpp {p['mean_bpp']!r} != {q - 1}")
            if q == wl.levels:
                delta = 1 / 2 ** (wl.levels - 1)
                se = delta**2 / math.sqrt(180 * expect["source_n"])
                if abs(p["mean_mse"] - delta**2 / 12) > 5 * se:
                    why.append(f"top-level mse {p['mean_mse']!r} not within 5 SE of delta^2/12")
        if "pnm_bpp" in expect:
            why += _identity_point(p, expect["pnm_bpp"])
        if why:
            failures.append(f"rd_single q={q}: " + "; ".join(why))

    for k in wl.k_list:
        for q in range(1, wl.levels + 1):
            p = multi[k].get(q)
            if p is None:
                failures.append(f"rd_multi k={k} q_min={q}: missing")
                continue
            why = rd_common(p, shadow["rd_multi"][k, q])
            if "source_n" in expect and q in single and not _close(
                    p["mean_mse"], _num(single[q]["mean_mse"]), 1e-12):
                why.append("chain final differs from the single pass at q_min")
            if "pnm_bpp" in expect:
                why += _identity_point(p, expect["pnm_bpp"])
            if why:
                failures.append(f"rd_multi k={k} q_min={q}: " + "; ".join(why))
    return Verdict(wl.operations(), failures, problems)


def _identity_point(p: dict, pnm_bpp: float) -> list[str]:
    why = []
    if p["mean_psnr"] != "inf" or p["mean_mse"] != 0:
        why.append(f"identity codec psnr {p['mean_psnr']!r}, mse {p['mean_mse']!r}")
    if not _close(p["mean_bpp"], pnm_bpp, 1e-12):
        why.append(f"bpp {p['mean_bpp']!r} != PNM size {pnm_bpp!r}")
    return why
