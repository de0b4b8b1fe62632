"""Batch experiment driver.

    implab <subcommand> --config cfg.json --out outdir [--threads N]

Subcommands wrap the public operations: validate, fixed-points, fatou,
lavaurs, implode, trace, curve, render.  Identical configs produce
byte-identical artifacts; exit codes are 0 (ok), 2 (config error),
3 (hypothesis violation), 4 (numerical non-convergence, diagnostics
still written).  ``--threads`` is accepted for compatibility and has no
effect: every subcommand runs single-threaded on vectorized batches.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ImplabError
from .family import (
    GermFamily,
    epsilon_sequence,
    fixed_points,
    jet_from_triples,
    validate_family,
)
from .fatou import FatouEngine
from .implosion import convergence_error, orbit_trace, perturbed_orbit
from .io_artifacts import write_csv, write_ppm
from .lavaurs import LavaursMap, lavaurs_functional_check
from .normal_form import CharacteristicDirection, GermJet, formal_invariant_curve
from .sampling import disk_samples, petal_samples, segment_samples

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    pass


def _cnum(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(v[0], v[1])
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    raise ConfigError(f"cannot parse complex number from {v!r}")


def _load_family(cfg) -> GermFamily:
    try:
        return GermFamily.from_json(cfg["family"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad family block: {e}") from e


def _samples(cfg, engine: FatouEngine):
    spec = cfg.get("samples", {"kind": "petal", "orientation": "incoming",
                               "count": 50, "seed": 0})
    kind = spec.get("kind", "petal")
    count = int(spec.get("count", 50))
    seed = int(spec.get("seed", 0))
    if kind == "petal":
        orientation = spec.get("orientation", "incoming")
        petal = engine.petal(orientation)
        x, y = petal_samples(petal, engine.eta, count, seed)
        return x, y
    if kind == "disk":
        x = disk_samples(_cnum(spec["center"]), float(spec["radius"]), count, seed)
        y = np.full(count, _cnum(spec.get("y", 0.0)))
        return x, y
    if kind == "segment":
        x = segment_samples(_cnum(spec["a"]), _cnum(spec["b"]), count)
        y = np.full(count, _cnum(spec.get("y", 0.0)))
        return x, y
    if kind == "points":
        pts = spec["points"]
        x = np.array([_cnum(p["x"]) for p in pts])
        y = np.array([_cnum(p["y"]) for p in pts])
        return x, y
    raise ConfigError(f"unknown sample kind {kind!r}")


def _log(msg: str):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(cfg, out):
    fam = _load_family(cfg)
    report = validate_family(fam)
    rows = [(c.name, "PASS" if c.passed else "FAIL", c.detail) for c in report]
    for w in report.warnings:
        rows.append(("warning", "WARN", w))
    path = os.path.join(out, "validate.csv")
    write_csv(path, ["check", "status", "detail"], rows)
    _log(f"wrote {path}")
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def _require_valid(fam: GermFamily):
    report = validate_family(fam)
    if not report.passed:
        failed = [c.name for c in report if not c.passed]
        raise HypothesisViolation(f"family fails: {', '.join(failed)}")


class HypothesisViolation(Exception):
    pass


def _cmd_fixed_points(cfg, out):
    fam = _load_family(cfg)
    _require_valid(fam)
    eps_list = cfg.get("eps_grid") or [cfg.get("eps", 0.01)]
    rows = []
    for e in eps_list:
        e = _cnum(e)
        for rec in fixed_points(fam, e):
            x, y = rec.location
            rows.append((
                e.real, e.imag, x.real, x.imag, y.real, y.imag,
                rec.rho_t.real, rec.rho_t.imag, rec.rho_n.real, rec.rho_n.imag,
                rec.tangential, rec.degenerate_pair,
            ))
    path = os.path.join(out, "fixed_points.csv")
    write_csv(
        path,
        ["eps_re", "eps_im", "x_re", "x_im", "y_re", "y_im",
         "rho_t_re", "rho_t_im", "rho_n_re", "rho_n_im",
         "tangential", "degenerate_pair"],
        rows,
    )
    _log(f"wrote {path}")
    return EXIT_OK


def _cmd_fatou(cfg, out):
    fam = _load_family(cfg)
    _require_valid(fam)
    engine = FatouEngine(fam, C=float(cfg.get("C", 2.0)))
    rows = []
    from .family import evaluate

    for orientation in ("incoming", "outgoing"):
        petal = engine.petal(orientation)
        count = int(cfg.get("samples", {}).get("count", 50))
        seed = int(cfg.get("samples", {}).get("seed", 0))
        x, y = petal_samples(petal, engine.eta, count, seed)
        side = engine.incoming_batch if orientation == "incoming" else engine.outgoing_batch
        W, T = side(x, y)
        gx, gy = evaluate(fam, 0.0, (x, y))
        W1, T1 = side(gx, gy)
        abel = np.maximum(np.abs(W1 - W - 1.0), np.abs(T1 - T))
        for i in range(count):
            rows.append((
                orientation, x[i].real, x[i].imag, y[i].real, y[i].imag,
                W[i].real, W[i].imag, T[i].real, T[i].imag, float(abel[i]),
            ))
    path = os.path.join(out, "fatou.csv")
    write_csv(
        path,
        ["side", "x_re", "x_im", "y_re", "y_im",
         "W_re", "W_im", "T_re", "T_im", "abel_residual"],
        rows,
    )
    _log(f"wrote {path}")
    return EXIT_OK


def _cmd_lavaurs(cfg, out):
    fam = _load_family(cfg)
    _require_valid(fam)
    engine = FatouEngine(fam, C=float(cfg.get("C", 2.0)))
    sigma = _cnum(cfg.get("sigma", 0.0))
    q = _cnum(cfg.get("q", 0.0))
    L = LavaursMap(sigma, q, engine)
    x, y = _samples(cfg, engine)
    Lx, Ly, esc = L.eval_batch(x, y)
    rows = [
        (x[i].real, x[i].imag, y[i].real, y[i].imag,
         Lx[i].real, Lx[i].imag, Ly[i].real, Ly[i].imag, int(esc[i]))
        for i in range(len(x))
    ]
    path = os.path.join(out, "lavaurs.csv")
    write_csv(
        path,
        ["x_re", "x_im", "y_re", "y_im",
         "Lx_re", "Lx_im", "Ly_re", "Ly_im", "escape_index"],
        rows,
    )
    _log(f"wrote {path}")
    check = lavaurs_functional_check(L, list(zip(x.tolist(), y.tolist())))
    path2 = os.path.join(out, "lavaurs_check.csv")
    write_csv(
        path2,
        ["sup_commute", "sup_shift"],
        [(check.sup_commute, check.sup_shift)],
    )
    _log(f"wrote {path2}")
    return EXIT_OK


def _cmd_implode(cfg, out):
    """Convergence ladder: E(n) = sup over the samples of the distance
    between the long iterate g_{eps_n}^{n-N} and L_{sigma-N}, one row per
    rung of ``n_ladder``, from one ``convergence_error`` call (the Lavaurs
    target is evaluated once).  Escaped samples are dropped and counted;
    a rung where every sample escaped has E = nan and exits 4."""
    fam = _load_family(cfg)
    _require_valid(fam)
    engine = FatouEngine(fam, C=float(cfg.get("C", 2.0)))
    sigma = _cnum(cfg.get("sigma", 0.0))
    q = _cnum(cfg.get("q", 0.0))
    N = int(cfg.get("N", 0))
    ladder = cfg.get("n_ladder", [50, 100, 200, 400, 800])
    x, y = _samples(cfg, engine)
    K = list(zip(x.tolist(), y.tolist()))
    spath = os.path.join(out, "implode_samples.csv")
    write_csv(
        spath,
        ["x_re", "x_im", "y_re", "y_im"],
        [(p[0].real, p[0].imag, p[1].real, p[1].imag) for p in K],
    )
    _log(f"wrote {spath}")
    ns = [int(n) for n in ladder]
    errs = convergence_error(fam, sigma, q, ns, K, N=N, engine=engine,
                             skip_escaped=True)
    rows = []
    for n, (err, nesc) in zip(ns, errs):
        rows.append((n, err, nesc))
        _log(f"implode n={n}: E={err:.6e} escaped={nesc}")
    path = os.path.join(out, "implode.csv")
    write_csv(path, ["n", "E", "escaped"], rows)
    _log(f"wrote {path}")
    if rows and any(math.isnan(r[1]) for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_trace(cfg, out):
    fam = _load_family(cfg)
    _require_valid(fam)
    engine = FatouEngine(fam, C=float(cfg.get("C", 2.0)))
    sigma = _cnum(cfg.get("sigma", 0.0))
    q = _cnum(cfg.get("q", 0.0))
    n = int(cfg.get("n", 400))
    N = int(cfg.get("N", 0))
    z0 = (_cnum(cfg.get("x", -0.35)), _cnum(cfg.get("y", 0.0)))
    tr = orbit_trace(fam, sigma, q, n, z0, N=N, engine=engine,
                     C=float(cfg.get("C", 2.0)))
    path = os.path.join(out, "trace.csv")
    write_csv(
        path,
        ["step", "x_re", "x_im", "y_re", "y_im", "phase",
         "residual_channel", "residual_value"],
        tr.rows(),
    )
    _log(f"wrote {path}")
    summary = os.path.join(out, "trace_summary.csv")
    write_csv(
        summary,
        ["n", "N", "k_n", "approach", "agreement", "transit", "exit",
         "region_entry", "region_exit"],
        [(tr.n, tr.N, tr.k_n, tr.approach_residual, tr.coordinate_agreement,
          tr.transit_residual, tr.exit_residual, tr.region_entry, tr.region_exit)],
    )
    _log(f"wrote {summary}")
    return EXIT_OK


def _cmd_curve(cfg, out):
    germ = cfg.get("germ")
    if germ is None:
        raise ConfigError("curve needs a 'germ' block with f1/f2 triples")
    order = int(germ.get("order", 8))
    f = GermJet(
        jet_from_triples(germ["f1"], order),
        jet_from_triples(germ["f2"], order),
    )
    curve_order = int(cfg.get("curve_order", order - 1))
    eta = complex(f.f2.coeff(1, 1, 0))
    direction = CharacteristicDirection((1.0 + 0j, 0j), 1.0 + 0j, eta - 1.0)
    zeta, h = formal_invariant_curve(f, direction, curve_order)
    rows = [
        (k, complex(zeta[k]).real, complex(zeta[k]).imag,
         complex(h[k]).real, complex(h[k]).imag)
        for k in range(curve_order + 1)
    ]
    path = os.path.join(out, "curve.csv")
    write_csv(path, ["degree", "zeta_re", "zeta_im", "h_re", "h_im"], rows)
    _log(f"wrote {path}")
    return EXIT_OK


_BASIN_INSIDE = np.array([40, 90, 200], dtype=np.int32)
_BASIN_ESCAPED = np.array([230, 70, 40], dtype=np.int32)
_BASIN_UNKNOWN = np.array([128, 128, 128], dtype=np.int32)
# pixels per render batch: caps the ladder's working arrays at those of
# one 4096-pixel row, whatever the resolution; the image does not depend
# on it
_RENDER_TILE = 4096


def _render_rows(engine, fam, mode, xs, ys_row, budget, sigma, q, n, N):
    """Colour a batch of pixels at (xs, ys_row) in any order; returns the
    (len(xs), 3) uint8 colours and the count of failed pixels.

    Every step is per point, so the colours do not depend on how the
    frame is cut into batches; a batch-wide raise ends the render."""
    code, index = engine.classify_batch(xs, ys_row, budget=budget)
    h = xs.shape[0]
    rgb = np.zeros((h, 3), dtype=np.uint8)
    if mode == "basin":
        shade = np.clip(255 - 3 * index, 60, 255) / 255.0
        for ch in range(3):
            rgb[:, ch] = np.where(
                code == 1, (_BASIN_INSIDE[ch] * shade).astype(int),
                np.where(code == 2, (_BASIN_ESCAPED[ch] * shade).astype(int),
                         _BASIN_UNKNOWN[ch]),
            ).astype(np.uint8)
        return rgb, int((code == 0).sum())
    inside = code == 1
    failed = int((code == 0).sum())
    if mode == "fatou-phase":
        if inside.any():
            W, T = engine.incoming_batch(xs[inside], ys_row[inside])
            fr = np.mod(W.real, 1.0)
            fi = np.mod(W.imag, 1.0)
            sub = np.zeros((int(inside.sum()), 3), dtype=np.uint8)
            sub[:, 0] = (255 * fr).astype(np.uint8)
            sub[:, 1] = (255 * fi).astype(np.uint8)
            sub[:, 2] = np.clip(60 + 60 * np.abs(T), 0, 255).astype(np.uint8)
            rgb[inside] = sub
        rgb[code == 2] = _BASIN_ESCAPED.astype(np.uint8)
        rgb[code == 0] = _BASIN_UNKNOWN.astype(np.uint8)
        return rgb, failed
    if mode == "convergence":
        if inside.any():
            eps = epsilon_sequence(sigma, 0.0, n)
            L = LavaursMap(sigma - N, q, engine)
            Lx, Ly, escL = L.eval_batch(xs[inside], ys_row[inside])
            ox, oy, esc = perturbed_orbit(fam, eps, xs[inside], ys_row[inside],
                                          n - N, engine.guard)
            err = np.maximum(np.abs(ox - Lx), np.abs(oy - Ly))
            bad = (escL >= 0) | (esc >= 0)
            failed += int(bad.sum())
            # log10 error mapped to grayscale: -12 -> black, 2 -> white
            lg = np.clip((np.log10(np.maximum(err, 1e-300)) + 12.0) / 14.0, 0, 1)
            g = (255 * lg).astype(np.uint8)
            sub = np.stack([g, g, g], axis=1)
            sub[bad] = _BASIN_UNKNOWN.astype(np.uint8)
            rgb[inside] = sub
        rgb[code == 2] = _BASIN_ESCAPED.astype(np.uint8)
        rgb[code == 0] = _BASIN_UNKNOWN.astype(np.uint8)
        return rgb, failed
    raise ConfigError(f"unknown render mode {mode!r}")


def _cmd_render(cfg, out):
    """Render the slice y = slice_y over the window to ``render.ppm``.

    Pixels are taken in raster order (top-left origin, row-major) and
    coloured in consecutive tiles of ``_RENDER_TILE`` pixels, one
    ``_render_rows`` batch each; a tile's coordinates are formed from
    the pixel index, so no frame-sized complex array is held.  Exits 4
    when more than a fifth of the pixels fail."""
    fam = _load_family(cfg)
    _require_valid(fam)
    engine = FatouEngine(fam, C=float(cfg.get("C", 2.0)))
    mode = cfg.get("mode", "basin")
    window = cfg.get("window", [-0.3, 0.1, -0.2, 0.2])
    res = cfg.get("resolution", [64, 64])
    w, h = int(res[0]), int(res[1])
    if w <= 0 or h <= 0 or w * h > 8192 * 8192:
        raise ConfigError(f"bad resolution {res}")
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    if not (xmax > xmin and ymax > ymin):
        raise ConfigError(f"degenerate window {window}")
    slice_y = _cnum(cfg.get("slice_y", 0.0))
    budget = int(cfg.get("budget", 400))
    sigma = _cnum(cfg.get("sigma", 0.0))
    q = _cnum(cfg.get("q", 0.0))
    n = int(cfg.get("n", 100))
    N = int(cfg.get("N", 0))
    xs_grid = xmin + (np.arange(w) + 0.5) * (xmax - xmin) / w
    ys_grid = ymax - (np.arange(h) + 0.5) * (ymax - ymin) / h  # top-left origin
    img = np.empty((w * h, 3), dtype=np.uint8)
    nfail = 0
    for i in range(0, w * h, _RENDER_TILE):
        k = np.arange(i, min(i + _RENDER_TILE, w * h))  # row-major pixel index
        xs = xs_grid[k % w] + 1j * ys_grid[k // w]
        ys = np.full(k.size, complex(slice_y))
        img[k], failed = _render_rows(engine, fam, mode, xs, ys, budget,
                                      sigma, q, n, N)
        nfail += failed
    img = img.reshape(h, w, 3)
    comments = [
        f"implab {__version__} render mode={mode}",
        f"window=[{xmin},{xmax}]x[{ymin},{ymax}] slice_y={slice_y}",
        "colors: basin in/escape/unknown = (40,90,200)/(230,70,40)/(128,128,128),",
        "shaded by entry/escape step; convergence mode: grayscale log10 error",
        "from -12 (black) to +2 (white); fatou-phase: RG = frac parts of the",
        "translation coordinate, B from the tangential modulus",
    ]
    path = os.path.join(out, "render.ppm")
    write_ppm(path, img, comments)
    _log(f"wrote {path}")
    if nfail > 0.2 * w * h:
        _log(f"render: {nfail}/{w*h} pixels exhausted their budget")
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "fixed-points": _cmd_fixed_points,
    "fatou": _cmd_fatou,
    "lavaurs": _cmd_lavaurs,
    "implode": _cmd_implode,
    "trace": _cmd_trace,
    "curve": _cmd_curve,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="implab", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted so existing scripts keep working; no effect")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    os.makedirs(args.out, exist_ok=True)
    try:
        return _COMMANDS[args.subcommand](cfg, args.out)
    except (ConfigError, KeyError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisViolation as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ImplabError as e:
        diag = os.path.join(args.out, "diagnostic.csv")
        write_csv(diag, ["error", "detail"], [(type(e).__name__, str(e))])
        print(f"numerical failure: {e} (diagnostic at {diag})", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
