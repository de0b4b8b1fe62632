"""Checks of every workload's outputs, apart from the program.

``transit`` set (a) and ``render`` are compared with the independent 1-D
reference in :mod:`perfbench.ref1d`; ``transit`` set (b), which leaves the
invariant line, is checked by the defining property of the transit map,
and ``implode`` by the convergence chain the long iterates must show.
No check compares against stored output of the program.

Each check returns a :class:`Verdict`: whether the outputs are right,
how many operations failed (escaped, raised, or exhausted a budget), the
accuracy figures, and a line per problem found.  Failed operations are
left out of the comparison.
"""

from __future__ import annotations

import cmath
import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import ref1d

ORACLE_TOL = 1e-6  # sup gap on y = 0, the bound of acceptance criterion 06
ROUNDTRIP_TOL = 1e-8  # the inversion gate of acceptance criterion 04
INSIDE_BLUE = 60
ESCAPED_RGB = (230, 70, 40)
UNKNOWN_RGB = (128, 128, 128)


@dataclass
class Verdict:
    ok: bool = True
    failed: int = 0
    figures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.ok = False
        self.problems.append(msg)


def check_transit_a(x, result, sigma, v: Verdict) -> None:
    """Set (a), y = 0: the 2-D map against the 1-D transit map."""
    if isinstance(result, Exception):
        v.failed += len(x)
        return
    Lx, Ly, esc = result
    good = esc < 0
    v.failed += int((~good).sum())
    if not good.any():
        return
    ref, ref_ok = ref1d.lavaurs(x[good], sigma)
    if not ref_ok.all():
        v.fail("1-D reference did not converge on set (a)")
        return
    gap = float(np.max(np.maximum(np.abs(Lx[good] - ref), np.abs(Ly[good]))))
    v.figures["lavaurs.oracle_gap"] = gap
    if not gap <= ORACLE_TOL:
        v.fail(f"set (a): sup gap to the 1-D reference {gap:.3e} > {ORACLE_TOL:g}")


def check_transit_b(engine, x, y, result, sigma, q, v: Verdict) -> None:
    """Set (b), y != 0: Phi_out(L(z)) = (W_in + sigma, e^{pi q} T_in)."""
    if isinstance(result, Exception):
        v.failed += len(x)
        return
    Lx, Ly, esc = result
    good = esc < 0
    v.failed += int((~good).sum())
    if not good.any():
        return
    W, T = engine.incoming_batch(x[good], y[good])
    Wo, To = engine.outgoing_batch(Lx[good], Ly[good])
    Te = cmath.exp(math.pi * complex(q)) * T
    err_w = np.abs(Wo - (W + sigma))
    err_t = np.abs(To - Te) / np.abs(Te)
    sup = float(max(err_w.max(), err_t.max()))
    v.figures["lavaurs.roundtrip_sup"] = sup
    if not sup <= ROUNDTRIP_TOL:
        v.fail(f"set (b): round trip {sup:.3e} > {ROUNDTRIP_TOL:g} "
               f"(W abs {err_w.max():.3e}, T rel {err_t.max():.3e})")


def read_implode(outdir: str):
    with open(os.path.join(outdir, "implode.csv"), newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    return [(int(r["n"]), float(r["E"]), int(r["escaped"])) for r in rows]


def check_implode(rows, ladder, npoints: int, v: Verdict) -> None:
    """No escapes, E strictly falling along the ladder, E(800) <= E(100)/2."""
    ns = [r[0] for r in rows]
    if ns != list(ladder):
        v.failed += npoints * len(ladder)
        v.fail(f"implode.csv rungs {ns} != {list(ladder)}")
        return
    v.failed += sum(r[2] for r in rows)
    if any(r[2] for r in rows):
        v.fail(f"escapes per rung {[r[2] for r in rows]}")
    E = {n: e for n, e, _ in rows}
    chain = [E[n] for n in ladder]
    if not all(math.isfinite(e) for e in chain):
        v.fail(f"non-finite E in {chain}")
        return
    if not all(a > b for a, b in zip(chain, chain[1:])):
        v.fail(f"E does not fall along the ladder: {chain}")
    ratio = E[800] / E[100]
    v.figures["implosion.e800_over_e100"] = ratio
    if not ratio <= 0.5:
        v.fail(f"E(800)/E(100) = {ratio:.4f} > 0.5")


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        end = data.index(b"\n", pos)
        line = data[pos:end]
        pos = end + 1
        if not line.startswith(b"#"):
            fields.extend(line.split())
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError("not a binary 8-bit PPM")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(data[pos:pos + 3 * w * h], dtype=np.uint8).reshape(h, w, 3)


def pixel_points(window, res):
    """Pixel centres, top-left origin, as the render documents them."""
    xmin, xmax, ymin, ymax = window
    w, h = res
    xs = xmin + (np.arange(w) + 0.5) * (xmax - xmin) / w
    ys = ymax - (np.arange(h) + 0.5) * (ymax - ymin) / h
    return xs[None, :] + 1j * ys[:, None]


def check_render(img, window, res, budget, petal_r, v: Verdict) -> None:
    """Every pixel's class and every inside pixel's colour against 1-D.

    Inside pixels carry R, G = floor(255 frac(Re W)), floor(255 frac(Im W))
    and B = 60 (T = 0 on the slice y = 0); a level may differ by one, and
    wraps between 0 and the top level.
    """
    h, w = res[1], res[0]
    if img.shape != (h, w, 3):
        v.failed += w * h
        v.fail(f"image shape {img.shape} != {(h, w, 3)}")
        return
    z = pixel_points(window, res)
    code = ref1d.basin_code(z, petal_r, budget)
    esc_px = np.all(img == ESCAPED_RGB, axis=2)
    unk_px = np.all(img == UNKNOWN_RGB, axis=2)
    in_px = (img[:, :, 2] == INSIDE_BLUE) & ~esc_px & ~unk_px
    v.failed += int(unk_px.sum())
    mismatch = int(((code == 1) != in_px).sum() + ((code == 2) != esc_px).sum()
                   + ((code == 0) != unk_px).sum())
    if mismatch:
        v.fail(f"{mismatch} pixel class mismatches against the 1-D basin code")
    both = in_px & (code == 1)
    if not both.any():
        return
    W, ok = ref1d.phi_in(z[both])
    if not ok.all():
        v.fail("1-D reference did not converge on inside pixels")
        return
    levels = np.stack([np.floor(255 * np.mod(W.real, 1.0)),
                       np.floor(255 * np.mod(W.imag, 1.0))], axis=1)
    got = img[both][:, :2].astype(float)
    d = np.abs(got - levels)
    d = np.minimum(d, 255 - d)  # frac wraps from the top level to 0
    gap = float(d.max())
    v.figures["render.oracle_gap"] = gap
    if gap > 1:
        v.fail(f"inside pixel colour {gap:.0f} levels from the 1-D coordinate")
