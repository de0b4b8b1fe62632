"""Lavaurs maps: transit limits through the parabolic point.

L = (extended outgoing parametrization) o (X + sigma, e^{pi q} Y) o
(incoming coordinate).  The integer shift used by the long-iterate
harness is a harness parameter, not part of the map: L is evaluated
wherever the extension succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import evaluate
from .fatou import FatouEngine

__all__ = ["LavaursMap", "lavaurs_eval", "lavaurs_functional_check", "FunctionalCheckReport"]


@dataclass
class LavaursMap:
    sigma: complex
    q: complex
    engine: FatouEngine

    def twist(self, X, Y):
        """The translation-and-twist in coordinate space."""
        return X + self.sigma, np.exp(math.pi * complex(self.q)) * Y

    def eval_batch(self, x, y, budget: int | None = None):
        """Evaluate on arrays of basin points; returns (x, y, escape_index)."""
        W, T = self.engine.incoming_batch(x, y, budget)
        Xs, Ys = self.twist(W, T)
        return self.engine.psi_o_batch(Xs, Ys)

    def __call__(self, z, budget: int | None = None):
        return lavaurs_eval(self, z, budget)


def lavaurs_eval(L: LavaursMap, z, budget: int | None = None):
    """Scalar evaluation; raises the documented errors on failure."""
    W, T = L.engine.incoming_fatou(z, budget)
    Xs, Ys = L.twist(np.complex128(W), np.complex128(T))
    return L.engine.psi_o_extended((complex(Xs), complex(Ys)))


@dataclass
class FunctionalCheckReport:
    sup_commute: float
    sup_shift: float
    per_point: list  # (z, commute_residual, shift_residual)

    @property
    def empty(self) -> bool:
        return not self.per_point


def lavaurs_functional_check(L: LavaursMap, sample) -> FunctionalCheckReport:
    """Residuals of g o L = L o g and g o L_sigma = L_{sigma+1} on samples.

    g o L_sigma comes from L's engine; L_sigma o g and L_{sigma+1} come from
    a second engine whose shift depth and prelude depth are one step
    deeper, so each side is a separate solve and either residual can fail.
    On one engine both right-hand sides reduce to the same shifted Psi_out
    target, so the two residuals come out equal; both are kept.
    """
    pts = list(sample)
    if not pts:
        return FunctionalCheckReport(0.0, 0.0, [])
    eng = L.engine
    f = eng.family
    other = FatouEngine(f, C=eng.C, shift_depth=eng.shift_depth + 1.0,
                        min_depth=eng.min_depth + 1.0)
    x = np.array([complex(p[0]) for p in pts])
    y = np.array([complex(p[1]) for p in pts])
    Lx, Ly, e0 = L.eval_batch(x, y)
    gLx, gLy = evaluate(f, 0.0, (Lx, Ly))
    gx, gy = evaluate(f, 0.0, (x, y))
    Lgx, Lgy, e1 = LavaursMap(L.sigma, L.q, other).eval_batch(gx, gy)
    L1x, L1y, e2 = LavaursMap(L.sigma + 1.0, L.q, other).eval_batch(x, y)
    ok = (e0 < 0) & (e1 < 0) & (e2 < 0)
    commute = np.where(ok, np.maximum(np.abs(gLx - Lgx), np.abs(gLy - Lgy)), np.inf)
    shift = np.where(ok, np.maximum(np.abs(gLx - L1x), np.abs(gLy - L1y)), np.inf)
    per = [
        (pts[i], float(commute[i]), float(shift[i]))
        for i in range(len(pts))
    ]
    return FunctionalCheckReport(
        float(np.max(commute)), float(np.max(shift)), per
    )
