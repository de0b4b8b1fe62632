"""Perturbed-orbit machinery: approximate coordinates near the gate,
the exit-window region, per-step error terms, the three-phase orbit
tracker and the convergence harness.

For small eps the closed forms

    w_eps(x) = (1/eps) arctan(x/eps) + pi/(2 eps)
               + (1-a)/2 log(x^2 + eps^2)
    t_eps(x, y) = y / (x^2 + eps^2)^{eta/2}

nearly conjugate one step of g_eps to the unit translation inside the
gate region; the harness measures how well, and how the long iterates
approach the Lavaurs map.  arctan is evaluated through the logarithmic
form fixing its branch off the cut {i t eps : |t| >= 1}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutError,
    DomainEscape,
    NewtonDivergence,
    ZeroTangentialCoordinate,
)
from .family import GermFamily, epsilon_sequence, evaluate
from .fatou import FatouEngine
from .lavaurs import LavaursMap

__all__ = [
    "ApproxCoords",
    "EggbeaterRegion",
    "OrbitTrace",
    "approx_fatou",
    "region_contains",
    "error_terms",
    "inverse_approx_fatou",
    "orbit_trace",
    "perturbed_orbit",
    "convergence_error",
]


@dataclass(frozen=True)
class ApproxCoords:
    eps: complex
    eta: complex
    a: complex

    @classmethod
    def for_family(cls, f: GermFamily, eps) -> "ApproxCoords":
        return cls(complex(eps), f.eta, f.a)

    def _cut_check(self, x):
        # the cut is x = i t eps, |t| >= 1: there (i eps - x)/(i eps + x) <= 0
        num = 1j * self.eps - x
        den = 1j * self.eps + x
        ratio = num / den
        bad = (np.real(ratio) <= 0) & (np.imag(ratio) == 0)
        if np.any(bad):
            raise BranchCutError("point on the gate cut {i t eps : |t| >= 1}")
        return ratio

    def w(self, x):
        ratio = self._cut_check(x)
        e = self.eps
        lead = np.log(ratio) / (2j * e) + math.pi / (2 * e)
        s = x * x + e * e
        if np.any((np.real(s) <= 0) & (np.imag(s) == 0)):
            raise BranchCutError("x^2 + eps^2 on the log cut")
        return lead + 0.5 * (1.0 - self.a) * np.log(s)

    def t(self, x, y):
        s = x * x + self.eps * self.eps
        if np.any((np.real(s) <= 0) & (np.imag(s) == 0)):
            raise BranchCutError("x^2 + eps^2 on the log cut")
        return y * np.exp(-0.5 * self.eta * np.log(s))

    def w_prime(self, x):
        s = x * x + self.eps * self.eps
        return (1.0 + (1.0 - self.a) * x) / s


def approx_fatou(ac: ApproxCoords, z, orientation: str = "incoming"):
    """Closed-form coordinates; the outgoing variant subtracts (pi/eps, 0)."""
    x, y = z
    W = ac.w(x)
    T = ac.t(x, y)
    if orientation == "outgoing":
        W = W - math.pi / ac.eps
    return W, T


@dataclass(frozen=True)
class EggbeaterRegion:
    n: int
    C: float
    gamma: float

    @property
    def k_n(self) -> int:
        return math.floor(self.n**self.gamma)


def region_contains(reg: EggbeaterRegion, ac: ApproxCoords, z) -> bool:
    """The three gate-region inequalities, evaluated exactly."""
    x, y = z
    u = ac.eps * ac.w(x)
    kn, n = reg.k_n, reg.n
    lo = math.pi * kn / (10.0 * n)
    if not (lo <= np.real(u) <= math.pi - lo):
        return False
    if abs(np.imag(u)) > reg.C * math.pi / n:
        return False
    t = abs(ac.t(x, y))
    return 1.0 / reg.C < t < reg.C


def error_terms(f: GermFamily, eps, z):
    """One-step translation defect A and tangential log-defect B."""
    ac = ApproxCoords.for_family(f, eps)
    x, y = z
    x1, y1 = evaluate(f, eps, (x, y))
    t0 = ac.t(x, y)
    if np.any(np.abs(t0) == 0):
        raise ZeroTangentialCoordinate("t_eps vanishes at the base point")
    A = ac.w(x1) - ac.w(x) - 1.0
    B = np.log(ac.t(x1, y1) / t0)
    return A, B


def inverse_approx_fatou(ac: ApproxCoords, reg: EggbeaterRegion, XY):
    """Invert the closed-form chart on the gate region by a scalar Newton.

    Seeded with -eps cot(eps X); the tangential part follows exactly.
    """
    X, Y = complex(XY[0]), complex(XY[1])
    e = ac.eps
    x = -e / cmath.tan(e * X)
    for it in range(50):
        r = complex(ac.w(x)) - X
        if abs(r) <= 1e-13 * (1.0 + abs(X)):
            break
        x = x - r / complex(ac.w_prime(x))
    else:
        raise NewtonDivergence(
            "inverse chart Newton did not converge",
            seed=-e / cmath.tan(e * X),
            last=x,
        )
    s = x * x + e * e
    y = Y * cmath.exp(0.5 * ac.eta * cmath.log(s))
    return x, y


# ---------------------------------------------------------------------------
# orbit tracking


@dataclass
class OrbitTrace:
    n: int
    N: int
    eps: complex
    k_n: int
    points: list  # (x, y) at steps 0..n-N
    phases: list  # "approach" | "eggbeater" | "exit" per step
    approach_residual: float
    coordinate_agreement: float
    transit_residual: float
    exit_residual: float
    region_entry: bool
    region_exit: bool

    def rows(self):
        """Per-step CSV rows: step, coords, phase and residual channel."""
        chans = {
            self.k_n: ("approach", self.approach_residual),
            self.n - self.k_n: ("transit", self.transit_residual),
            self.n - self.N: ("exit", self.exit_residual),
        }
        out = []
        for step, (x, y) in enumerate(self.points):
            phase = self.phases[step]
            ch, val = chans.get(step, ("", float("nan")))
            out.append((step, x.real, x.imag, y.real, y.imag, phase, ch, val))
        return out


def _norm2(ax, ay):
    return float(max(abs(ax), abs(ay)))


def orbit_trace(
    f: GermFamily,
    sigma,
    q,
    n: int,
    z,
    N: int = 0,
    engine: FatouEngine | None = None,
    C: float = 2.0,
) -> OrbitTrace:
    """Track one perturbed orbit through its three phases.

    Residual channels compare the orbit against the incoming coordinate
    (approach), the closed-form chart (agreement at the handoff), the
    twisted translation across the gate (transit) and the outgoing
    coordinate (exit).
    """
    if engine is None:
        engine = FatouEngine(f)
    eps = epsilon_sequence(sigma, 0.0, n)
    ac = ApproxCoords.for_family(f, eps)
    reg = EggbeaterRegion(n, C, f.gamma)
    kn = reg.k_n
    if not (0 < kn < n - kn < n - N + 1):
        raise ValueError(f"phase boundaries invalid for n={n}, N={N}")
    guard = engine.guard
    x, y = complex(z[0]), complex(z[1])
    pts = [(x, y)]
    for step in range(n - N):
        x, y = evaluate(f, eps, (x, y))
        x, y = complex(x), complex(y)
        if abs(x) > guard or abs(y) > guard:
            raise DomainEscape(step + 1, point=(x, y))
        pts.append((x, y))
    phases = [
        "approach" if s <= kn else ("eggbeater" if s <= n - kn else "exit")
        for s in range(n - N + 1)
    ]

    W0, T0 = engine.incoming_fatou(z)
    Wk, Tk = engine.incoming_fatou(pts[kn])
    approach = _norm2(Wk - W0 - kn, Tk - T0)

    wk_eps = complex(ac.w(pts[kn][0]))
    tk_eps = complex(ac.t(*pts[kn]))
    agreement = _norm2(wk_eps - Wk, tk_eps - Tk)

    zm = pts[n - kn]
    wm = complex(ac.w(zm[0])) - math.pi / eps
    tm = complex(ac.t(*zm))
    tw_w = wk_eps + complex(sigma) - 2 * kn
    tw_t = cmath.exp(math.pi * complex(q)) * tk_eps
    transit = _norm2(wm - tw_w, tm - tw_t)

    Wo_m, To_m = engine.outgoing_fatou(zm)
    Wo_end, To_end = engine.outgoing_fatou(pts[n - N])
    exit_res = _norm2(Wo_end - (Wo_m + (kn - N)), To_end - To_m)

    return OrbitTrace(
        n=n,
        N=N,
        eps=eps,
        k_n=kn,
        points=pts,
        phases=phases,
        approach_residual=approach,
        coordinate_agreement=agreement,
        transit_residual=transit,
        exit_residual=exit_res,
        region_entry=region_contains(reg, ac, pts[kn]),
        region_exit=region_contains(
            EggbeaterRegion(n, C * math.exp(0.5 + math.pi * abs(complex(q).real)), f.gamma),
            ac,
            zm,
        ),
    )


# ---------------------------------------------------------------------------
# the convergence harness


def perturbed_orbit(f: GermFamily, eps, x, y, steps: int, guard: float):
    """Push arrays of points ``steps`` steps under g_eps.

    A point whose coordinates leave the guard bound stops there.  Returns
    (x, y, escape_step): escape_step[i] is the step at which point i left
    the bound (its value is then the first out-of-bound iterate), or -1.
    """
    ox = np.array(x, dtype=complex)
    oy = np.array(y, dtype=complex)
    live = np.ones(ox.shape, dtype=bool)
    esc = np.full(ox.shape, -1)
    for step in range(steps):
        nx, ny = evaluate(f, eps, (ox[live], oy[live]))
        ox[live], oy[live] = nx, ny
        big = np.zeros_like(live)
        big[live] = (np.abs(nx) > guard) | (np.abs(ny) > guard)
        esc[big] = step + 1
        live &= ~big
        if not live.any():
            break
    return ox, oy, esc


def convergence_error(
    f: GermFamily,
    sigma,
    q,
    ns,
    K,
    N: int = 0,
    engine: FatouEngine | None = None,
    skip_escaped: bool = False,
):
    """sup over K of the distance between the long iterates and the limit map.

    For each rung n of the ladder ``ns`` the long iterate g_{eps_n}^{n-N},
    eps_n = pi/(n - sigma), is compared with the Lavaurs map L_{sigma-N}.
    The target does not depend on n, so it is evaluated on K once and
    each rung costs only its orbit pass.

    A point escapes when the target's extension or the rung's orbit leaves
    the guard bound.  Unless ``skip_escaped`` is set, the first rung with
    an escaped point raises DomainEscape, indexed by the orbit's escape
    step or else the target's escape index.  Otherwise escaped points are
    dropped from that rung's sup, and the sup is nan when every point
    escaped.

    Returns one (sup, escaped_count) pair per rung, in the order of ``ns``.
    """
    if engine is None:
        engine = FatouEngine(f)
    pts = list(K)
    x = np.array([complex(p[0]) for p in pts])
    y = np.array([complex(p[1]) for p in pts])
    rungs = [(n, epsilon_sequence(sigma, 0.0, n)) for n in ns]
    L = LavaursMap(complex(sigma) - N, complex(q), engine)
    Lx, Ly, escL = L.eval_batch(x, y)

    out = []
    for n, eps in rungs:
        ox, oy, esc_orbit = perturbed_orbit(f, eps, x, y, n - N, engine.guard)
        escaped = (escL >= 0) | (esc_orbit >= 0)
        if escaped.any() and not skip_escaped:
            i = int(np.argmax(escaped))
            idx = int(esc_orbit[i]) if esc_orbit[i] >= 0 else int(escL[i])
            raise DomainEscape(idx, point=pts[i])
        good = ~escaped
        if not good.any():
            out.append((float("nan"), int(escaped.sum())))
            continue
        err = np.maximum(np.abs(ox - Lx), np.abs(oy - Ly))
        out.append((float(np.max(err[good])), int(escaped.sum())))
    return out
