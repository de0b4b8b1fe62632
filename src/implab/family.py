"""Perturbed germ families in explicit coordinates.

A family is

    g_eps(x, y) = (x + (x^2 + eps^2) a_eps(x) + y b_eps(x, y),
                   y + y c_eps(x, y) + d_eps(x))

with the four coefficient series stored as trivariate jets in (x, y, eps).
This module owns validation of the structural hypotheses, fixed-point and
eigenvalue analysis for small eps, the eigenvalue-data limits (q, beta,
sigma0) and the canonical eps_n sequence.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Jet3, eval_monomials
from .errors import ExtrapolationUnstable, NewtonDivergence
from .extrapolate import neville

__all__ = [
    "GermFamily",
    "ValidationReport",
    "FixedPointRecord",
    "EpsilonSequence",
    "model_family",
    "validate_family",
    "evaluate",
    "jacobian",
    "fixed_points",
    "classify_eigenvalues",
    "estimate_q_beta",
    "epsilon_sequence",
    "normalize_p",
    "jet_from_triples",
]


def jet_from_triples(triples, order: int) -> Jet3:
    """Jet3 from serialized ``{"i", "j", "k", "re", "im"}`` coefficient triples."""
    co = {}
    for t in triples:
        co[(t["i"], t["j"], t["k"])] = complex(t["re"], t["im"])
    return Jet3(co, order)


@dataclass
class GermFamily:
    """Coefficient data of g_eps plus derived constants.

    ``eta``, ``q``, ``c`` are read off the c-series; ``a`` and ``p`` off the
    a-series.  ``gamma`` is the exit-window exponent used by the orbit
    machinery; the constructor enforces gamma in (1/2, 2/3) with
    gamma * Re(eta) > 2, bumping the default when needed.
    """

    a_series: Jet3
    b_series: Jet3
    c_series: Jet3
    d_series: Jet3
    gamma: float | None = None
    domain_radius: float = 0.5

    eta: complex = field(init=False)
    q: complex = field(init=False)
    a: complex = field(init=False)
    c: complex = field(init=False)
    p: complex = field(init=False)
    rho: float = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        self.eta = complex(self.c_series.coeff(1, 0, 0))
        self.q = complex(self.c_series.coeff(0, 0, 1))
        self.c = complex(self.c_series.coeff(0, 1, 0))
        self.a = complex(self.a_series.coeff(1, 0, 0))
        self.p = complex(self.a_series.coeff(0, 0, 1))
        self.rho = self.eta.real
        self.m = math.floor(self.rho) if self.rho > 0 else 0
        if self.gamma is None:
            self.gamma = 0.6
            if 0.6 * self.rho <= 2.0 and self.rho > 0:
                bumped = min(0.66, max(2.05 / self.rho, 0.51))
                if bumped * self.rho <= 2.0 < self.rho * (2.0 / 3.0):
                    # formula saturates just above rho=3; midpoint always works
                    bumped = 0.5 * (2.0 / self.rho + 2.0 / 3.0)
                self.gamma = bumped
        self._mons = {
            "a": self.a_series.monomials(),
            "b": self.b_series.monomials(),
            "c": self.c_series.monomials(),
            "d": self.d_series.monomials(),
            "da": self.a_series.dx().monomials(),
            "bx": self.b_series.dx().monomials(),
            "by": self.b_series.dy().monomials(),
            "cx": self.c_series.dx().monomials(),
            "cy": self.c_series.dy().monomials(),
            "dd": self.d_series.dx().monomials(),
        }

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict:
        def triples(j: Jet3):
            return [
                {"i": i, "j": jj, "k": k, "re": complex(c).real, "im": complex(c).imag}
                for (i, jj, k), c in sorted(j.coeffs.items())
            ]

        return {
            "eta": {"re": self.eta.real, "im": self.eta.imag},
            "q": {"re": self.q.real, "im": self.q.imag},
            "gamma": self.gamma,
            "domain_radius": self.domain_radius,
            "a": triples(self.a_series),
            "b": triples(self.b_series),
            "c": triples(self.c_series),
            "d": triples(self.d_series),
        }

    @classmethod
    def from_json(cls, data: dict) -> "GermFamily":
        eta = complex(data["eta"]["re"], data["eta"]["im"])
        q = complex(data["q"]["re"], data["q"]["im"])
        order = max(math.floor(eta.real) + 3, 4)
        for key in ("a", "b", "c", "d"):
            for t in data.get(key, ()):
                order = max(order, t["i"] + t["j"] + t["k"])

        a, b, c, d = (
            jet_from_triples(data.get(key, ()), order) for key in ("a", "b", "c", "d")
        )
        # eta/q keys are declarative; insert into c when missing, verify else
        if (1, 0, 0) not in c.coeffs and eta != 0:
            c = c + Jet3({(1, 0, 0): eta}, order)
        if (0, 0, 1) not in c.coeffs and q != 0:
            c = c + Jet3({(0, 0, 1): q}, order)
        if complex(c.coeff(1, 0, 0)) != eta:
            raise ValueError("declared eta disagrees with the c-series x-coefficient")
        if complex(c.coeff(0, 0, 1)) != q:
            raise ValueError("declared q disagrees with the c-series eps-coefficient")
        return cls(
            a, b, c, d,
            gamma=data.get("gamma"),
            domain_radius=data.get("domain_radius", 0.5),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "GermFamily":
        return cls.from_json(json.loads(text))


def model_family(q: float | complex = 0.0, gamma: float | None = 0.6,
                 domain_radius: float = 0.5) -> GermFamily:
    """g_eps(x,y) = (x + (x^2+eps^2), y(1 + 4x + q eps)): the reference family."""
    order = 7
    a = Jet3({(0, 0, 0): 1.0}, order)
    b = Jet3({}, order)
    c = Jet3({(1, 0, 0): 4.0, (0, 0, 1): complex(q)}, order)
    d = Jet3({}, order)
    return GermFamily(a, b, c, d, gamma=gamma, domain_radius=domain_radius)


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult]
    warnings: list[str]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)


def validate_family(f: GermFamily) -> ValidationReport:
    """Check the structural conditions; always returns a report."""
    checks: list[CheckResult] = []
    warnings: list[str] = []

    a00 = complex(f.a_series.coeff(0, 0, 0))
    checks.append(
        CheckResult("a0(0)=1", abs(a00 - 1.0) <= 1e-12, f"a0(0)={a00}")
    )
    b00 = complex(f.b_series.coeff(0, 0, 0))
    checks.append(
        CheckResult("b0(0,0)=0", abs(b00) <= 1e-12, f"b0(0,0)={b00}")
    )
    checks.append(
        CheckResult("Re eta > 3", f.rho > 3.0, f"eta={f.eta}")
    )

    bad = None
    for (i, j, k), coeff in f.d_series.coeffs.items():
        if j != 0:
            bad = ((i, j, k), coeff, "d depends on y")
            break
        if k == 0 and i < f.m + 3:
            bad = ((i, j, k), coeff, f"x^{i} needs i >= m+3 = {f.m + 3}")
            break
        if k >= 1 and i + k < f.m + 2:
            bad = ((i, j, k), coeff, f"x^{i} eps^{k} needs i+k >= m+2 = {f.m + 2}")
            break
    checks.append(
        CheckResult(
            "d-order",
            bad is None,
            "" if bad is None else f"offending coefficient {bad[0]}={bad[1]}: {bad[2]}",
        )
    )

    g_ok = (0.5 < f.gamma < 2.0 / 3.0) and (f.gamma * f.rho > 2.0)
    checks.append(
        CheckResult(
            "gamma in (1/2,2/3) and gamma*rho > 2",
            g_ok,
            f"gamma={f.gamma}, rho={f.rho}",
        )
    )

    if any(j != 0 for (_, j, _) in f.a_series.coeffs):
        checks.append(CheckResult("a depends on x,eps only", False, "y term in a"))
    if abs(f.p) > 1e-12:
        warnings.append(f"p={f.p} != 0; normalize_p removes the eps term of a")
    if abs(f.c) <= 1e-12:
        warnings.append("c-series has no y term: the family has 2 fixed points, not 4")
    return ValidationReport(checks, warnings)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: GermFamily, eps, z):
    """One step of g_eps; broadcasts over numpy arrays in z = (x, y)."""
    x, y = z
    A = eval_monomials(f._mons["a"], x, 0.0, eps)
    B = eval_monomials(f._mons["b"], x, y, eps)
    C = eval_monomials(f._mons["c"], x, y, eps)
    D = eval_monomials(f._mons["d"], x, 0.0, eps)
    x1 = x + (x * x + eps * eps) * A + y * B
    y1 = y + y * C + D
    return x1, y1


def jacobian(f: GermFamily, eps, z):
    """Analytic Jacobian of g_eps at z; entries broadcast like evaluate."""
    x, y = z
    A = eval_monomials(f._mons["a"], x, 0.0, eps)
    dA = eval_monomials(f._mons["da"], x, 0.0, eps)
    B = eval_monomials(f._mons["b"], x, y, eps)
    Bx = eval_monomials(f._mons["bx"], x, y, eps)
    By = eval_monomials(f._mons["by"], x, y, eps)
    C = eval_monomials(f._mons["c"], x, y, eps)
    Cx = eval_monomials(f._mons["cx"], x, y, eps)
    Cy = eval_monomials(f._mons["cy"], x, y, eps)
    dD = eval_monomials(f._mons["dd"], x, 0.0, eps)
    j11 = 1 + 2 * x * A + (x * x + eps * eps) * dA + y * Bx
    j12 = B + y * By
    j21 = y * Cx + dD
    j22 = 1 + C + y * Cy
    return j11, j12, j21, j22


# ---------------------------------------------------------------------------
# fixed points and eigenvalues


@dataclass
class FixedPointRecord:
    location: tuple
    jacobian: tuple  # (j11, j12, j21, j22)
    rho_t: complex
    rho_n: complex
    tangential_eigvec: tuple
    tangential: bool
    degenerate_pair: bool


def _eig2(jac):
    j11, j12, j21, j22 = (complex(v) for v in jac)
    tr = j11 + j22
    # (tr^2 - 4 det) in the cancellation-free form: both eigenvalues sit
    # near 1 here and the naive discriminant loses half the digits
    disc = cmath.sqrt((j11 - j22) ** 2 + 4 * j12 * j21)
    lam1 = (tr + disc) / 2
    lam2 = (tr - disc) / 2

    def vec(lam):
        va = (j12, lam - j11)
        vb = (lam - j22, j21)
        na = abs(va[0]) ** 2 + abs(va[1]) ** 2
        nb = abs(vb[0]) ** 2 + abs(vb[1]) ** 2
        v, n = (va, na) if na >= nb else (vb, nb)
        if n == 0:
            return (1.0 + 0j, 0.0 + 0j)  # scalar matrix: every direction
        s = 1.0 / math.sqrt(n)
        return (v[0] * s, v[1] * s)

    return (lam1, vec(lam1)), (lam2, vec(lam2))


def classify_eigenvalues(rec, eps=None):
    """Split the eigenvalues of a fixed point into (tangential, normal).

    The tangential eigenvalue is the one whose unit eigenvector maximizes
    the modulus of its first component; near-ties (below 1e-12) are
    assigned in the computed order and flagged on the record.
    """
    jac = rec.jacobian if isinstance(rec, FixedPointRecord) else rec
    (l1, v1), (l2, v2) = _eig2(jac)
    s1, s2 = abs(v1[0]), abs(v2[0])
    tie = abs(s1 - s2) < 1e-12
    if s1 >= s2:
        rho_t, rho_n, vec_t = l1, l2, v1
    else:
        rho_t, rho_n, vec_t = l2, l1, v2
    if isinstance(rec, FixedPointRecord):
        rec.rho_t, rec.rho_n = rho_t, rho_n
        rec.tangential_eigvec = vec_t
        rec.degenerate_pair = tie
    return rho_t, rho_n, vec_t, tie


def _limit_map_zeros(f: GermFamily):
    """Zeros of the eps->0 rescaled fixed-point system.

    Fixed points of g_eps sit at eps * zero + O(eps^2); the zeros with
    vanishing second coordinate are (+-i, 0).
    """
    b1 = complex(f.b_series.coeff(0, 0, 1))
    b2 = complex(f.b_series.coeff(1, 0, 0))
    b3 = complex(f.b_series.coeff(0, 1, 0))
    c1, c2, c3 = f.q, f.eta, f.c
    zeros = [(1j, 0.0 + 0j), (-1j, 0.0 + 0j)]
    if abs(c3) > 1e-14:
        # Y = -(c1 + c2 X)/c3 on the second branch
        # (X^2+1) + Y (b1 + b2 X + b3 Y) = 0 -> quadratic in X
        p2 = 1 - b2 * c2 / c3 + b3 * c2 * c2 / (c3 * c3)
        p1 = -(b1 * c2 + b2 * c1) / c3 + 2 * b3 * c1 * c2 / (c3 * c3)
        p0 = 1 - b1 * c1 / c3 + b3 * c1 * c1 / (c3 * c3)
        roots = np.roots([p2, p1, p0]) if abs(p2) > 1e-14 else (
            np.roots([p1, p0]) if abs(p1) > 1e-14 else []
        )
        for X in roots:
            X = complex(X)
            Y = -(c1 + c2 * X) / c3
            zeros.append((X, Y))
    elif abs(c2) > 1e-14:
        X = -c1 / c2
        lin = b1 + b2 * X
        if abs(b3) > 1e-14:
            for Y in np.roots([b3, lin, X * X + 1]):
                zeros.append((X, complex(Y)))
        elif abs(lin) > 1e-14:
            zeros.append((X, -(X * X + 1) / lin))
    return zeros


def fixed_points(f: GermFamily, eps, radius: float | None = None):
    """All fixed points of g_eps within radius of the origin.

    Newton from the rescaled-system seeds; records come back classified,
    with the pair splitting along (1, 0) tagged tangential.
    """
    eps = complex(eps)
    if eps == 0:
        raise ValueError("eps=0: the fixed point is degenerate, perturb first")
    if radius is None:
        radius = f.domain_radius
    found = []
    zeros = _limit_map_zeros(f)
    seeds = [(z, True) for z in zeros[:2]] + [(z, False) for z in zeros[2:]]
    for (X0, Y0), tangential in seeds:
        seed = (eps * X0, eps * Y0)
        if max(abs(seed[0]), abs(seed[1])) > 3 * radius:
            continue
        x, y = seed
        best = (float("inf"), x, y)
        stall = 0
        for _ in range(80):
            gx, gy = evaluate(f, eps, (x, y))
            rx, ry = gx - x, gy - y
            res = max(abs(rx), abs(ry))
            if res < best[0]:
                best = (res, x, y)
                stall = 0
            else:
                stall += 1
                if stall >= 3:
                    break  # roundoff floor reached
            if res == 0.0:
                break
            j11, j12, j21, j22 = jacobian(f, eps, (x, y))
            m11, m12, m21, m22 = j11 - 1, j12, j21, j22 - 1
            det = m11 * m22 - m12 * m21
            if det == 0:
                break
            x -= (rx * m22 - m12 * ry) / det
            y -= (m11 * ry - rx * m21) / det
        res, x, y = best
        ok = res <= 1e-12 * max(1.0, abs(x), abs(y))
        if not ok:
            raise NewtonDivergence(
                f"fixed-point Newton did not converge from seed {seed}",
                seed=seed,
                last=(x, y),
            )
        if max(abs(x), abs(y)) > radius:
            continue
        if any(
            abs(x - r.location[0]) + abs(y - r.location[1]) < 1e-6 * abs(eps)
            for r in found
        ):
            continue
        jac = jacobian(f, eps, (x, y))
        rec = FixedPointRecord(
            location=(x, y),
            jacobian=jac,
            rho_t=0j,
            rho_n=0j,
            tangential_eigvec=(1.0 + 0j, 0j),
            tangential=tangential and abs(y) <= 0.25 * abs(eps) + 1e-13,
            degenerate_pair=False,
        )
        classify_eigenvalues(rec)
        found.append(rec)
    return found


# ---------------------------------------------------------------------------
# eigenvalue-data limits


def estimate_q_beta(f: GermFamily, eps_grid):
    """Limits (q, beta, sigma0) from the tangential fixed-point pair.

    q is the extrapolated value of (rho_N^1 + rho_N^2 - 2) / (eps (rho_T^1
    + rho_T^2)); beta the eps^2 coefficient of rho_T at the +i eps point;
    sigma0 = i pi beta / 2.
    """
    grid = [float(e) for e in eps_grid]
    if len(grid) < 3:
        raise ExtrapolationUnstable("need at least 3 grid values")
    if not all(abs(grid[i]) > abs(grid[i + 1]) for i in range(len(grid) - 1)):
        raise ExtrapolationUnstable("grid moduli must decrease")
    s_vals, u_vals = [], []
    for e in grid:
        recs = [r for r in fixed_points(f, e) if r.tangential]
        if len(recs) != 2:
            raise ExtrapolationUnstable(
                f"expected 2 tangential fixed points at eps={e}, got {len(recs)}"
            )
        plus = min(recs, key=lambda r: abs(r.location[0] - 1j * e))
        minus = max(recs, key=lambda r: abs(r.location[0] - 1j * e))
        s = (plus.rho_n + minus.rho_n - 2.0) / (e * (plus.rho_t + minus.rho_t))
        u = (plus.rho_t - 1.0 - 2j * e) / (e * e)
        s_vals.append(s)
        u_vals.append(u)
    q_hat, q_err = neville(grid, s_vals)
    beta_hat, b_err = neville(grid, u_vals)
    sigma0_hat = 1j * math.pi * beta_hat / 2.0
    return q_hat, beta_hat, sigma0_hat


# ---------------------------------------------------------------------------
# epsilon sequence


def epsilon_sequence(sigma, sigma0, n: int):
    """eps_n = pi / (n - sigma - sigma0), so n - pi/eps_n is exactly sigma+sigma0."""
    shift = complex(sigma) + complex(sigma0)
    if n <= abs(shift) + 1:
        raise ValueError(f"n={n} too small for shift {shift}")
    return math.pi / (n - shift)


@dataclass
class EpsilonSequence:
    sigma: complex
    sigma0: complex = 0j

    def __call__(self, n: int):
        return epsilon_sequence(self.sigma, self.sigma0, n)


# ---------------------------------------------------------------------------
# p-normalization


def normalize_p(f: GermFamily) -> GermFamily:
    """Remove the eps-linear coefficient of a_eps by the shear
    x = x~ (1 - p eps~), eps = eps~ (1 - p eps~); dynamics are conjugate."""
    p = f.p
    if p == 0:
        return f
    order = f.a_series.order
    s = Jet3({(0, 0, 0): 1, (0, 0, 1): -p}, order)
    s_inv = Jet3({(0, 0, k): p**k for k in range(order + 1)}, order)
    xv = Jet3.variable("x", order)
    yv = Jet3.variable("y", order)
    ev = Jet3.variable("e", order)
    sx, se = xv * s, ev * s

    a_new = s * f.a_series.subst(sx, yv, se)
    b_new = s_inv * f.b_series.subst(sx, yv, se)
    c_new = f.c_series.subst(sx, yv, se)
    d_new = f.d_series.subst(sx, yv, se)
    out = GermFamily(
        a_new, b_new, c_new, d_new, gamma=f.gamma, domain_radius=f.domain_radius
    )
    if abs(out.p) > 1e-12:
        raise ArithmeticError(f"p-normalization left p={out.p}")
    return out
