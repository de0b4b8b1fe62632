"""Independent one-variable reference for f(x) = x + x^2.

The model family restricted to its invariant line y = 0 is this map, so
the 2-D transit map and the fatou-phase render reduce to the classical
quantities computed here (Lavaurs 1989).  Nothing is imported from
``implab``, and the method differs from the program's: where the program
fits ladder samples of long orbits, this module evaluates the asymptotic
expansion of the Fatou coordinate,

    phi(x) = -1/x + log(+-x) + sum_k c_k x^k,

at points close to the parabolic point and moves there and back with
plain forward iteration.  The series has no constant term, which fixes
the same normalisation as the program's limits: phi_in(x) - (X - log X)
and phi_out(x) - (-1/x + log x) tend to 0 at the parabolic point, with
X = -1/x.  The coefficients come from the Abel equation in exact
rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

NTERMS = 12
# Re(-1/x) at which the truncated series is evaluated; there |x| <= 0.01
# and the first omitted term is below 1e-25.
DEPTH = 100.0
# forward steps before phi_in is read off; basin orbits reach DEPTH well
# before, and points that do not are reported as unconverged
IN_STEPS = 1024


def _series_coefficients(nterms: int) -> list[float]:
    """c_1..c_n with phi(x + x^2) = phi(x) + 1 as formal series.

    -1/x + log x leaves the defect 1/(1+x) - 1 + log(1+x), whose x^j
    coefficient is (-1)^j (1 - 1/j); the x^m coefficient of
    sum_k c_k ((x + x^2)^k - x^k) is sum_k c_k C(k, m-k), and matching
    the two order by order gives c_{m-1}.
    """
    c: dict[int, Fraction] = {}
    for m in range(2, nterms + 2):
        defect = Fraction((-1) ** m) * (1 - Fraction(1, m))
        known = sum((c[k] * comb(k, m - k) for k in range(1, m - 1)), Fraction(0))
        c[m - 1] = (-defect - known) / (m - 1)
    return [float(c[k]) for k in range(1, nterms + 1)]


COEFFS = _series_coefficients(NTERMS)


def _tail(x):
    acc = np.zeros_like(x)
    for c in reversed(COEFFS):
        acc = (acc + c) * x
    return acc


def _tail_prime(x):
    acc = np.zeros_like(x)
    for k in range(NTERMS, 0, -1):
        acc = acc * x + k * COEFFS[k - 1]
    return acc


def phi_in(x):
    """Incoming Fatou coordinate on an array of basin points.

    Returns (phi, ok); ok is False where the orbit did not reach the
    depth at which the series is accurate, inside the sector
    |arg X| <= pi/4 around the attracting direction.
    """
    x = np.array(x, dtype=complex, copy=True)
    for _ in range(IN_STEPS):
        x = x + x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        X = -1.0 / x
        ok = np.isfinite(X) & (X.real >= 2 * DEPTH) & (np.abs(X.imag) <= X.real)
        safe = np.where(ok, x, -1.0 / (2 * DEPTH))
        phi = -1.0 / safe + np.log(-safe) + _tail(safe) - IN_STEPS
    return phi, ok


def psi_out(X, guard: float = 1e100):
    """Outgoing parametrisation: phi_out^{-1}(X - m) pushed m steps forward.

    Returns (x, ok); ok is False where the forward orbit passed the guard.
    """
    X = np.asarray(X, dtype=complex)
    m = np.maximum(0, np.ceil(X.real + DEPTH)).astype(int)
    Z = X - m
    # Newton on -1/x + log x + tail(x) = Z from the leading-order root
    x = -1.0 / Z
    for _ in range(30):
        F = -1.0 / x + np.log(x) + _tail(x) - Z
        dF = 1.0 / (x * x) + 1.0 / x + _tail_prime(x)
        step = F / dF
        x = x - step
        if np.all(np.abs(step) <= 1e-17 * np.abs(x)):
            break
    ok = np.ones(X.shape, dtype=bool)
    for j in range(int(m.max()) if m.size else 0):
        act = ok & (m > j)
        if not act.any():
            break
        nx = x[act] + x[act] * x[act]
        good = np.abs(nx) <= guard
        idx = np.flatnonzero(act)
        ok[idx[~good]] = False
        x[idx[good]] = nx[good]
    return x, ok


def lavaurs(x, sigma):
    """Transit map L_sigma = psi_out(phi_in + sigma); returns (Lx, ok)."""
    W, ok_in = phi_in(x)
    Lx, ok_out = psi_out(W + sigma)
    return Lx, ok_in & ok_out


def basin_code(x, r: float, budget: int, domain: float = 0.5):
    """1 = entered the disk |x + r| < r, 2 = left |x| <= domain, 0 = neither.

    Each point is tested for entry first and escape second at every step
    0..budget, which is the order the render documents.
    """
    shape = np.shape(x)
    x = np.array(x, dtype=complex).ravel()
    code = np.zeros(x.shape, dtype=np.uint8)
    live = np.arange(x.size)
    for _ in range(budget + 1):
        xl = x[live]
        code[live[np.abs(xl + r) < r]] = 1
        code[live[(code[live] == 0) & (np.abs(xl) > domain)]] = 2
        live = live[code[live] == 0]
        if not live.size:
            break
        x[live] = x[live] + x[live] * x[live]
    return code.reshape(shape)
