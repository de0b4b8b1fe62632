"""Constructive Fatou coordinates for the unperturbed germ g = g_0.

The incoming coordinate is the double limit over the forward orbit in the
chart X = -1/x, Y = y/(-x)^eta: the tangential component converges as
Y_n -> psi and the translation component as X_n - n - (1-a) log n -> phi.
The outgoing coordinate runs the same construction on the inverse germ in
the chart X = 1/x, Y = -y/x^eta and flips the sign.  Each backward step is
a Newton solve of g_0(z, w) = (x, y) seeded with the truncated jet of the
inverse germ, computed once per engine from the eps = 0 series with Jet3
arithmetic.  The ladder runs at depth min_depth or deeper, where the seed
is exact to rounding after the first few dozen steps: a step then costs
one jet evaluation and one g_0 evaluation for the residual check, with no
Jacobian.

Numerically the orbit is kept in a translation-reduced form
X_n = X_0 + n + S_n, with the per-step remainder S accumulated by
compensated summation from a cancellation-free expression.  Without this
the working chart loses ~n^2 ulps over n steps, which caps the achievable
Abel residual far above the target tolerances.  Limits are extracted by a
least-squares fit of ladder samples against the coordinate's tail basis
(see extrapolate.asymptotic_fit).

The outgoing parametrization Psi_out is built forward-only, as the
classical limit Psi_out(X, Y) = lim_m g_0^m(seed(X - m, Y)) of the
asymptotic inverse seed pushed forward m steps, fitted over the same
ladder of rungs m.  That estimate is good to ~1e-9; a Newton polish in
coordinate space against the outgoing ladder limit, with the Jacobian of
the forward estimate, finishes it at 1e-12 (1 + |X|).  A psi_o_batch call
costs one stacked forward loop and typically 2 outgoing ladder limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Jet3, eval_monomials
from .errors import (
    DomainEscape,
    InverseBranchLost,
    NewtonDivergence,
    NotInBasin,
    TailNotConverged,
)
from .extrapolate import asymptotic_fit, default_rungs
from .family import GermFamily, jacobian

__all__ = ["PetalSpec", "petal_contains", "FatouEngine"]

_MAX_NEWTON = 50
# total degree of the inverse-germ jet that seeds _g0_inverse.  The w-part
# carries y x^k only up to k = order - 1 and is checked to a relative
# tolerance; at 14 an outgoing ladder from depth 13 needs about 50 Newton
# updates in 8192 steps, at 10 about 150
_INVERSE_JET_ORDER = 14
# forward-difference step for DPsi: the forward estimate's error is smooth
# in (X, Y), so its difference quotient is a good Jacobian although the
# estimate itself is only a seed
_JACOBIAN_STEP = 1e-6


@dataclass(frozen=True)
class PetalSpec:
    orientation: str  # "incoming" | "outgoing"
    r: float
    C: float


def petal_contains(p: PetalSpec, eta: complex, z) -> bool:
    """Exact evaluation of the petal inequalities at a point (or arrays)."""
    x, y = z
    disk_center = -p.r if p.orientation == "incoming" else p.r
    if isinstance(x, np.ndarray):
        inside = np.abs(x - disk_center) < p.r
        out = np.zeros(x.shape, dtype=bool)
        if inside.any():
            xs = x[inside]
            ws = -xs if p.orientation == "incoming" else xs
            t = y[inside] * np.exp(-eta * np.log(ws))
            out[inside] = np.abs(t) < p.C
        return out
    if abs(x - disk_center) >= p.r:
        return False
    w = -x if p.orientation == "incoming" else x
    # the disk test forces Re w > 0, so the principal log is safe
    t = y * np.exp(-eta * np.log(complex(w)))
    return abs(t) < p.C


class FatouEngine:
    """Per-germ evaluator for the incoming/outgoing coordinates and psi_o.

    Evaluation is logically pure; the only mutable state is the lazily
    selected petal cache and the inverse-germ jet, each filled by one
    store after it is built, so no caller sees a half-built entry
    (concurrent first callers at worst build the same value twice).
    Batch methods take equal-length complex arrays and are the fast path;
    scalar wrappers raise the documented errors.
    """

    def __init__(
        self,
        family: GermFamily,
        C: float = 2.0,
        n0: int = 64,
        levels: int = 8,
        nbasis: int = 8,
        min_depth: float = 8.0,
        basin_budget: int = 20000,
        guard: float = 1e100,
        shift_depth: float = 12.0,
        tail_tol: float = 1e-6,
    ):
        self.family = family
        self.C = float(C)
        self.rungs = default_rungs(n0, levels)
        self.nbasis = nbasis
        self.min_depth = float(min_depth)
        self.basin_budget = int(basin_budget)
        self.guard = float(guard)
        self.shift_depth = float(shift_depth)
        self.tail_tol = float(tail_tol)
        self._petals: dict[str, PetalSpec] = {}
        self._inv_jet = None  # built on the first _g0_inverse call
        f = family
        self.eta = f.eta
        self.one_minus_a = 1.0 - f.a
        # eps=0 restrictions of the series, as monomial tuples
        self._a0 = [(i, 0, 0, c) for (i, j, k, c) in f._mons["a"] if k == 0]
        self._b0 = [(i, j, 0, c) for (i, j, k, c) in f._mons["b"] if k == 0]
        self._c0 = [(i, j, 0, c) for (i, j, k, c) in f._mons["c"] if k == 0]
        self._d0 = [(i, 0, 0, c) for (i, j, k, c) in f._mons["d"] if k == 0]
        # reduced numerator series n_a(x) = (a0(x) - 1) - x a0(x)
        na = {}
        for (i, _, _, c) in self._a0:
            na[i] = na.get(i, 0) + c
        red = {}
        for i, c in na.items():
            if i >= 1:
                red[i] = red.get(i, 0) + c
            red[i + 1] = red.get(i + 1, 0) - c
        red[0] = red.get(0, 0) + (na.get(0, 0) - 1.0)  # exactly 0 when a0(0) = 1
        self._na = sorted((i, 0, 0, c) for i, c in red.items() if c != 0)

    # -- series helpers -------------------------------------------------
    def _g0(self, x, y):
        a = eval_monomials(self._a0, x, 0.0, 0.0)
        b = eval_monomials(self._b0, x, y, 0.0)
        c = eval_monomials(self._c0, x, y, 0.0)
        d = eval_monomials(self._d0, x, 0.0, 0.0)
        return x + x * x * a + y * b, y + y * c + d

    def _delta(self, x, y, x1):
        """Chart remainder of the g0 step (x, y) -> (x1, .): with X = -1/x,
        X1 = X + 1 + delta, from the cancellation-free numerator."""
        num = (x * x * eval_monomials(self._na, x, 0.0, 0.0)
               + y * eval_monomials(self._b0, x, y, 0.0) * (1 - x))
        return num / (x * x1)

    def _inverse_jet(self):
        """The eps = 0 inverse germ as a truncated jet, built on first use.

        Returns the coefficients as an (order + 1, 2, J) array: [i, 0, j]
        and [i, 1, j] multiply x^i y^j in z and in w, and J - 1 is the
        highest power of y present.  The jet solves z = x - z^2 a0(z) -
        w b0(z, w), w = y - w c0(z, w) - d0(z) by fixed-point iteration;
        every correction is at least quadratic, so each pass fixes one
        more order.
        """
        if self._inv_jet is None:
            n = _INVERSE_JET_ORDER
            x, y = Jet3.variable("x", n), Jet3.variable("y", n)
            zero = Jet3.zero(n)
            a, b, c, d = (
                Jet3({(i, j, k): co for (i, j, k, co) in mons}, n)
                for mons in (self._a0, self._b0, self._c0, self._d0)
            )
            z, w = x, y
            for _ in range(n):
                z, w = (
                    x - z * z * a.subst(z, w, zero) - w * b.subst(z, w, zero),
                    y - w * c.subst(z, w, zero) - d.subst(z, w, zero),
                )
            J = 1 + max(j for (_, j, _) in (*z.coeffs, *w.coeffs))
            K = np.zeros((n + 1, 2, J), dtype=complex)
            for comp, jet in enumerate((z, w)):
                for (i, j, _), co in jet.coeffs.items():
                    K[i, comp, j] = co
            self._inv_jet = K
        return self._inv_jet

    def _inverse_seed(self, x, y):
        """The inverse jet at 1-D arrays (x, y): one Vandermonde matmul in x
        for every power of y, then Horner in y."""
        K = self._inverse_jet()
        J = K.shape[2]
        P = np.vander(x, K.shape[0], increasing=True) @ K.reshape(K.shape[0], -1)
        P = P.reshape(x.size, 2, J)
        acc = P[:, :, J - 1]
        for j in range(J - 2, -1, -1):
            acc = acc * y[:, None] + P[:, :, j]
        return acc[:, 0], acc[:, 1]

    def _g0_inverse(self, x, y):
        """Newton solve of g0(z, w) = (x, y).

        Points with max(|x|, |y|) <= 1/min_depth are seeded with the
        inverse jet, the rest at the image point.  The outgoing ladder
        starts at depth min_depth, so all its steps are seeded by the jet,
        whose error falls like |x|^(order + 1): past the first few dozen
        steps the seed meets the residual check before any Newton update.
        """
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        near = np.maximum(np.abs(x), np.abs(y)) <= 1.0 / self.min_depth
        z, w = x.copy(), y.copy()
        z[near], w[near] = self._inverse_seed(x[near], y[near])
        f = self.family
        for _ in range(60):
            gz, gw = self._g0(z, w)
            rx, ry = gz - x, gw - y
            # tolerances are per component: y can sit many orders below x,
            # and an absolute test would leave it with O(1) relative error
            ok_x = np.abs(rx) <= 1e-15 * (1.0 + np.abs(z))
            ok_y = np.abs(ry) <= 1e-15 * (np.abs(w) + np.abs(gw) + 1e-280)
            if bool(np.all(ok_x & ok_y)):
                break
            j11, j12, j21, j22 = jacobian(f, 0.0, (z, w))
            det = j11 * j22 - j12 * j21
            z = z - (rx * j22 - j12 * ry) / det
            w = w - (j11 * ry - rx * j21) / det
        else:
            raise InverseBranchLost("inverse-germ Newton did not converge")
        # the continuing branch never steps outward; a jump to the far
        # branch of the quadratic does
        bound = 1.25 * float(np.max(np.abs(x))) + 1.0
        if np.max(np.abs(z)) > bound:
            raise InverseBranchLost("inverse branch left its contraction region")
        return z, w

    # -- petals ----------------------------------------------------------
    def petal(self, orientation: str) -> PetalSpec:
        spec = self._petals.get(orientation)
        if spec is None:
            spec = self._choose_petal(orientation)
            self._petals[orientation] = spec
        return spec

    def _choose_petal(self, orientation: str, check_steps: int = 4096) -> PetalSpec:
        """Halve r until boundary orbits stay one level up for check_steps.

        A single-step test is not enough: the tangential chart drifts by
        a factor exp(O(sum x_j^2)) along the whole orbit, which for large
        r escapes the C+1 band only after many steps.
        """
        r = min(0.25, 0.5 * self.family.domain_radius)
        golden = 0.6180339887498949
        th = 2 * np.pi * ((np.arange(200) * golden) % 1.0)
        margin = PetalSpec(orientation, 1.0, self.C + 0.9)
        for _ in range(24):
            spec = PetalSpec(orientation, r, self.C)
            sgn = -1.0 if orientation == "incoming" else 1.0
            x = sgn * r + 0.999 * r * np.exp(1j * th)
            tmag = self.C * (0.05 + 0.949 * ((np.arange(200) * 0.31) % 1.0))
            t = tmag * np.exp(1j * 7 * th)
            w = -x if orientation == "incoming" else x
            y = t * np.exp(self.eta * np.log(w))
            tight = PetalSpec(orientation, r, margin.C)
            ok = True
            try:
                for _step in range(check_steps):
                    if orientation == "incoming":
                        x, y = self._g0(x, y)
                    else:
                        x, y = self._g0_inverse(x, y)
                    if not bool(np.all(petal_contains(tight, self.eta, (x, y)))):
                        ok = False
                        break
            except InverseBranchLost:
                ok = False
            if ok:
                return spec
            r *= 0.5
        raise ValueError("could not find an invariant petal radius")

    # -- the ladder limit -------------------------------------------------
    def _limit(self, x0, y0, incoming: bool):
        """Fatou limit for petal points (no prelude); returns (W, T)."""
        x0 = np.asarray(x0, dtype=complex)
        y0 = np.asarray(y0, dtype=complex)
        sgn = -1.0 if incoming else 1.0
        X0 = sgn / x0
        S = np.zeros_like(X0)
        comp = np.zeros_like(X0)
        x = x0.copy()
        y = y0.copy()
        oma = self.one_minus_a if incoming else -self.one_minus_a
        shape = (len(self.rungs),) + X0.shape
        Xs = np.empty(shape, dtype=complex)
        ws = np.empty(shape, dtype=complex)
        ts = np.empty(shape, dtype=complex)
        k = 0
        for n in range(1, self.rungs[-1] + 1):
            if incoming:
                x1, y1 = self._g0(x, y)
                delta = self._delta(x, y, x1)
                y = y1
            else:
                z, w = self._g0_inverse(x, y)
                delta = self._delta(z, w, x)
                y = w
            t_ = S + (delta - comp)
            comp = (t_ - S) - (delta - comp)
            S = t_
            X = X0 + n + S
            x = sgn / X
            if n == self.rungs[k]:
                logX = np.log(X)
                Xs[k] = X
                # X - n formed as X0 + S: X itself carries ulp(n) ~ 1e-12
                # at the top rung, which the fit amplifies into the limit
                ws[k] = (X0 + S) - oma * logX
                yy = y if incoming else -y
                ts[k] = yy * np.exp(self.eta * logX)
                k += 1
        W, wres = asymptotic_fit(Xs, ws, self.nbasis)
        T, tres = asymptotic_fit(Xs, ts, self.nbasis)
        scale = 1.0 + np.abs(W)
        if np.any(wres > self.tail_tol * scale) or np.any(tres > self.tail_tol * scale):
            raise TailNotConverged(
                f"ladder fit residuals {max(wres.max(), tres.max()):.3e} "
                "exceed the tail tolerance"
            )
        if incoming:
            return W, T
        return -W, -T

    def _prelude(self, x, y, incoming: bool, budget: int | None):
        """Advance points (forward/backward) until petal entry and depth.

        Returns the advanced points and per-point step counts.
        """
        budget = self.basin_budget if budget is None else budget
        spec = self.petal("incoming" if incoming else "outgoing")
        # orbits only stay inside the petal one level up (C -> C+1)
        spec = PetalSpec(spec.orientation, spec.r, spec.C + 1.0)
        x = np.array(x, dtype=complex, copy=True)
        y = np.array(y, dtype=complex, copy=True)
        npre = np.zeros(x.shape, dtype=int)
        sgn = -1.0 if incoming else 1.0
        rdom = self.family.domain_radius
        for _ in range(budget + 1):
            with np.errstate(divide="ignore", invalid="ignore"):
                depth = np.where(x != 0, (sgn / np.where(x != 0, x, 1.0)).real, -np.inf)
            ok = petal_contains(spec, self.eta, (x, y)) & (depth >= self.min_depth)
            act = ~ok
            if not act.any():
                return x, y, npre
            if np.any(npre[act] >= budget):
                raise NotInBasin(
                    f"budget {budget} exhausted before petal entry"
                )
            if incoming and np.any(
                (np.abs(x[act]) > rdom) | (np.abs(y[act]) > rdom)
            ):
                raise NotInBasin("orbit left the domain before petal entry")
            if incoming:
                xa, ya = self._g0(x[act], y[act])
            else:
                xa, ya = self._g0_inverse(x[act], y[act])
            x[act] = xa
            y[act] = ya
            npre[act] += 1
        raise NotInBasin(f"budget {budget} exhausted before petal entry")

    # -- public coordinate evaluation -------------------------------------
    def incoming_batch(self, x, y, budget: int | None = None):
        """Incoming coordinate on arrays of basin points."""
        x1, y1, npre = self._prelude(x, y, True, budget)
        W, T = self._limit(x1, y1, True)
        return W - npre, T

    def outgoing_batch(self, x, y, budget: int | None = None):
        x1, y1, npre = self._prelude(x, y, False, budget)
        W, T = self._limit(x1, y1, False)
        # backward steps: Phi^o(z) = Phi^o(g^{-n} z) + (n, 0)
        return W + npre, T

    def incoming_fatou(self, z, budget: int | None = None):
        W, T = self.incoming_batch(
            np.array([z[0]], dtype=complex), np.array([z[1]], dtype=complex), budget
        )
        return complex(W[0]), complex(T[0])

    def outgoing_fatou(self, z, budget: int | None = None):
        W, T = self.outgoing_batch(
            np.array([z[0]], dtype=complex), np.array([z[1]], dtype=complex), budget
        )
        return complex(W[0]), complex(T[0])

    # -- inversion and the entire extension -------------------------------
    def _psi_o_forward(self, Xd, Y):
        """Forward estimate Psi_out(Xd, Y) ~ lim_m g0^m(seed(Xd - m, Y)).

        The seed is the asymptotic inverse of the outgoing coordinate,
        X = -1/x + (1-a) log x with y = Y x^eta.  Rung m starts at step
        rungs[-1] - m, so every rung lands after one loop of rungs[-1]
        steps; the landed points are fitted against the tail basis in the
        abscissa Xd - m.  The result is good to ~1e-9, a Newton seed only.
        """
        m = np.array(self.rungs[::-1])  # descending: the longest rung starts first
        Xm = Xd[None, :] - m[:, None]
        oma = self.one_minus_a
        x = -1.0 / Xm
        for _ in range(40):
            x = -1.0 / (Xm - oma * np.log(x))
        y = Y * np.exp(self.eta * np.log(x))
        # translation-reduced orbit X_n = X_0 + n + S_n in the chart x = -1/X
        X0 = -1.0 / x
        S = np.zeros_like(X0)
        comp = np.zeros_like(X0)
        steps = np.zeros(m.shape + (1,))
        start = self.rungs[-1] - m
        k = 0
        for n in range(self.rungs[-1]):
            while k < m.size and start[k] <= n:
                k += 1
            xa, ya = x[:k], y[:k]
            x1, y1 = self._g0(xa, ya)
            delta = self._delta(xa, ya, x1)
            Sa, ca = S[:k], comp[:k]
            t_ = Sa + (delta - ca)
            comp[:k] = (t_ - Sa) - (delta - ca)
            S[:k] = t_
            steps[:k] += 1
            x[:k] = -1.0 / (X0[:k] + steps[:k] + S[:k])
            y[:k] = y1
        px, _ = asymptotic_fit(Xm, x, self.nbasis)
        py, _ = asymptotic_fit(Xm, y, self.nbasis)
        return px, py

    def psi_o_batch(self, X, Y):
        """Extended outgoing parametrization on arrays.

        The target (X, Y) is first shifted down by an integer into the
        outgoing petal image, (Xd, Y) = (X - nsh, Y).  There Psi_out is
        estimated forward-only (``_psi_o_forward``), together with its
        Jacobian DPsi from two more estimates at (Xd + h, Y) and
        (Xd, Y + h), all in one stacked orbit loop.  A Newton polish in
        coordinate space, (x, y) -= DPsi (Phi_out(x, y) - (Xd, Y)), then
        meets the tolerance 1e-12 (1 + |Xd|).  Each Newton iteration costs
        one outgoing ladder limit: typically 2 per call, one to measure the
        estimate's residual and one to confirm the polished point.  Finally
        the point is pushed forward nsh steps under the overflow guard.

        Returns (x, y, escape_index); escape_index[i] >= 0 flags a forward
        orbit that left the guard bound at that step (value is then the
        last in-domain iterate).
        """
        X = np.asarray(X, dtype=complex)
        Y = np.asarray(Y, dtype=complex)
        shift = np.maximum(self.shift_depth, np.abs(X.imag) / 2.0 + 1.0)
        nsh = np.maximum(0, np.ceil(X.real + shift).astype(int))
        Xd = X - nsh
        npt = Xd.size
        h = _JACOBIAN_STEP
        fx, fy = self._psi_o_forward(
            np.concatenate([Xd, Xd + h, Xd]), np.concatenate([Y, Y, Y + h])
        )
        x, y = fx[:npt], fy[:npt]
        xX, yX = (fx[npt:2 * npt] - x) / h, (fy[npt:2 * npt] - y) / h
        xY, yY = (fx[2 * npt:] - x) / h, (fy[2 * npt:] - y) / h
        tol = 1e-12 * (1.0 + np.abs(Xd))
        prev = np.inf
        for it in range(_MAX_NEWTON):
            w, t = self._limit(x, y, False)
            rx = w - Xd
            ry = t - Y
            res = np.maximum(np.abs(rx), np.abs(ry))
            worst = float(res.max()) if res.size else 0.0
            if np.all(res <= tol):
                break
            if worst > 0.7 * prev and worst <= 1e-9 * float((1.0 + np.abs(Xd)).max()):
                break  # stalled at the evaluation noise floor
            if worst > 0.95 * prev and it > 6:
                raise NewtonDivergence(
                    f"psi_o inversion stalled at residual {worst:.3e}",
                    seed=None,
                    last=None,
                )
            prev = worst
            x = x - (xX * rx + xY * ry)
            y = y - (yX * rx + yY * ry)
        else:
            raise NewtonDivergence(
                f"psi_o inversion did not converge within {_MAX_NEWTON} steps",
                seed=None,
                last=None,
            )
        # forward shift with the overflow guard
        esc = np.full(X.shape, -1, dtype=int)
        ox = np.array(x, copy=True)
        oy = np.array(y, copy=True)
        nmax = int(nsh.max()) if nsh.size else 0
        for j in range(nmax):
            act = (nsh > j) & (esc < 0)
            if not act.any():
                break
            nx, ny = self._g0(ox[act], oy[act])
            idx = np.where(act)[0]
            good = (np.abs(nx) <= self.guard) & (np.abs(ny) <= self.guard)
            esc[idx[~good]] = j
            ox[idx[good]] = nx[good]
            oy[idx[good]] = ny[good]
        return ox, oy, esc

    def psi_o_extended(self, XY):
        """Scalar extension; raises DomainEscape when the shift orbit blows up."""
        ox, oy, esc = self.psi_o_batch(
            np.array([XY[0]], dtype=complex), np.array([XY[1]], dtype=complex)
        )
        if esc[0] >= 0:
            raise DomainEscape(int(esc[0]), point=(complex(ox[0]), complex(oy[0])))
        return complex(ox[0]), complex(oy[0])

    # -- basin classification ---------------------------------------------
    def classify_batch(self, x, y, budget: int = 400):
        """Vector basin classification for rendering.

        Returns (code, index): code 1 = inside, 2 = escaped, 0 = unknown.
        """
        spec = self.petal("incoming")
        rdom = self.family.domain_radius
        x = np.array(x, dtype=complex, copy=True)
        y = np.array(y, dtype=complex, copy=True)
        code = np.zeros(x.shape, dtype=np.uint8)
        index = np.zeros(x.shape, dtype=int)
        for n in range(budget + 1):
            live = code == 0
            if not live.any():
                break
            inside = np.zeros_like(live)
            inside[live] = petal_contains(
                spec, self.eta, (x[live], y[live])
            )
            code[inside] = 1
            index[inside] = n
            live = code == 0
            esc = live & ((np.abs(x) > rdom) | (np.abs(y) > rdom))
            code[esc] = 2
            index[esc] = n
            live = code == 0
            if not live.any():
                break
            nx, ny = self._g0(x[live], y[live])
            x[live] = nx
            y[live] = ny
        index[code == 0] = budget
        return code, index
