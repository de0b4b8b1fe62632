"""Branch-aware complex arithmetic and truncated power-series (jets).

Two jet flavours are used everywhere else in the package:

* ``Jet1`` -- one variable ``t``, dense coefficient list, used for formal
  curves, parameter series and coordinate changes on a line.
* ``Jet3`` -- three variables ``(x, y, e)``, sparse multi-index map with a
  total-degree cap, used for the coefficient series of germ families.

Coefficients are generic: ``complex``/``float``/``int``, ``Fraction`` or
``ExactComplex`` all work, and exact inputs stay exact through the
arithmetic (required for resonance detection in the curve solver).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import BranchCutError, NonInvertibleJet, OrderMismatch

__all__ = [
    "principal_log",
    "pow_eta",
    "ExactComplex",
    "Jet1",
    "Jet3",
    "eval_monomials",
]


# ---------------------------------------------------------------------------
# principal-branch arithmetic


def principal_log(z):
    """Principal branch of log, defined off the cut (-inf, 0].

    Raises
    ------
    BranchCutError
        If ``z`` lies on the cut (real part <= 0 and zero imaginary part).
        Calls on the cut must fail loudly: a silent wrap corrupts Fatou
        coordinates invisibly.
    """
    if isinstance(z, np.ndarray):
        if np.any((z.real <= 0.0) & (z.imag == 0.0)):
            raise BranchCutError("log argument on the cut (-inf, 0]")
        return np.log(z)
    z = complex(z)
    if z.real <= 0.0 and z.imag == 0.0:
        raise BranchCutError(f"log argument {z} on the cut (-inf, 0]")
    return cmath.log(z)


def pow_eta(z, eta):
    """``z**eta`` with the fixed convention exp(eta * principal_log(z))."""
    if isinstance(z, np.ndarray):
        return np.exp(eta * principal_log(z))
    return cmath.exp(eta * principal_log(z))


def ulp(x: float) -> float:
    return math.ulp(x)


# ---------------------------------------------------------------------------
# exact complex scalars


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not exactly representable: {v!r}")


class ExactComplex:
    """Complex number with Fraction components; arithmetic stays exact.

    Mixing with floats or complex floats demotes to ``complex``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    # -- conversions --------------------------------------------------
    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def is_zero(self):
        return self.re == 0 and self.im == 0

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ExactComplex):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactComplex(other)
        return None  # inexact: demote

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ExactComplex) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return ExactComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self)
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) == other
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


def _is_zero_coeff(c) -> bool:
    if isinstance(c, ExactComplex):
        return c.is_zero()
    return c == 0


# ---------------------------------------------------------------------------
# one-variable jets


class Jet1:
    """Truncated power series in one variable ``t``.

    ``coeffs`` has length ``order + 1``; arithmetic never reads beyond the
    truncation order, and binary operations demand equal orders.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise OrderMismatch(
                f"coefficient list of length {len(coeffs)} for order {order}"
            )
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def zero(cls, order):
        return cls([0] * (order + 1), order)

    @classmethod
    def identity(cls, order):
        c = [0] * (order + 1)
        if order >= 1:
            c[1] = 1
        return cls(c, order)

    @classmethod
    def constant(cls, value, order):
        c = [0] * (order + 1)
        c[0] = value
        return cls(c, order)

    def copy(self):
        return Jet1(list(self.coeffs), self.order)

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k <= self.order else 0

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} != {other.order}")

    def __add__(self, other):
        if not isinstance(other, Jet1):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return Jet1(out, self.order)
        self._check(other)
        return Jet1([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet1([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet1) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet1):
            return Jet1([a * other for a in self.coeffs], self.order)
        self._check(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero_coeff(a):
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if not _is_zero_coeff(b):
                    out[i + j] = out[i + j] + a * b
        return Jet1(out, n)

    __rmul__ = __mul__

    def truncate(self, order):
        c = [self[k] for k in range(order + 1)]
        return Jet1(c, order)

    def compose(self, inner: "Jet1") -> "Jet1":
        """Self(inner(t)); the inner jet must have zero constant term."""
        self._check(inner)
        if not _is_zero_coeff(inner.coeffs[0]):
            raise ValueError("inner jet must have zero constant term")
        n = self.order
        out = Jet1.constant(self.coeffs[0], n)
        p = Jet1.constant(1, n)
        for k in range(1, n + 1):
            p = p * inner
            if not _is_zero_coeff(self.coeffs[k]):
                out = out + p * self.coeffs[k]
        return out

    def recip(self) -> "Jet1":
        """1/self; needs a nonzero constant term."""
        c0 = self.coeffs[0]
        if _is_zero_coeff(c0):
            raise NonInvertibleJet("reciprocal of a jet with zero constant term")
        n = self.order
        inv0 = 1 / c0
        out = [inv0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return Jet1(out, n)

    def __truediv__(self, other):
        if isinstance(other, Jet1):
            return self * other.recip()
        return Jet1([a / other for a in self.coeffs], self.order)

    def invert_linear(self) -> "Jet1":
        """Functional inverse g with self(g(t)) = t modulo truncation."""
        if not _is_zero_coeff(self.coeffs[0]):
            raise NonInvertibleJet("inverse of a jet with nonzero constant term")
        c1 = self.coeffs[1] if self.order >= 1 else 0
        if _is_zero_coeff(c1):
            raise NonInvertibleJet("inverse of a jet with zero linear coefficient")
        n = self.order
        g = Jet1.identity(n) * (1 / c1)
        ident = Jet1.identity(n)
        dself = self.derivative()
        for _ in range(n.bit_length() + 2):
            err = self.compose(g) - ident
            if all(_is_zero_coeff(c) for c in err.coeffs):
                break
            g = g - err * dself.compose(g).recip()
        return g

    def derivative(self) -> "Jet1":
        c = [(k + 1) * self.coeffs[k + 1] for k in range(self.order)]
        return Jet1(c + [0], self.order)

    def __call__(self, t):
        """Horner evaluation; works for scalars, jets and numpy arrays."""
        numeric = isinstance(t, (float, complex, np.ndarray, np.generic))
        acc = None
        for c in reversed(self.coeffs):
            cv = complex(c) if numeric and isinstance(c, ExactComplex) else c
            acc = cv if acc is None else acc * t + cv
        return acc

    def __eq__(self, other):
        if not isinstance(other, Jet1):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"Jet1({self.coeffs!r})"


# ---------------------------------------------------------------------------
# three-variable jets


def eval_monomials(monomials, x, y, e):
    """Sum of c x^i y^j e^k over (i, j, k, c) tuples; broadcasts over arrays."""
    acc = 0
    for i, j, k, c in monomials:
        term = c
        if i:
            term = term * x**i
        if j:
            term = term * y**j
        if k:
            term = term * e**k
        acc = acc + term
    return acc


class Jet3:
    """Sparse truncated series in ``(x, y, e)`` with a total-degree cap.

    Stored as ``{(i, j, k): coeff}`` for monomials ``x^i y^j e^k`` with
    ``i + j + k <= order``.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs=None, order=8):
        self.order = order
        self.coeffs = {}
        if coeffs:
            for idx, c in dict(coeffs).items():
                i, j, k = idx
                if i + j + k > order:
                    continue
                if not _is_zero_coeff(c):
                    self.coeffs[(i, j, k)] = c

    @classmethod
    def zero(cls, order):
        return cls({}, order)

    @classmethod
    def constant(cls, value, order):
        return cls({(0, 0, 0): value}, order)

    @classmethod
    def variable(cls, name, order):
        idx = {"x": (1, 0, 0), "y": (0, 1, 0), "e": (0, 0, 1)}[name]
        return cls({idx: 1}, order)

    def coeff(self, i, j, k):
        return self.coeffs.get((i, j, k), 0)

    def copy(self):
        return Jet3(dict(self.coeffs), self.order)

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} != {other.order}")

    def __add__(self, other):
        if not isinstance(other, Jet3):
            out = dict(self.coeffs)
            out[(0, 0, 0)] = out.get((0, 0, 0), 0) + other
            return Jet3(out, self.order)
        self._check(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0) + c
        return Jet3(out, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet3({idx: -c for idx, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet3) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3({idx: c * other for idx, c in self.coeffs.items()}, self.order)
        self._check(other)
        out = {}
        n = self.order
        for (i1, j1, k1), c1 in self.coeffs.items():
            for (i2, j2, k2), c2 in other.coeffs.items():
                i, j, k = i1 + i2, j1 + j2, k1 + k2
                if i + j + k > n:
                    continue
                idx = (i, j, k)
                out[idx] = out.get(idx, 0) + c1 * c2
        return Jet3(out, n)

    __rmul__ = __mul__

    def truncate(self, order):
        return Jet3(
            {idx: c for idx, c in self.coeffs.items() if sum(idx) <= order}, order
        )

    def subst(self, sx: "Jet3", sy: "Jet3", se: "Jet3") -> "Jet3":
        """Substitute jets for the three variables (same truncation order)."""
        for s in (sx, sy, se):
            self._check(s)
        n = self.order
        # cached powers per variable
        pow_cache = {v: [Jet3.constant(1, n)] for v in range(3)}
        subs = (sx, sy, se)

        def power(v, p):
            cache = pow_cache[v]
            while len(cache) <= p:
                cache.append(cache[-1] * subs[v])
            return cache[p]

        out = Jet3.zero(n)
        for (i, j, k), c in self.coeffs.items():
            term = power(0, i) * power(1, j) * power(2, k)
            out = out + term * c
        return out

    def dx(self) -> "Jet3":
        return Jet3(
            {(i - 1, j, k): i * c for (i, j, k), c in self.coeffs.items() if i > 0},
            self.order,
        )

    def dy(self) -> "Jet3":
        return Jet3(
            {(i, j - 1, k): j * c for (i, j, k), c in self.coeffs.items() if j > 0},
            self.order,
        )

    def de(self) -> "Jet3":
        return Jet3(
            {(i, j, k - 1): k * c for (i, j, k), c in self.coeffs.items() if k > 0},
            self.order,
        )

    def monomials(self):
        """Sorted (i, j, k, complex coeff) tuples for numeric evaluation."""
        out = []
        for (i, j, k) in sorted(self.coeffs):
            out.append((i, j, k, complex(self.coeffs[(i, j, k)])))
        return out

    def eval(self, x, y, e):
        """Numeric evaluation; broadcasts over numpy arrays."""
        return eval_monomials(self.monomials(), x, y, e)

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Jet3):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return self.order == other.order and all(
            self.coeff(*k) == other.coeff(*k) for k in keys
        )

    def __repr__(self):
        return f"Jet3({self.coeffs!r}, order={self.order})"


def jet3_div_y(j: Jet3) -> Jet3:
    """Divide by y; every monomial must carry y."""
    out = {}
    for (i, jj, k), c in j.coeffs.items():
        if jj == 0:
            if _is_zero_coeff(c):
                continue
            raise ValueError("jet not divisible by y")
        out[(i, jj - 1, k)] = c
    return Jet3(out, j.order)


def jet3_div_x2e2(j: Jet3):
    """Long division by (x^2 + e^2), viewing the jet as a polynomial in x.

    Returns (quotient, remainder); the remainder is at most linear in x.
    """
    n = j.order
    # bucket by x-degree: coefficient of x^i is a map (j,k) -> c
    maxi = max((i for (i, _, _) in j.coeffs), default=0)
    buckets = [dict() for _ in range(maxi + 1)]
    for (i, jj, k), c in j.coeffs.items():
        buckets[i][(jj, k)] = c
    quot = [dict() for _ in range(maxi + 1)]
    for i in range(maxi, 1, -1):
        q = buckets[i]
        if not q:
            continue
        quot[i - 2] = dict(q)
        # subtract q * (x^2 + e^2): x^2-part cancels bucket i by construction
        tgt = buckets[i - 2]
        for (jj, k), c in q.items():
            tgt[(jj, k + 2)] = tgt.get((jj, k + 2), 0) - c
        buckets[i] = {}
    qcoeffs = {}
    for i, b in enumerate(quot):
        for (jj, k), c in b.items():
            if i + jj + k <= n and not _is_zero_coeff(c):
                qcoeffs[(i, jj, k)] = c
    rcoeffs = {}
    for i in (0, 1):
        for (jj, k), c in buckets[i].items():
            if not _is_zero_coeff(c):
                rcoeffs[(i, jj, k)] = c
    return Jet3(qcoeffs, n), Jet3(rcoeffs, n)

