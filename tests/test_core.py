import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implab.core import (
    ExactComplex,
    Jet1,
    Jet3,
    jet3_div_x2e2,
    jet3_div_y,
    pow_eta,
    principal_log,
)
from implab.errors import BranchCutError, NonInvertibleJet, OrderMismatch


class TestPrincipalLog:
    def test_identity_case(self):
        assert principal_log(1.0) == 0.0

    def test_imaginary_unit(self):
        assert principal_log(1j) == pytest.approx(1j * math.pi / 2)

    def test_cut_raises(self):
        with pytest.raises(BranchCutError):
            principal_log(-2.0)
        with pytest.raises(BranchCutError):
            principal_log(0.0)

    def test_array_cut_raises(self):
        with pytest.raises(BranchCutError):
            principal_log(np.array([1.0 + 0j, -3.0 + 0j]))

    def test_exp_log_roundtrip_1000_samples(self):
        # fixed golden-angle annulus sweep, |z| in [1e-3, 1e3]
        ks = np.arange(1000)
        r = 10.0 ** (-3 + 6 * ((ks * 0.6180339887498949) % 1.0))
        th = 2 * math.pi * (((ks + 1) * 0.3819660112501051) % 1.0)
        zs = r * np.exp(1j * th)
        for z in map(complex, zs):
            if z.real <= 0 and z.imag == 0:
                continue
            back = cmath.exp(principal_log(z))
            assert abs(back - z) <= 8 * math.ulp(abs(z))

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_exp_log_roundtrip_sharp(self, re, im):
        z = complex(re, im)
        if (z.real <= 0 and z.imag == 0) or abs(z) < 1e-12:
            return
        back = cmath.exp(principal_log(z))
        # the magnitude of log|z| scales the exp's sensitivity to rounding
        amp = 4.0 + abs(math.log(abs(z)))
        assert abs(back - z) <= 4 * amp * math.ulp(abs(z))
        # the open interval (-pi, pi) closes up at float resolution for
        # points within one ulp of the cut; the cut itself raises
        assert -math.pi <= principal_log(z).imag <= math.pi


class TestPowEta:
    def test_identity_case(self):
        assert pow_eta(1.0, 4.0) == 1.0

    def test_real_positive_base(self):
        assert pow_eta(math.e, 2.0) == pytest.approx(math.e**2)

    def test_minus_i_to_the_fourth(self):
        # exp(4 log(-i)) = exp(-2 pi i) = 1, independently checkable
        assert pow_eta(-1j, 4.0) == pytest.approx(1.0)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200)
    def test_unit_and_zero_exponent(self, re, im):
        z = complex(re, im)
        if (z.real <= 0 and z.imag == 0) or abs(z) < 1e-12:
            return
        assert pow_eta(z, 1.0) == pytest.approx(z, rel=1e-14)
        assert pow_eta(z, 0.0) == 1.0


class TestJet1:
    def test_mul_difference_of_squares(self):
        one_plus = Jet1([1, 1, 0])
        one_minus = Jet1([1, -1, 0])
        assert (one_plus * one_minus).coeffs == [1, 0, -1]

    def test_compose_symbolic(self):
        # (u + u^2) o (t + t^3) = t + t^2 + t^3 mod t^4, by hand expansion
        outer = Jet1([0, 1, 1, 0])
        inner = Jet1([0, 1, 0, 1])
        assert outer.compose(inner).coeffs == [0, 1, 1, 1]

    def test_truncate_drops_high_terms(self):
        j = Jet1([0, 1, 0, 0, 0, 1])
        assert j.truncate(3).coeffs == [0, 1, 0, 0]

    def test_compose_rejects_constant_inner(self):
        with pytest.raises(ValueError):
            Jet1([0, 1, 0]).compose(Jet1([1, 1, 0]))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            Jet1([1, 0]) * Jet1([1, 0, 0])

    def test_invert_linear(self):
        f = Jet1([0, 2, 1, 3, -1])
        g = f.invert_linear()
        ident = Jet1.identity(4)
        assert all(
            abs(complex(c) - complex(i)) < 1e-14
            for c, i in zip(f.compose(g).coeffs, ident.coeffs)
        )

    def test_invert_linear_rejects_zero_slope(self):
        with pytest.raises(NonInvertibleJet):
            Jet1([0, 0, 1]).invert_linear()

    def test_recip(self):
        f = Jet1([Fraction(1), Fraction(2), Fraction(1)])
        assert (f * f.recip()).coeffs == [1, 0, 0]

    def test_recip_rejects_zero_constant(self):
        with pytest.raises(NonInvertibleJet):
            Jet1([0, 1]).recip()

    @given(st.lists(st.integers(-4, 4), min_size=6, max_size=6).map(
        lambda l: Jet1([0] + [Fraction(v) for v in l[:4]] + [0])))
    @settings(max_examples=60)
    def test_compose_associative_exact(self, a):
        b = Jet1([0, Fraction(1), Fraction(-2), 0, Fraction(1), 0])
        c = Jet1([0, Fraction(2), Fraction(1, 3), Fraction(1), 0, 0])
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.coeffs == right.coeffs


class TestExactComplex:
    def test_exact_arithmetic(self):
        z = ExactComplex(Fraction(1, 3), Fraction(1, 7))
        w = ExactComplex(2, -1)
        assert (z * w - w * z).is_zero()
        assert ((z / w) * w - z).is_zero()

    def test_demotes_with_floats(self):
        z = ExactComplex(1, 2)
        assert isinstance(z * 0.5, complex)


class TestJet3:
    def test_mul_truncates_total_degree(self):
        x = Jet3.variable("x", 2)
        y = Jet3.variable("y", 2)
        prod = (x + y) * (x - y)
        assert prod.coeff(2, 0, 0) == 1
        assert prod.coeff(0, 2, 0) == -1
        assert prod.coeff(1, 1, 0) == 0
        cube = prod * x  # total degree 3 exceeds the cap
        assert not cube.coeffs

    def test_subst(self):
        order = 4
        x, y, e = (Jet3.variable(n, order) for n in "xye")
        j = x * x + y + e * e
        out = j.subst(x + e, y * 2, e)
        assert out.coeff(2, 0, 0) == 1
        assert out.coeff(1, 0, 1) == 2
        assert out.coeff(0, 0, 2) == 2  # e^2 from x-subst plus the original
        assert out.coeff(0, 1, 0) == 2

    def test_div_y(self):
        order = 4
        x, y, _ = (Jet3.variable(n, order) for n in "xye")
        assert jet3_div_y(y * x + y * y).coeff(1, 0, 0) == 1
        with pytest.raises(ValueError):
            jet3_div_y(x)

    def test_div_x2e2_exact(self):
        order = 6
        x, y, e = (Jet3.variable(n, order) for n in "xye")
        base = x * x + e * e
        payload = Jet3({(1, 0, 0): 3, (0, 0, 1): -2, (2, 0, 1): 1}, order)
        q, rem = jet3_div_x2e2(base * payload)
        assert not rem.coeffs
        diff = q - payload
        assert not diff.coeffs

    def test_derivatives(self):
        j = Jet3({(2, 1, 0): 6}, 4)
        assert j.dx().coeff(1, 1, 0) == 12
        assert j.dy().coeff(2, 0, 0) == 6

    def test_eval_broadcasts(self):
        j = Jet3({(1, 0, 0): 2.0, (0, 0, 2): 1.0}, 4)
        xs = np.array([1.0 + 0j, 2.0 + 0j])
        out = j.eval(xs, 0.0, 0.5)
        assert out == pytest.approx(np.array([2.25, 4.25]))
