import math

import numpy as np
import pytest

import implab.fatou
from implab import model_family
from implab.core import Jet3
from implab.errors import DomainEscape, NotInBasin
from implab.family import GermFamily, evaluate, jacobian
from implab.fatou import FatouEngine, PetalSpec, petal_contains
from implab.sampling import petal_samples


def _skew_family(q=0.3 + 0.1j):
    # a = 1, b = 0.5 x, c = (3.3+0.7i) x + q e, d = 0: y feeds back into x
    # and eta is not an integer
    order = 7
    return GermFamily(
        Jet3({(0, 0, 0): 1.0}, order),
        Jet3({(1, 0, 0): 0.5}, order),
        Jet3({(1, 0, 0): 3.3 + 0.7j, (0, 0, 1): q}, order),
        Jet3({}, order),
    )


class TestPetalContains:
    def test_center_point(self):
        p = PetalSpec("incoming", 0.05, 2.0)
        assert petal_contains(p, 4.0, (-0.05, 0.0))

    def test_outside_disk(self):
        p = PetalSpec("incoming", 0.05, 2.0)
        assert not petal_contains(p, 4.0, (0.01, 0.0))

    def test_tangential_bound(self):
        p = PetalSpec("incoming", 0.05, 2.0)
        # |y/(-x)^4| = 1/0.05^4 = 160000 >> 2
        assert not petal_contains(p, 4.0, (-0.05, 1.0))

    def test_outgoing_orientation(self):
        p = PetalSpec("outgoing", 0.05, 2.0)
        assert petal_contains(p, 4.0, (0.05, 0.0))
        assert not petal_contains(p, 4.0, (-0.05, 0.0))


class TestIncoming:
    def test_invariant_line_is_exact(self, engine):
        W, T = engine.incoming_fatou((-0.02, 0.0))
        assert T == 0

    def test_asymptotic_normalization(self, engine):
        # w(-1/t, 0) = t - log t + o(1), shrinking in t (model: a = 0)
        devs = []
        for t in (50, 100, 200, 400):
            W, _ = engine.incoming_fatou((-1.0 / t, 0.0))
            devs.append(abs(W - (t - math.log(t))))
        assert all(d1 < d0 for d0, d1 in zip(devs, devs[1:]))

    def test_abel_residual_spot(self, engine, fam):
        z = (-0.02, 1e-9)
        W0, T0 = engine.incoming_fatou(z)
        W1, T1 = engine.incoming_fatou(evaluate(fam, 0.0, z))
        assert max(abs(W1 - W0 - 1), abs(T1 - T0)) <= 1e-8

    def test_not_in_basin(self, engine):
        with pytest.raises(NotInBasin):
            engine.incoming_fatou((0.5, 0.0), budget=500)

    def test_tail_tolerance_is_enforced(self, fam):
        from implab.errors import TailNotConverged

        strict = FatouEngine(fam, tail_tol=1e-18)
        with pytest.raises(TailNotConverged):
            strict.incoming_fatou((-0.05, 1e-6))


class TestOutgoing:
    def test_invariant_line(self, engine):
        W, T = engine.outgoing_fatou((0.02, 0.0))
        assert T == 0

    def test_asymptotics(self, engine):
        # w_o(1/t, 0) = -t - log t + o(1) on the repelling side
        devs = []
        for t in (50, 100, 200, 400):
            W, _ = engine.outgoing_fatou((1.0 / t, 0.0))
            devs.append(abs(W - (-t - math.log(t))))
        assert all(d1 < d0 for d0, d1 in zip(devs, devs[1:]))
        assert devs[-1] < 1e-2

    def test_abel_residual_sampled(self, engine, fam):
        spec = engine.petal("outgoing")
        x, y = petal_samples(spec, engine.eta, 20, seed=3)
        gx, gy = evaluate(fam, 0.0, (x, y))
        W0, T0 = engine.outgoing_batch(x, y)
        W1, T1 = engine.outgoing_batch(gx, gy)
        assert np.max(np.abs(W1 - W0 - 1)) <= 1e-8
        assert np.max(np.abs(T1 - T0)) <= 1e-8


def _newton_from_image(fam, x, y):
    """Reference inverse of g0: Newton seeded at the image point."""
    z, w = x, y
    for _ in range(60):
        gz, gw = evaluate(fam, 0.0, (z, w))
        j11, j12, j21, j22 = jacobian(fam, 0.0, (z, w))
        det = j11 * j22 - j12 * j21
        rx, ry = gz - x, gw - y
        z, w = z - (rx * j22 - j12 * ry) / det, w - (j11 * ry - rx * j21) / det
    return z, w


class TestInverseGerm:
    @pytest.mark.parametrize("make", [model_family, _skew_family])
    def test_jet_seed_keeps_the_branch(self, make):
        fam = make()
        eng = FatouEngine(fam)
        k = np.arange(40)
        # |x| from 1e-5 to 0.45 across the gate |x| <= 1/min_depth, in the
        # outgoing direction, with y on the C-band y = t x^eta, |t| < C
        x = np.geomspace(1e-5, 0.45, 40) * np.exp(1j * (((k * 0.618034) % 1.0) - 0.5))
        t = eng.C * (0.1 + 0.85 * ((k * 0.381966) % 1.0)) * np.exp(2j * np.pi * k / 7)
        y = t * np.exp(fam.eta * np.log(x))
        gate = np.abs(x) <= 1.0 / eng.min_depth
        assert gate.any() and not gate.all()
        for xi, yi in zip(x, y):
            # one point per call: a batch iterates Newton until its worst
            # point converges, which would hide a seed that stops early
            z, w = eng._g0_inverse(np.array([xi]), np.array([yi]))
            gz, gw = eng._g0(z, w)
            assert abs(gz[0] - xi) <= 1e-15 * (1.0 + abs(z[0]))
            assert abs(gw[0] - yi) <= 1e-15 * (abs(w[0]) + abs(gw[0]) + 1e-280)
            zr, wr = _newton_from_image(fam, xi, yi)
            assert abs(z[0] - zr) <= 1e-14 * abs(zr)
            assert abs(w[0] - wr) <= 1e-14 * abs(wr)

    @pytest.mark.parametrize("make", [model_family, _skew_family])
    def test_outgoing_petal_radius_unchanged(self, make):
        assert FatouEngine(make()).petal("outgoing").r == 0.03125


class TestPsiO:
    def test_defining_relation(self, engine, fam):
        # a deeper shift makes the X - 1 side a separate Newton solve; with
        # the same engine both sides reduce to the same shifted target
        deeper = FatouEngine(fam, shift_depth=13.0)
        for XY in [(-9.0 + 0.4j, 0.35 - 0.2j), (2.0 + 1j, 0.5j)]:
            z1 = deeper.psi_o_extended((XY[0] - 1.0, XY[1]))
            z2 = engine.psi_o_extended(XY)
            gz1 = evaluate(fam, 0.0, z1)
            assert abs(gz1[0] - z2[0]) <= 1e-9 * max(1, abs(z2[0]))
            assert abs(gz1[1] - z2[1]) <= 1e-9 * max(1, abs(z2[1]))

    def test_at_most_three_outgoing_limits_per_call(self, engine, monkeypatch):
        limit = FatouEngine._limit
        outgoing = 0

        def counted(self, x, y, incoming):
            nonlocal outgoing
            outgoing += not incoming
            return limit(self, x, y, incoming)

        monkeypatch.setattr(FatouEngine, "_limit", counted)
        X = (-13.0 - 9.0 * (np.arange(50) + 0.5) / 50) + 1j * np.linspace(-3.5, 3.5, 50)
        Y = 0.85 * np.exp(2j * np.pi * ((np.arange(50) * 0.381966) % 1.0))
        engine.psi_o_batch(X, Y)
        assert 1 <= outgoing <= 3

    def test_outgoing_ladder_steps_rarely_need_a_jacobian(self, engine, monkeypatch):
        limit = FatouEngine._limit
        outgoing = jacobians = 0

        def counted_limit(self, x, y, incoming):
            nonlocal outgoing
            outgoing += not incoming
            return limit(self, x, y, incoming)

        def counted_jacobian(*args):
            nonlocal jacobians
            jacobians += 1
            return jacobian(*args)

        monkeypatch.setattr(FatouEngine, "_limit", counted_limit)
        monkeypatch.setattr(implab.fatou, "jacobian", counted_jacobian)
        X = (-13.0 - 9.0 * (np.arange(50) + 0.5) / 50) + 1j * np.linspace(-3.5, 3.5, 50)
        Y = 0.85 * np.exp(2j * np.pi * ((np.arange(50) * 0.381966) % 1.0))
        engine.psi_o_batch(X, Y)
        # the jet seed passes the residual check without a Newton update on
        # all but the first few dozen of each ladder's 8192 steps
        assert outgoing >= 1
        assert jacobians <= outgoing * engine.rungs[-1] / 100

    def test_invariant_line_exact(self, engine):
        x, y = engine.psi_o_extended((-12.0, 0.0))
        assert y == 0
        x, y = engine.psi_o_extended((3.0, 0.0))
        assert y == 0

    def test_roundtrip_on_image(self, engine):
        X = (-13.0 - 9.0 * (np.arange(50) + 0.5) / 50) + 1j * np.linspace(-3, 3, 50)
        Y = 0.8 * np.exp(2j * np.pi * ((np.arange(50) * 0.381966) % 1.0))
        px, py, esc = engine.psi_o_batch(X, Y)
        assert np.all(esc < 0)
        Wr, Tr = engine.outgoing_batch(px, py)
        assert np.max(np.abs(Wr - X)) <= 1e-8
        assert np.max(np.abs(Tr - Y)) <= 1e-8

    def test_domain_escape_reports_index(self, engine):
        with pytest.raises(DomainEscape) as exc:
            engine.psi_o_extended((40.0, 0.1))
        assert exc.value.index >= 0


def _classify(engine, z, budget=None):
    budget = engine.basin_budget if budget is None else budget
    code, index = engine.classify_batch(
        np.array([z[0]], dtype=complex), np.array([z[1]], dtype=complex), budget
    )
    return int(code[0]), int(index[0])


class TestBasinMembership:
    def test_inside_immediately(self, engine):
        assert _classify(engine, (-0.02, 0.0)) == (1, 0)

    def test_escape_along_repelling_axis(self, engine):
        assert _classify(engine, (0.4, 0.0))[0] == 2

    def test_escape_with_huge_tangential_part(self, engine):
        assert _classify(engine, (-0.02, 1e3))[0] == 2

    def test_unknown_on_tiny_budget(self, engine):
        assert _classify(engine, (-0.3, 1e-3), budget=0)[0] == 0


class TestPetalOrbitProperties:
    def test_forward_invariance_and_bound(self, engine, fam):
        spec = engine.petal("incoming")
        x0, y0 = petal_samples(spec, engine.eta, 100, seed=1)
        relaxed = PetalSpec("incoming", spec.r, spec.C + 1.0)
        x, y = x0.copy(), y0.copy()
        inv_cap = (np.real(-1.0 / x0) + np.arange(1, 10**4 + 1)[:, None] / 2.0)
        for n in range(1, 10**4 + 1):
            x, y = evaluate(fam, 0.0, (x, y))
            assert bool(np.all(petal_contains(relaxed, engine.eta, (x, y))))
            assert np.all(np.abs(x) <= 1.0 / inv_cap[n - 1] + 1e-15)
        # Cesaro limit at n = 10^4
        assert np.max(np.abs(-1.0 / (10**4 * x) - 1.0)) <= 0.05

    def test_one_step_expansion_exponent(self, engine, fam):
        # X1 = X + 1 + (1-a)/X + O(X^-2): the residual decays ~ X^-2
        ts = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
        x = -1.0 / ts
        y = np.zeros_like(x)
        x1, y1 = evaluate(fam, 0.0, (x, y))
        resid = np.abs(-1.0 / x1 - (ts + 1.0 + 1.0 / ts))
        slope = np.polyfit(np.log(ts), np.log(resid), 1)[0]
        assert -slope >= 1.9

    def test_translation_covariance(self, engine, fam):
        z = (-0.06, 1e-7)
        W0, T0 = engine.incoming_fatou(z)
        x, y = z
        for k in range(1, 21):
            x, y = evaluate(fam, 0.0, (x, y))
            Wk, Tk = engine.incoming_fatou((x, y))
            assert max(abs(Wk - W0 - k), abs(Tk - T0)) <= 1e-7
