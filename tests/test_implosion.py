import cmath
import math

import numpy as np
import pytest

from implab import model_family
from implab.errors import BranchCutError, DomainEscape
from implab.family import epsilon_sequence
from implab.implosion import (
    ApproxCoords,
    EggbeaterRegion,
    approx_fatou,
    convergence_error,
    error_terms,
    inverse_approx_fatou,
    orbit_trace,
    region_contains,
)


def region_points(f, n, count=25, t_lo=0.55, t_hi=1.8, pad=1.2):
    """Deterministic points of the gate region via the closed-form chart."""
    eps = epsilon_sequence(0.0, 0.0, n)
    ac = ApproxCoords.for_family(f, eps)
    reg = EggbeaterRegion(n, 2.0, f.gamma)
    lo = math.pi * reg.k_n / (10 * n) * pad
    u = lo + (math.pi - 2 * lo) * (np.arange(count) + 0.5) / count
    x = -eps / np.tan(u)
    t = np.linspace(t_lo, t_hi, count) * np.exp(2j * math.pi * np.arange(count) / count)
    y = t * np.exp(0.5 * f.eta * np.log(x * x + eps * eps))
    return ac, reg, x, y


class TestApproxCoords:
    def test_w_at_origin(self):
        ac = ApproxCoords(0.1, 4.0, 0.0)
        # arctan(0) = 0 and (1/2) log(eps^2) = log eps
        want = math.pi / 0.2 + math.log(0.1)
        assert complex(ac.w(0.0)) == pytest.approx(want, abs=1e-12)

    def test_t_scaling(self):
        ac = ApproxCoords(0.1, 4.0, 0.0)
        assert complex(ac.t(0.0, 1e-4)) == pytest.approx(1.0)

    def test_outgoing_subtracts_period(self):
        ac = ApproxCoords(0.1, 4.0, 0.0)
        W, T = approx_fatou(ac, (0.0, 1e-4), "outgoing")
        assert complex(W) == pytest.approx(
            math.pi / 0.2 + math.log(0.1) - math.pi / 0.1, abs=1e-12
        )

    def test_cut_raises(self):
        ac = ApproxCoords(0.1, 4.0, 0.0)
        with pytest.raises(BranchCutError):
            ac.w(0.25j)  # x = i t eps with t = 2.5


class TestRegion:
    def test_kn_floor(self):
        assert EggbeaterRegion(1000, 2.0, 0.6).k_n == 63

    def test_mid_region_point(self, fam):
        eps = epsilon_sequence(0.0, 0.0, 1000)
        ac = ApproxCoords.for_family(fam, eps)
        reg = EggbeaterRegion(1000, 2.0, fam.gamma)
        # gate midpoint: eps * w has real part pi/2 and |t| = 1
        x, y = inverse_approx_fatou(ac, reg, ((math.pi / 2) / eps, 1.0))
        assert region_contains(reg, ac, (x, y))

    def test_t_band(self, fam):
        eps = epsilon_sequence(0.0, 0.0, 1000)
        ac = ApproxCoords.for_family(fam, eps)
        reg = EggbeaterRegion(1000, 2.0, fam.gamma)
        x = complex(-eps / math.tan(math.pi / 2))
        s = x * x + eps * eps
        y3 = 3.0 * cmath.exp(0.5 * 4 * cmath.log(s))
        assert not region_contains(reg, ac, (x, y3))


class TestErrorTerms:
    def test_decay_and_magnitude(self):
        q = 0.3 + 0.1j
        f = model_family(q)
        acc = {}
        for n in (1000, 10000):
            ac, reg, x, y = region_points(f, n)
            assert all(region_contains(reg, ac, (x[i], y[i])) for i in range(len(x)))
            A, B = error_terms(f, ac.eps, (x, y))
            acc[n] = (np.max(n * np.abs(A)), np.max(n * np.abs(B - q * ac.eps)))
        assert acc[1000][0] <= 0.75
        assert acc[10000][0] <= 0.6 * acc[1000][0]
        assert acc[10000][1] <= 0.6 * acc[1000][1]

    def test_cut_point_raises(self, fam):
        with pytest.raises(BranchCutError):
            error_terms(fam, 0.01, (0.02j, 1e-9))


class TestInverseChart:
    def test_roundtrip_100_points(self, fam):
        ac, reg, x, y = region_points(fam, 1000, count=100)
        W = ac.w(x)
        T = ac.t(x, y)
        worst = 0.0
        for i in range(100):
            xi, yi = inverse_approx_fatou(ac, reg, (complex(W[i]), complex(T[i])))
            worst = max(
                worst,
                abs(complex(ac.w(xi)) - complex(W[i])),
                abs(complex(ac.t(xi, yi)) - complex(T[i])),
            )
        assert worst <= 1e-9

    def test_unit_a_closed_form(self):
        from implab.core import Jet3
        from implab.family import GermFamily

        # a_eps(x) = 1 + ... with a = 1 kills the log term entirely
        fam1 = GermFamily(
            Jet3({(0, 0, 0): 1.0, (1, 0, 0): 1.0}, 7),
            Jet3({}, 7),
            Jet3({(1, 0, 0): 4.0}, 7),
            Jet3({}, 7),
        )
        eps = epsilon_sequence(0.0, 0.0, 500)
        ac = ApproxCoords.for_family(fam1, eps)
        reg = EggbeaterRegion(500, 2.0, fam1.gamma)
        X = (math.pi / 3) / eps
        seed = -eps / cmath.tan(eps * X)
        xr, yr = inverse_approx_fatou(ac, reg, (X, 0.0))
        assert xr == pytest.approx(seed, abs=1e-14)
        assert yr == 0

    def test_log_correction_exponent(self, fam):
        # |x + eps cot(eps X)| ~ log n / n^{2 gamma}
        devs, ns = [], (1000, 3000, 10000)
        for n in ns:
            ac, reg, x, _y = region_points(fam, n)
            X = ac.w(x)
            dev = np.max(np.abs(x + ac.eps / np.tan(ac.eps * X)))
            devs.append(dev)
        slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
        assert -slope >= 2 * fam.gamma - 0.1


class TestOrbitTrace:
    def test_phases_and_region_flags(self, engine, fam):
        # scale y so the tangential limit sits inside the (1/C, C) band;
        # the model's t-limit is exactly linear in y
        _, T = engine.incoming_fatou((-0.42, 0.02))
        y0 = 0.02 / complex(T)
        tr = orbit_trace(fam, 0.0, 0.0, 400, (-0.42, y0), N=0, engine=engine)
        assert tr.k_n == math.floor(400**0.6)
        assert tr.region_entry and tr.region_exit
        assert tr.phases[0] == "approach"
        assert tr.phases[tr.k_n + 1] == "eggbeater"
        assert tr.phases[-1] == "exit"
        assert len(tr.points) == 401
        rows = tr.rows()
        assert len(rows) == 401 and rows[-1][5] == "exit"

    def test_region_flags_false_off_the_band(self, engine, fam):
        # near the invariant line the tangential modulus is far below 1/C,
        # so the gate region (an M_C-type set) honestly excludes the orbit
        tr = orbit_trace(fam, 0.0, 0.0, 400, (-0.42, 1e-8), N=0, engine=engine)
        assert not tr.region_entry

    def test_residual_decrease_in_n(self, engine, fam):
        t200 = orbit_trace(fam, 0.0, 0.0, 200, (-0.42, 1e-8), N=0, engine=engine)
        t800 = orbit_trace(fam, 0.0, 0.0, 800, (-0.42, 1e-8), N=0, engine=engine)
        assert t800.approach_residual < t200.approach_residual
        assert t800.transit_residual < t200.transit_residual

    def test_coordinate_agreement_decreases(self, engine, fam):
        vals = [
            orbit_trace(fam, 0.0, 0.0, n, (-0.42, 1e-8), N=0, engine=engine
                        ).coordinate_agreement
            for n in (200, 400, 800)
        ]
        assert vals[2] < vals[1] < vals[0]


class TestConvergenceError:
    def test_q_twist_on_tangential_coordinate(self, engine):
        # with a t-banded sample the y-coordinate converges to the twisted
        # limit, not just the (q-independent) first coordinate
        q = 0.3 + 0.1j
        famq = model_family(q)
        x0 = -0.44
        _, Tu = engine.incoming_fatou((x0, 0.02))
        y0 = 0.02 / complex(Tu) * 0.7
        from implab.lavaurs import LavaursMap

        L = LavaursMap(0.0, q, engine)
        Lx, Ly, esc = L.eval_batch(np.array([x0], dtype=complex),
                                   np.array([y0], dtype=complex))
        assert esc[0] < 0
        rel = {}
        for n in (200, 800):
            eps = epsilon_sequence(0.0, 0.0, n)
            x = np.array([x0], dtype=complex)
            y = np.array([y0], dtype=complex)
            from implab.family import evaluate

            for _ in range(n):
                x, y = evaluate(famq, eps, (x, y))
            rel[n] = abs(y[0] - Ly[0]) / abs(Ly[0])
        assert rel[800] < 0.5 * rel[200]

    def test_escape_reported_with_index(self, engine, fam):
        with pytest.raises(DomainEscape):
            convergence_error(fam, 0.0, 0.0, [100], [(-0.05, 0.0)], N=0, engine=engine)

    def test_skip_escaped_counts(self, engine, fam):
        err, nesc = convergence_error(
            fam, 0.0, 0.0, [100], [(-0.05, 0.0), (-0.42, 0.0)], N=0,
            engine=engine, skip_escaped=True,
        )[0]
        assert nesc == 1 and math.isfinite(err)

    def test_shift_consistency(self, engine, fam):
        # E with (N, sigma) matches E with (N+1, sigma) after one extra step
        K = [(-0.44, 1e-7), (-0.41, 1e-7)]
        e0, _ = convergence_error(fam, 0.0, 0.0, [200], K, N=1, engine=engine)[0]
        from implab.family import evaluate
        from implab.lavaurs import LavaursMap

        # direct check of the functional identity backing it
        L1 = LavaursMap(-1.0, 0.0, engine)
        L0 = LavaursMap(0.0, 0.0, engine)
        for z in K:
            a = evaluate(fam, 0.0, L1(z))
            b = L0(z)
            assert abs(a[0] - b[0]) <= 1e-6
            assert abs(a[1] - b[1]) <= 1e-6
