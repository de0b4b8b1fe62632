"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, each printing a PASS/FAIL line.

Reference family throughout: g_eps(x, y) = (x + (x^2 + eps^2),
y (1 + 4x + q eps)) with eta = 4, gamma = 0.6, domain bidisk radius 0.5.

Criterion 7 is implemented exactly as stated and is expected to fail;
the analysis: the incoming coordinate of the model at x = -0.05 is
w ~ -1/x + log(-x) ~ 17.03, so with sigma = N = 0 the limit map must be
evaluated at translation coordinate ~17.  The extension shifts that
argument below -12 (>= 19 integer steps) and then iterates the germ
forward the same number of steps from a seed near x ~ 0.1; the orbit
passes x ~ 1 after about ten steps and roughly squares on each step
after, so the true values are around 10^2500 -- three orders of
magnitude of digits beyond IEEE doubles (max ~1.8e308).  The long
iterates g_{eps_n}^n blow up the same way (the statement being verified
is true; it just cannot be measured in this arithmetic).  The harness
reports DomainEscape for every compact point and the criterion fails
honestly rather than being weakened.  The same harness run on a
feasible compact (the module-level convergence invariant, which does
not pin the compact) is included right after it and passes.
"""

import json
import math
import time

import numpy as np

from implab import FatouEngine, LavaursMap, model_family
from implab.core import ExactComplex, Jet1, Jet3
from implab.errors import ResonanceObstruction
from implab.family import (
    epsilon_sequence,
    estimate_q_beta,
    evaluate,
    fixed_points,
)
from implab.implosion import (
    ApproxCoords,
    EggbeaterRegion,
    convergence_error,
    error_terms,
    perturbed_orbit,
    region_contains,
)
from implab.normal_form import CharacteristicDirection, GermJet, formal_invariant_curve
from implab.sampling import petal_samples
from implab.cli import main as cli_main
from oned import lavaurs_1d


def record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num:02d} [{name}]: {status}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_abel_equations(fam):
    t0 = time.time()
    engine = FatouEngine(fam)
    worst = 0.0
    for orientation in ("incoming", "outgoing"):
        spec = engine.petal(orientation)
        x, y = petal_samples(spec, engine.eta, 100, seed=0)
        gx, gy = evaluate(fam, 0.0, (x, y))
        side = engine.incoming_batch if orientation == "incoming" else engine.outgoing_batch
        W0, T0 = side(x, y)
        W1, T1 = side(gx, gy)
        worst = max(
            worst,
            float(np.max(np.abs(W1 - W0 - 1.0))),
            float(np.max(np.abs(T1 - T0))),
        )
    elapsed = time.time() - t0
    record(
        1, "Abel equations", worst <= 1e-8 and elapsed <= 30.0,
        f"sup residual {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_02_petal_orbit_bounds(engine, fam):
    spec = engine.petal("incoming")
    x0, y0 = petal_samples(spec, engine.eta, 100, seed=1)
    x, y = x0.copy(), y0.copy()
    base = np.real(-1.0 / x0)
    violations = 0
    for n in range(1, 10**4 + 1):
        x, y = evaluate(fam, 0.0, (x, y))
        violations += int(np.sum(np.abs(x) > 1.0 / (base + n / 2.0) + 1e-15))
    cesaro = float(np.max(np.abs(-1.0 / (10**4 * x) - 1.0)))
    record(
        2, "petal orbit bounds", violations == 0 and cesaro <= 0.05,
        f"{violations} bound violations, Cesaro deviation {cesaro:.3f}",
    )


def test_criterion_03_fatou_asymptotics(engine):
    devs = []
    for t in (50, 100, 200, 400):
        W, _ = engine.incoming_fatou((-1.0 / t, 0.0))
        devs.append(abs(W - (t - math.log(t))))
    ok = all(d1 < d0 for d0, d1 in zip(devs, devs[1:]))
    record(3, "Fatou asymptotics", ok, "deviations " + ", ".join(f"{d:.2e}" for d in devs))


def test_criterion_04_inversion(engine):
    X = (-13.0 - 9.0 * (np.arange(50) + 0.5) / 50) + 1j * np.linspace(-3.5, 3.5, 50)
    Y = 0.85 * np.exp(2j * math.pi * ((np.arange(50) * 0.381966) % 1.0))
    px, py, esc = engine.psi_o_batch(X, Y)
    Wr, Tr = engine.outgoing_batch(px, py)
    sup = max(float(np.max(np.abs(Wr - X))), float(np.max(np.abs(Tr - Y))))
    axis = max(
        abs(engine.psi_o_extended((-15.0, 0.0))[1]),
        abs(engine.psi_o_extended((4.0, 0.0))[1]),
    )
    record(
        4, "inversion round trip",
        bool(np.all(esc < 0)) and sup <= 1e-8 and axis <= 1e-12,
        f"roundtrip sup {sup:.2e}, axis deviation {axis:.1e}",
    )


def test_criterion_05_lavaurs_functional_equations(engine, fam):
    # L o g and L_{sigma+1} come from an engine with deeper shift and prelude
    # depths: on one engine they reduce to the same shifted Psi_out target
    # as g o L, and the residual would vanish by construction
    deeper = FatouEngine(fam, shift_depth=13.0, min_depth=9.0)
    xs = np.linspace(-0.49, -0.465, 50).astype(complex)
    ys = np.full(50, 1e-7, dtype=complex)
    gx, gy = evaluate(fam, 0.0, (xs, ys))
    worst = 0.0
    for sigma, q in [(0.0, 0.0), (0.5, 0.3 + 0.1j)]:
        Lx, Ly, e0 = LavaursMap(sigma, q, engine).eval_batch(xs, ys)
        gLx, gLy = evaluate(fam, 0.0, (Lx, Ly))
        Lgx, Lgy, e1 = LavaursMap(sigma, q, deeper).eval_batch(gx, gy)
        L1x, L1y, e2 = LavaursMap(sigma + 1.0, q, deeper).eval_batch(xs, ys)
        assert np.all(e0 < 0) and np.all(e1 < 0) and np.all(e2 < 0)
        worst = max(
            worst,
            float(np.max(np.abs(gLx - Lgx))),
            float(np.max(np.abs(gLy - Lgy))),
            float(np.max(np.abs(gLx - L1x))),
            float(np.max(np.abs(gLy - L1y))),
        )
    record(5, "Lavaurs functional equations", worst <= 1e-6, f"sup {worst:.2e}")


def test_criterion_06_one_d_oracle(engine):
    xs = np.linspace(-0.49, -0.46, 20)
    L = LavaursMap(0.0, 0.0, engine)
    Lx, Ly, esc = L.eval_batch(xs.astype(complex), np.zeros(20, dtype=complex))
    assert np.all(esc < 0)
    worst = 0.0
    for i, x0 in enumerate(xs):
        want = lavaurs_1d(complex(x0), 0.0)
        worst = max(worst, abs(complex(Lx[i]) - want))
    record(6, "1-D oracle equivalence", worst <= 1e-6, f"sup first-coordinate gap {worst:.2e}")


def _ladder(fam, q, K, engine):
    ns = (50, 100, 200, 800)
    return dict(zip(ns, convergence_error(fam, 0.0, q, ns, K, N=0, engine=engine,
                                          skip_escaped=True)))


def test_criterion_07_long_iterates_pinned_compact(engine):
    """Exactly as stated: sigma=0, N=0, K = 20 points near (-0.05, |y|<=1e-6).

    Infeasible in IEEE doubles: the limit map's values on this compact are
    around 10^2500.  Kept faithful; the module docstring has the analysis.
    """
    t0 = time.time()
    K = [
        (complex(-0.05 + 0.004 * math.cos(2 * math.pi * i / 20),
                 0.004 * math.sin(2 * math.pi * i / 20)), 1e-7 + 0j)
        for i in range(20)
    ]
    chains = []
    for q in (0.0, 0.3 + 0.1j):
        fam_q = model_family(q)
        res = _ladder(fam_q, q, K, engine)
        finite = {n: e for n, (e, nesc) in res.items() if not math.isnan(e)}
        escaped = {n: nesc for n, (_, nesc) in res.items()}
        ok = (
            len(finite) == 4
            and finite[800] < finite[200] < finite[50]
            and finite[800] <= finite[100] / 2
        )
        chains.append((q, ok, escaped))
    elapsed = time.time() - t0
    ok_all = all(c[1] for c in chains) and elapsed <= 600.0
    detail = "; ".join(
        f"q={q}: " + ("chain holds" if ok else f"every point escaped ({esc})")
        for q, ok, esc in chains
    )
    record(7, "long-iterate limit on the pinned compact", ok_all,
           detail + " — values ~1e2500 exceed IEEE doubles; see the module docstring")


def test_long_iterate_convergence_feasible_compact(engine):
    """The same harness on a feasible compact (the module-level convergence
    invariant does not pin one): E(n) decreasing, E(800) <= E(100)/2,
    both q values.

    The compact sits at y = 1e-7, where E is set by the x-coordinate, which
    the model's q does not touch.  The same chain is therefore also asserted
    on the relative tangential error sup |o_y - L_y| / |L_y|, which carries
    the q-twist: against the other q's target it stalls instead.
    """
    t0 = time.time()
    K = [(-0.44 + 0.04 * i / 19, 1e-7) for i in range(20)]
    x = np.array([complex(p[0]) for p in K])
    y = np.array([complex(p[1]) for p in K])
    ns = (50, 100, 200, 800)
    details = []
    for q in (0.0, 0.3 + 0.1j):
        fam_q = model_family(q)
        # one Lavaurs target per q, then one perturbed-orbit pass per rung,
        # as convergence_error does
        Lx, Ly, escL = LavaursMap(0.0, q, engine).eval_batch(x, y)
        assert np.all(escL < 0)
        E, Ey = {}, {}
        for n in ns:
            ox, oy, esc = perturbed_orbit(
                fam_q, epsilon_sequence(0.0, 0.0, n), x, y, n, engine.guard
            )
            assert np.all(esc < 0)
            E[n] = float(np.max(np.maximum(np.abs(ox - Lx), np.abs(oy - Ly))))
            Ey[n] = float(np.max(np.abs(oy - Ly) / np.abs(Ly)))
        for err in (E, Ey):
            assert err[800] < err[200] < err[100] < err[50]
            assert err[800] <= err[100] / 2
        details.append(f"q={q}: E(50)={E[50]:.3g} E(800)={E[800]:.3g} "
                       f"Ey(50)={Ey[50]:.3g} Ey(800)={Ey[800]:.3g}")
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    print("\nlong-iterate harness on a feasible compact: " + "; ".join(details)
          + f" ({elapsed:.0f}s)")


def test_criterion_08_error_term_decay():
    q = 0.3 + 0.1j
    fam_q = model_family(q)
    acc = {}
    for n in (1000, 10000):
        eps = epsilon_sequence(0.0, 0.0, n)
        ac = ApproxCoords.for_family(fam_q, eps)
        reg = EggbeaterRegion(n, 2.0, fam_q.gamma)
        lo = math.pi * reg.k_n / (10 * n) * 1.2
        u = lo + (math.pi - 2 * lo) * (np.arange(25) + 0.5) / 25
        x = -eps / np.tan(u)
        t = np.linspace(0.55, 1.8, 25) * np.exp(2j * math.pi * np.arange(25) / 25)
        y = t * np.exp(0.5 * fam_q.eta * np.log(x * x + eps * eps))
        assert all(region_contains(reg, ac, (x[i], y[i])) for i in range(25))
        A, B = error_terms(fam_q, eps, (x, y))
        acc[n] = (float(np.max(n * np.abs(A))),
                  float(np.max(n * np.abs(B - q * eps))))
    fa = acc[10000][0] / acc[1000][0]
    fb = acc[10000][1] / acc[1000][1]
    record(8, "error-term decay", fa <= 0.6 and fb <= 0.6,
           f"n|A| factor {fa:.3f}, n|B - q eps| factor {fb:.3f}")


def test_criterion_09_eigenvalue_q_pipeline():
    fam_q = model_family(0.25)
    dev_loc = dev_rho = 0.0
    for e in (1e-2, 1e-3, 1e-4):
        recs = fixed_points(fam_q, e)
        assert len(recs) == 2
        for r in recs:
            s = 1.0 if r.location[0].imag > 0 else -1.0
            dev_loc = max(dev_loc, abs(r.location[0] - 1j * s * e), abs(r.location[1]))
            dev_rho = max(dev_rho, abs(r.rho_t - (1 + 2j * s * e)))
    q_hat, beta_hat, sigma0 = estimate_q_beta(fam_q, [1e-2, 1e-3, 1e-4])
    ok_model = dev_loc <= 1e-13 and dev_rho <= 1e-13 and abs(q_hat - 0.25) <= 1e-9 \
        and abs(sigma0) <= 1e-8
    cubic = model_family(0.25)
    fam_c = type(cubic)(
        Jet3({(0, 0, 0): 1.0, (1, 0, 0): 1.0}, 7),
        cubic.b_series, cubic.c_series, cubic.d_series,
    )
    q2, b2, s2 = estimate_q_beta(fam_c, [1e-2, 1e-3, 1e-4])
    ok_cubic = abs(b2 - (-2.0)) <= 1e-6 and abs(s2 - (-1j * math.pi)) <= 1e-5
    record(
        9, "eigenvalue/q pipeline", ok_model and ok_cubic,
        f"loc dev {dev_loc:.1e}, rho_t dev {dev_rho:.1e}, |q-hat - q| "
        f"{abs(q_hat - 0.25):.1e}, beta-hat err {abs(b2 + 2):.1e}, "
        f"sigma0-hat err {abs(s2 + 1j * math.pi):.1e}",
    )


def test_criterion_10_formal_curve_solver():
    one = ExactComplex(1)
    four = ExactComplex(4)
    germ = GermJet(
        Jet3({(1, 0, 0): one, (2, 0, 0): one}, 8),
        Jet3({(0, 1, 0): one, (1, 1, 0): four, (7, 0, 0): one}, 8),
    )
    direction = CharacteristicDirection((1.0 + 0j, 0j), 1.0 + 0j, 3.0)
    m = 4
    zeta, h = formal_invariant_curve(germ, direction, m + 2)
    from implab.normal_form import _eval_at_curve

    W = m + 3
    ident = Jet1.identity(W)
    zw = Jet1([zeta[k] for k in range(W + 1)], W)
    resid = _eval_at_curve(germ.f2, ident, zw) - zw.compose(_eval_at_curve(germ.f1, ident, zw))
    exact_zero = all(
        (c.is_zero() if isinstance(c, ExactComplex) else c == 0)
        for c in resid.coeffs[: m + 3]
    )
    resonant = GermJet(
        Jet3({(1, 0, 0): one, (2, 0, 0): one}, 8),
        Jet3({(0, 1, 0): one, (1, 1, 0): four, (5, 0, 0): one}, 8),
    )
    try:
        formal_invariant_curve(resonant, direction, m + 2)
        raised = False
    except ResonanceObstruction:
        raised = True
    record(
        10, "formal curve solver", exact_zero and raised,
        "residual exactly zero through order m+2; obstructed case raises",
    )


def test_criterion_11_cli_determinism(tmp_path, fam):
    base = {"family": fam.to_json()}
    configs = {
        "validate": {},
        "fixed-points": {"eps": 0.01},
        "fatou": {"samples": {"count": 6, "seed": 2}},
        "lavaurs": {"samples": {"kind": "segment", "a": -0.46, "b": -0.44,
                                "count": 3, "y": 1e-7}},
        "implode": {"samples": {"kind": "segment", "a": -0.46, "b": -0.44,
                                "count": 3, "y": 1e-7}, "n_ladder": [50, 100]},
        "trace": {"n": 150, "x": -0.42, "y": 1e-8},
        "curve": {
            "germ": {
                "order": 8,
                "f1": [{"i": 1, "j": 0, "k": 0, "re": 1, "im": 0},
                       {"i": 2, "j": 0, "k": 0, "re": 1, "im": 0}],
                "f2": [{"i": 0, "j": 1, "k": 0, "re": 1, "im": 0},
                       {"i": 1, "j": 1, "k": 0, "re": 4, "im": 0},
                       {"i": 7, "j": 0, "k": 0, "re": 1, "im": 0}],
            },
            "curve_order": 6,
        },
        "render": {"mode": "basin", "window": [-0.3, 0.1, -0.2, 0.2],
                   "resolution": [12, 12], "slice_y": 1e-6, "budget": 150},
    }
    mismatches = []
    for sub, extra in configs.items():
        cfg = dict(base)
        cfg.update(extra)
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}-{tag}"
            rc = cli_main([sub, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0, f"{sub} exited {rc}"
            outs.append(out)
        for f1 in sorted(outs[0].iterdir()):
            f2 = outs[1] / f1.name
            if f1.read_bytes() != f2.read_bytes():
                mismatches.append(f"{sub}/{f1.name}")
    record(
        11, "CLI determinism", not mismatches,
        "all artifacts byte-identical" if not mismatches else f"differs: {mismatches}",
    )
