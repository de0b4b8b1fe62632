import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import implab.cli
from implab import FatouEngine, LavaursMap, model_family
from implab.cli import main
from oned import basin_code


def write_cfg(path, **extra):
    cfg = {"family": model_family(0.0).to_json()}
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    import csv

    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_ppm(path):
    data = path.read_bytes()
    lines = []
    pos = 0
    while len(lines) < 3:
        nl = data.index(b"\n", pos)
        line = data[pos:nl]
        pos = nl + 1
        if not line.startswith(b"#"):
            lines.append(line)
    assert lines[0] == b"P6"
    w, h = map(int, lines[1].split())
    assert lines[2] == b"255"
    pix = np.frombuffer(data[pos:], dtype=np.uint8).reshape(h, w, 3)
    return pix


class TestExitCodes:
    def test_validate_model_passes(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.json")
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "validate.csv")
        statuses = [r[1] for r in rows if r[1] in ("PASS", "FAIL")]
        assert statuses == ["PASS"] * 5

    def test_hypothesis_violation_exits_3(self, tmp_path):
        fam = model_family(0.0).to_json()
        fam["eta"] = {"re": 2.0, "im": 0.0}
        fam["c"] = [{"i": 1, "j": 0, "k": 0, "re": 2.0, "im": 0.0}]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"family": fam}))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        # other subcommands refuse invalid families the same way
        assert main(["fixed-points", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"family": nope')
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_block_exits_2(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["curve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestSubcommands:
    def test_fixed_points_csv(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.json", eps=0.01)
        assert main(["fixed-points", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "fixed_points.csv")
        assert len(rows) == 2
        ims = sorted(float(r[3]) for r in rows)
        assert ims == pytest.approx([-0.01, 0.01], abs=1e-13)

    def test_curve_exact_coefficients(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "germ": {
                "order": 8,
                "f1": [{"i": 1, "j": 0, "k": 0, "re": 1, "im": 0},
                       {"i": 2, "j": 0, "k": 0, "re": 1, "im": 0}],
                "f2": [{"i": 0, "j": 1, "k": 0, "re": 1, "im": 0},
                       {"i": 1, "j": 1, "k": 0, "re": 4, "im": 0},
                       {"i": 7, "j": 0, "k": 0, "re": 1, "im": 0}],
            },
            "curve_order": 6,
        }))
        assert main(["curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "curve.csv")
        zeta = {int(r[0]): float(r[1]) for r in rows}
        assert zeta[6] == pytest.approx(0.5)
        assert all(zeta[k] == 0 for k in range(6))

    def test_implode_ladder_decreases(self, tmp_path, monkeypatch):
        eval_batch = LavaursMap.eval_batch
        calls = 0

        def counted(self, x, y, budget=None):
            nonlocal calls
            calls += 1
            return eval_batch(self, x, y, budget)

        monkeypatch.setattr(LavaursMap, "eval_batch", counted)
        cfg = write_cfg(
            tmp_path / "m.json",
            samples={"kind": "segment", "a": -0.46, "b": -0.43, "count": 5, "y": 1e-7},
            n_ladder=[50, 100, 200],
        )
        assert main(["implode", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "implode.csv")
        es = [float(r[1]) for r in rows]
        assert es[2] < es[1] < es[0]
        # the Lavaurs target does not depend on the rung: one evaluation
        assert calls == 1

    def test_trace_csv_schema(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.json", n=200, x=-0.42, y=1e-8)
        assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["step", "x_re", "x_im", "y_re", "y_im", "phase",
                          "residual_channel", "residual_value"]
        assert len(rows) == 201
        assert rows[0][5] == "approach" and rows[-1][5] == "exit"

    def test_fatou_abel_column(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.json", samples={"count": 10, "seed": 2})
        assert main(["fatou", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "fatou.csv")
        assert len(rows) == 20  # both petals
        assert max(float(r[-1]) for r in rows) <= 1e-8

    def test_lavaurs_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "m.json",
            samples={"kind": "segment", "a": -0.46, "b": -0.44, "count": 4, "y": 1e-7},
        )
        assert main(["lavaurs", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "lavaurs.csv")
        assert len(rows) == 4
        assert all(int(r[-1]) == -1 for r in rows)
        _, checks = read_csv(tmp_path / "lavaurs_check.csv")
        assert float(checks[0][0]) <= 1e-6


class TestRender:
    def test_single_pixel_inside(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "m.json",
            mode="basin",
            window=[-0.051, -0.049, -0.001, 0.001],
            resolution=[1, 1],
            slice_y=0.0,
        )
        assert main(["render", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        pix = read_ppm(tmp_path / "render.ppm")
        r, g, b = (int(v) for v in pix[0, 0])
        assert b > r  # the inside palette is blue-dominant

    def test_determinism_bytes(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "m.json",
            mode="basin", window=[-0.3, 0.1, -0.2, 0.2],
            resolution=[16, 16], slice_y=1e-6, budget=200,
        )
        assert main(["render", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["render", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/render.ppm").read_bytes() == (
            tmp_path / "b/render.ppm"
        ).read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "m.json",
            mode="basin", window=[-0.3, 0.1, -0.2, 0.2],
            resolution=[16, 16], slice_y=1e-6, budget=200,
        )
        main(["render", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["render", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--threads", "4"])
        assert (tmp_path / "a/render.ppm").read_bytes() == (
            tmp_path / "b/render.ppm"
        ).read_bytes()

    def test_axis_slice_matches_1d_oracle(self, tmp_path, engine):
        w = h = 40
        window = [-0.3, 0.1, -0.2, 0.2]
        budget = 300
        cfg = write_cfg(
            tmp_path / "m.json",
            mode="basin", window=window, resolution=[w, h],
            slice_y=0.0, budget=budget,
        )
        assert main(["render", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        pix = read_ppm(tmp_path / "render.ppm")
        r_petal = engine.petal("incoming").r
        xs = window[0] + (np.arange(w) + 0.5) * (window[1] - window[0]) / w
        ys = window[3] - (np.arange(h) + 0.5) * (window[3] - window[2]) / h
        agree = 0
        for j in range(h):
            for i in range(w):
                want = basin_code(complex(xs[i], ys[j]), r_petal, budget)
                rr, gg, bb = (int(v) for v in pix[j, i])
                if (rr, gg, bb) == (128, 128, 128):
                    got = 0
                elif bb > rr:
                    got = 1
                else:
                    got = 2
                agree += got == want
        assert agree >= 0.99 * w * h

    def test_degenerate_window_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.json", mode="basin",
                        window=[0.1, 0.1, 0, 1], resolution=[4, 4])
        assert main(["render", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_tiles_do_not_change_output(self, tmp_path, monkeypatch):
        # a tile of 7 pixels divides neither width, so tiles straddle rows
        configs = [
            dict(mode="basin", window=[-0.3, 0.1, -0.2, 0.2],
                 resolution=[16, 16], slice_y=1e-6, budget=200),
            dict(mode="fatou-phase", window=[-0.3, -0.1, -0.05, 0.05],
                 resolution=[6, 6], slice_y=1e-7, budget=200),
        ]
        for i, extra in enumerate(configs):
            cfg = write_cfg(tmp_path / f"m{i}.json", **extra)
            a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert main(["render", "--config", str(cfg), "--out", str(a)]) == 0
            with monkeypatch.context() as m:
                m.setattr(implab.cli, "_RENDER_TILE", 7)
                assert main(["render", "--config", str(cfg), "--out", str(b)]) == 0
            assert (a / "render.ppm").read_bytes() == (b / "render.ppm").read_bytes()

    def test_fatou_phase_mode(self, tmp_path, monkeypatch):
        limit = FatouEngine._limit
        incoming = 0
        outgoing_side = []

        def counted(self, x, y, incoming_side):
            nonlocal incoming
            incoming += incoming_side
            return limit(self, x, y, incoming_side)

        def recorded(name):
            method = getattr(FatouEngine, name)

            def call(self, *args):
                outgoing_side.append(name)
                return method(self, *args)

            return call

        monkeypatch.setattr(FatouEngine, "_limit", counted)
        for name in ("_g0_inverse", "_inverse_jet"):
            monkeypatch.setattr(FatouEngine, name, recorded(name))
        cfg = write_cfg(
            tmp_path / "m.json",
            mode="fatou-phase", window=[-0.3, -0.1, -0.05, 0.05],
            resolution=[6, 6], slice_y=1e-7, budget=200,
        )
        assert main(["render", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        pix = read_ppm(tmp_path / "render.ppm")
        assert pix.shape == (6, 6, 3)
        # basin pixels carry a nontrivial phase pattern
        assert len({tuple(p) for p in pix.reshape(-1, 3)}) > 3
        # the whole frame fits one tile: one incoming ladder limit
        assert incoming == 1
        # incoming-only work neither inverts the germ nor builds its jet
        assert outgoing_side == []

    def test_convergence_mode(self, tmp_path, monkeypatch):
        eval_batch = LavaursMap.eval_batch
        calls = 0

        def counted(self, x, y, budget=None):
            nonlocal calls
            calls += 1
            return eval_batch(self, x, y, budget)

        monkeypatch.setattr(LavaursMap, "eval_batch", counted)
        cfg = write_cfg(
            tmp_path / "m.json",
            mode="convergence", window=[-0.47, -0.40, -0.01, 0.01],
            resolution=[5, 3], slice_y=1e-7, budget=200, n=100,
        )
        assert main(["render", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        pix = read_ppm(tmp_path / "render.ppm")
        # grayscale error map on the basin: r == g == b, strictly mid-range
        inside = pix[(pix[:, :, 0] == pix[:, :, 1]) & (pix[:, :, 1] == pix[:, :, 2])]
        assert inside.size > 0
        assert np.all(inside[:, 0] > 0) and np.all(inside[:, 0] < 255)
        # one Lavaurs target for the whole frame, not one per row
        assert calls == 1


def test_benchmark_tracer_hooks_resolve():
    # the benchmark's tracer wraps named entry points of implab and raises
    # KeyError when one of them is missing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer().installed():
        pass
