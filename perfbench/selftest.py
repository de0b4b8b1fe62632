"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs each workload once at seed ``SEED``, confirms that its checks pass on the real
outputs, then hands each check a deliberately wrong value and confirms
that it fails.  Exits 1 if any check passes a wrong value or fails a
right one.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import ROOT, SCRATCH, check_outputs, import_program, pin_threads  # noqa: E402

SEED = 0


def _cases(inp, outputs, engine):
    """(label, verdict of the real or corrupted outputs, expected ok)."""
    import numpy as np

    from perfbench import checks

    def verdict(fn, *args):
        v = checks.Verdict()
        fn(*args, v)
        return v

    yield "real outputs", check_outputs(inp, outputs, engine), True
    if inp.workload == "transit":
        a, b = inp.transit_sets
        Lx, Ly, esc = outputs[0]
        yield "set (a), sigma off by 0.1", verdict(checks.check_transit_a, a.x, outputs[0], a.sigma + 0.1), False
        bad = Lx.copy()
        bad[7] += 1e-5
        yield "set (a), one point off by 1e-5", verdict(checks.check_transit_a, a.x, (bad, Ly, esc), a.sigma), False
        yield "set (b), sigma off by 0.1", verdict(checks.check_transit_b, engine, b.x, b.y, outputs[1], b.sigma + 0.1, b.q), False
        yield "set (b), q off by 0.01i", verdict(checks.check_transit_b, engine, b.x, b.y, outputs[1], b.sigma, b.q + 0.01j), False
    elif inp.workload == "implode":
        rows = checks.read_implode(outputs[1])
        ladder, npts = inp.config["n_ladder"], inp.config["samples"]["count"]
        e100 = rows[0][1]
        swapped = [rows[0], (rows[1][0], rows[2][1], 0), (rows[2][0], rows[1][1], 0)]
        yield "two rungs' E swapped", verdict(checks.check_implode, swapped, ladder, npts), False
        flat = [rows[0], (rows[1][0], 0.8 * e100, 0), (rows[2][0], 0.6 * e100, 0)]
        yield "E(800) = 0.6 E(100)", verdict(checks.check_implode, flat, ladder, npts), False
        escaped = rows[:2] + [(rows[2][0], rows[2][1], 1)]
        yield "one escape on the last rung", verdict(checks.check_implode, escaped, ladder, npts), False
    else:
        cfg = inp.config
        img = checks.read_ppm(os.path.join(outputs[1], "render.ppm"))
        r = engine.petal("incoming").r
        args = (cfg["window"], cfg["resolution"], cfg["budget"], r)
        inside = np.argwhere(img[:, :, 2] == checks.INSIDE_BLUE)
        i, j = inside[len(inside) // 2]
        for label, change in (
            ("one inside pixel painted escaped", lambda p: checks.ESCAPED_RGB),
            ("one inside pixel's R off by 3 levels", lambda p: ((int(p[0]) + 3) % 256, p[1], p[2])),
            ("one inside pixel's B off by 1", lambda p: (p[0], p[1], p[2] + 1)),
        ):
            bad = img.copy()
            bad[i, j] = change(bad[i, j])
            yield label, verdict(checks.check_render, bad, *args), False
        esc = np.argwhere(np.all(img == checks.ESCAPED_RGB, axis=2))[0]
        bad = img.copy()
        bad[tuple(esc)] = checks.UNKNOWN_RGB
        yield "one escaped pixel painted unknown", verdict(checks.check_render, bad, *args), False


def main() -> int:
    pin_threads()
    import_program()
    from perfbench import workloads

    wrong = 0
    os.makedirs(ROOT / SCRATCH, exist_ok=True)
    for name in ("transit", "implode", "render"):
        inp = workloads.make_inputs(name, SEED)
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=ROOT / SCRATCH)
        try:
            engine = workloads.setup(inp)
            outputs = workloads.run_round(inp, engine, workloads.write_config(inp, workdir), workdir)
            for label, v, expected in _cases(inp, outputs, engine):
                good = v.ok == expected
                wrong += not good
                seen = "passes" if v.ok else "fails: " + "; ".join(v.problems)
                print(f"{'ok  ' if good else 'BAD '} {name}: {label}: {seen}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{wrong} check(s) misjudged")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
