"""Benchmark entry point.

    python3 perfbench/run.py --workload {transit,implode,render} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` there and nowhere else.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

With ``--trace 0`` rounds of the workload run while another round is
expected to end within ``--seconds`` (at least one round).  Before each
round and after the last one, the set-up is made at least ``SETUP_REPS``
times and for at least ``SETUP_SECONDS``, so that the set-ups sample the
machine over the whole run and not only at its start.  The medians of
the set-ups and of the rounds are reported.  With ``--trace 1`` one
set-up and one round run with every layer entry point wrapped, and the
spans go to ``.perfbench/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("transit", "implode", "render")
SETUP_REPS = 3  # at least this many set-ups in each batch ...
SETUP_SECONDS = 1.5  # ... and at least this long per batch
SCRATCH = ".perfbench"


def pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    """Put the checkout's src/ first and refuse any other implab."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import implab

    if Path(implab.__file__).resolve().parent != src / "implab":
        raise ImportError(f"implab imported from {implab.__file__}, not {src}")


def check_outputs(inp, outputs, engine):
    """Run the workload's checks on one round's outputs; returns a Verdict."""
    from implab.errors import ImplabError

    from perfbench import checks

    v = checks.Verdict()
    try:
        if inp.workload == "transit":
            a, b = inp.transit_sets
            checks.check_transit_a(a.x, outputs[0], a.sigma, v)
            checks.check_transit_b(engine, b.x, b.y, outputs[1], b.sigma, b.q, v)
        elif inp.workload == "implode":
            rc, outdir = outputs
            if rc != 0:
                v.fail(f"implode exited {rc}")
            rows = checks.read_implode(outdir)
            checks.check_implode(rows, inp.config["n_ladder"], inp.config["samples"]["count"], v)
        else:
            rc, outdir = outputs
            if rc != 0:
                v.fail(f"render exited {rc}")
            cfg = inp.config
            img = checks.read_ppm(os.path.join(outdir, "render.ppm"))
            checks.check_render(img, cfg["window"], cfg["resolution"], cfg["budget"],
                                engine.petal("incoming").r, v)
    except (OSError, ValueError, KeyError, ImplabError) as e:
        v.fail(f"check could not run: {type(e).__name__}: {e}")
    return v


def setup_batch(inp, setups: list):
    """Set up ``SETUP_REPS`` times or more, appending each time to ``setups``;
    returns the last engine."""
    from perfbench import workloads

    first = len(setups)
    while len(setups) - first < SETUP_REPS or sum(setups[first:]) < SETUP_SECONDS:
        t = time.perf_counter()
        engine = workloads.setup(inp)
        setups.append(time.perf_counter() - t)
    return engine


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import workloads
    from perfbench.tracing import Tracer

    inp = workloads.make_inputs(workload, seed)
    os.makedirs(ROOT / SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / SCRATCH)
    try:
        cfg_path = workloads.write_config(inp, workdir)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                t = time.perf_counter()
                with tracer.span("bench.setup"):
                    engine = workloads.setup(inp)
                setup_s = time.perf_counter() - t
                t = time.perf_counter()
                with tracer.span("bench.round"):
                    outputs = workloads.run_round(inp, engine, cfg_path, workdir)
                run_s = time.perf_counter() - t
            rounds = 1
        else:
            setups, times = [], []
            while True:
                engine = setup_batch(inp, setups)
                t = time.perf_counter()
                outputs = workloads.run_round(inp, engine, cfg_path, workdir)
                times.append(time.perf_counter() - t)
                # stop before a round that would end past the measuring time
                if sum(times) + statistics.median(times) > seconds:
                    break
            setup_batch(inp, setups)
            rounds = len(times)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdict = check_outputs(inp, outputs, engine)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in verdict.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    if trace:
        tracer.write(str(ROOT / SCRATCH / f"trace-{workload}-seed{seed}.json"))
        metrics = tracer.metrics(setup_s, run_s)
        for name in ("lavaurs.oracle_gap", "lavaurs.roundtrip_sup",
                     "implosion.e800_over_e100", "render.oracle_gap"):
            metrics[name] = verdict.figures.get(name, 0.0)
        units = _per_layer_units()
        out = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        out = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    # rounds repeat the same operations, so each fails the same ones
    return {
        "correct": verdict.ok,
        "attempted": inp.ops_per_round * rounds,
        "failed": verdict.failed * rounds,
        "metrics": out,
    }


def _per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    pin_threads()
    try:
        import_program()
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
