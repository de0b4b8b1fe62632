"""The three workloads: inputs made from the seed, set-up, one round.

Each workload is called the way its users call it: ``transit`` through
``LavaursMap.eval_batch`` from the library, ``implode`` and ``render``
through ``implab.cli.main`` in-process with ``--threads 1``.  A round is
the same operations every time, so the failed share of attempted
operations does not depend on how many rounds a run makes.

The seed only shifts the segments and the render window by a small
amount inside the region where every operation is known to succeed:
segments by at most 0.002, the window by at most 0.001 per axis, which
keeps every pixel's basin entry or escape below step 180 of its 400.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from implab import FatouEngine, GermFamily, LavaursMap, model_family
from implab.cli import main as cli_main
from implab.errors import ImplabError

NPOINTS = 20
SEGMENT_JITTER = 0.002
WINDOW_JITTER = 0.001
# three rungs keep a run inside the benchmark's time budget; each rung
# recomputes the Lavaurs target, which is what the workload exposes
IMPLODE_LADDER = [100, 200, 800]
RENDER_RES = 48
RENDER_BUDGET = 400


@dataclass
class TransitSet:
    x: np.ndarray
    y: np.ndarray
    sigma: complex
    q: complex


@dataclass
class Inputs:
    workload: str
    family_json: dict
    orientations: tuple
    ops_per_round: int
    transit_sets: list | None = None
    config: dict | None = None


def _segment(rng, a, b):
    d = rng.uniform(-SEGMENT_JITTER, SEGMENT_JITTER)
    return a + d, b + d


def make_inputs(workload: str, seed: int) -> Inputs:
    """Inputs of one workload.  ``transit`` and ``implode`` select the
    outgoing petal in set-up too (4096 inverse-germ steps), so that work on
    the inverse germ shows in ``setup_s``; ``eval_batch`` itself never
    consults that petal."""
    rng = np.random.default_rng(seed)
    if workload == "transit":
        a, b = _segment(rng, -0.49, -0.46)
        x = np.linspace(a, b, NPOINTS).astype(complex)
        sets = [
            TransitSet(x, np.zeros(NPOINTS, dtype=complex), 0.0, 0.0),
            TransitSet(x.copy(), np.full(NPOINTS, 1e-7, dtype=complex),
                       0.5, 0.3 + 0.1j),
        ]
        return Inputs(workload, model_family(q=0.0).to_json(),
                      ("incoming", "outgoing"), 2 * NPOINTS, transit_sets=sets)
    if workload == "implode":
        a, b = _segment(rng, -0.44, -0.40)
        fam = model_family(q=0.3 + 0.1j).to_json()
        cfg = {
            "family": fam,
            "sigma": 0.0,
            "q": {"re": 0.3, "im": 0.1},
            "N": 0,
            "n_ladder": IMPLODE_LADDER,
            "samples": {"kind": "segment", "a": a, "b": b, "count": NPOINTS, "y": 1e-7},
        }
        return Inputs(workload, fam, ("incoming", "outgoing"),
                      NPOINTS * len(IMPLODE_LADDER), config=cfg)
    if workload == "render":
        dx, dy = rng.uniform(-WINDOW_JITTER, WINDOW_JITTER, size=2)
        fam = model_family(q=0.0).to_json()
        cfg = {
            "family": fam,
            "mode": "fatou-phase",
            "window": [-0.3 + dx, 0.1 + dx, -0.2 + dy, 0.2 + dy],
            "resolution": [RENDER_RES, RENDER_RES],
            "slice_y": 0.0,
            "budget": RENDER_BUDGET,
        }
        return Inputs(workload, fam, ("incoming",), RENDER_RES * RENDER_RES, config=cfg)
    raise ValueError(f"unknown workload {workload!r}")


def setup(inp: Inputs) -> FatouEngine:
    """Load the family, build an engine and select the petals the workload uses."""
    engine = FatouEngine(GermFamily.from_json(inp.family_json))
    for orientation in inp.orientations:
        engine.petal(orientation)
    return engine


def write_config(inp: Inputs, workdir: str) -> str | None:
    """Write the CLI config of a CLI workload; returns its path."""
    if inp.config is None:
        return None
    path = os.path.join(workdir, f"{inp.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inp.config, fh)
    return path


def run_round(inp: Inputs, engine: FatouEngine, cfg_path: str | None, workdir: str):
    """One round of the workload's operations; returns its raw outputs."""
    if inp.workload == "transit":
        out = []
        for s in inp.transit_sets:
            try:
                out.append(LavaursMap(s.sigma, s.q, engine).eval_batch(s.x, s.y))
            except ImplabError as e:
                out.append(e)
        return out
    outdir = os.path.join(workdir, inp.workload)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main([inp.workload, "--config", cfg_path, "--out", outdir,
                       "--threads", "1"])
    return rc, outdir
