"""Spans and counts around the calls into implab's layers.

The benchmark wraps the entry points listed in ``ENTRY_POINTS`` while a
traced setup or round runs, and restores them afterwards.  Names bound
by ``from ... import`` are wrapped in the module that looks them up.
Each call opens a span; a span's self time is its duration minus the
durations of the spans opened inside it.  Calls are single-threaded in
every workload (``--threads 1``), so one stack suffices.

Spans are kept in memory and written out by :meth:`Tracer.write`.  The
innermost per-step calls (``HOT``) run hundreds of thousands of times
per round; they are aggregated but not kept as individual spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module path, attribute path).  ``FatouEngine._limit`` is
# one entry point serving both petals; its span is named by side.
ENTRY_POINTS = [
    ("fatou.petal", "implab.fatou", "FatouEngine._choose_petal"),
    ("fatou.g0_inverse", "implab.fatou", "FatouEngine._g0_inverse"),
    ("fatou.psi_o", "implab.fatou", "FatouEngine.psi_o_batch"),
    ("fatou.limit", "implab.fatou", "FatouEngine._limit"),
    ("fatou.g0", "implab.fatou", "FatouEngine._g0"),
    ("fatou.classify", "implab.fatou", "FatouEngine.classify_batch"),
    ("fatou.prelude", "implab.fatou", "FatouEngine._prelude"),
    ("extrapolate.asymptotic_fit", "implab.fatou", "asymptotic_fit"),
    ("family.jacobian", "implab.fatou", "jacobian"),
    ("family.evaluate", "implab.implosion", "evaluate"),
    ("lavaurs.eval_batch", "implab.lavaurs", "LavaursMap.eval_batch"),
    ("implosion.convergence_error", "implab.cli", "convergence_error"),
    ("cli.render_rows", "implab.cli", "_render_rows"),
    ("io_artifacts.write", "implab.cli", "write_csv"),
    ("io_artifacts.write", "implab.cli", "write_ppm"),
]
HOT = frozenset({"fatou.g0", "fatou.g0_inverse", "family.jacobian", "family.evaluate"})
LAYERS = ("family", "extrapolate", "fatou", "lavaurs", "implosion", "cli", "io_artifacts")


def _limit_name(args, kwargs):
    incoming = kwargs["incoming"] if "incoming" in kwargs else args[3]
    return "fatou.limit_in" if incoming else "fatou.limit_out"


class Tracer:
    """In-memory spans, per-name aggregates and parent-child call counts."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self._stack = []  # frames: [name, start, child_seconds, span_id]
        self._next_id = 0
        self.spans = []  # (id, parent_id, name, start, end), relative to t0
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.edges = defaultdict(int)  # (parent name, child name) -> calls
        self.edge_seconds = defaultdict(float)  # (parent name, child name) -> s
        self.extra = defaultdict(int)  # fit points, written bytes

    def enter(self, name):
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        if self._stack:
            self.edges[(self._stack[-1][0], name)] += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, sid = frame
        dur = end - start
        self.calls[name] += 1
        self.seconds[name] += dur
        self.self_seconds[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
            self.edge_seconds[(self._stack[-1][0], name)] += dur
        if name not in HOT:
            parent = self._stack[-1][3] if self._stack else 0
            self.spans.append((sid, parent, name, start - self.t0, end - self.t0))

    @contextmanager
    def span(self, name):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, name, fn):
        tracer = self
        by_side = name == "fatou.limit"
        count_points = name == "extrapolate.asymptotic_fit"

        def traced(*args, **kwargs):
            frame = tracer.enter(_limit_name(args, kwargs) if by_side else name)
            try:
                if count_points:
                    tracer.extra["fit_points"] += args[0].shape[1]
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for name, modname, attr in ENTRY_POINTS:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original))
            io = importlib.import_module("implab.io_artifacts")
            original = io.atomic_write_bytes
            saved.append((io, "atomic_write_bytes", original))

            def counted(*args, **kwargs):
                self.extra["written_bytes"] += len(args[1])
                return original(*args, **kwargs)

            io.atomic_write_bytes = counted
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def metrics(self, setup_s: float, run_s: float) -> dict:
        """Per-layer metrics of one traced setup and one traced round."""
        c, s = self.calls, self.seconds
        m = {
            "fatou.petal.s": s["fatou.petal"],
            "fatou.g0_inverse.calls": c["fatou.g0_inverse"],
            "fatou.g0_inverse.s": s["fatou.g0_inverse"],
            "fatou.g0_inverse.newton_steps": self.edges[("fatou.g0_inverse", "family.jacobian")],
            "fatou.psi_o.calls": c["fatou.psi_o"],
            "fatou.psi_o.s": s["fatou.psi_o"],
            "fatou.psi_o.limits_per_call": (
                self.edges[("fatou.psi_o", "fatou.limit_out")] / c["fatou.psi_o"]
                if c["fatou.psi_o"] else 0.0
            ),
            "fatou.limit_out.calls": c["fatou.limit_out"],
            "fatou.limit_out.s": s["fatou.limit_out"],
            "fatou.limit_in.calls": c["fatou.limit_in"],
            "fatou.limit_in.s": s["fatou.limit_in"],
            "fatou.g0.calls": c["fatou.g0"],
            "fatou.g0.s": s["fatou.g0"],
            "fatou.classify.s": s["fatou.classify"],
            "fatou.prelude.s": s["fatou.prelude"],
            "extrapolate.asymptotic_fit.calls": c["extrapolate.asymptotic_fit"],
            "extrapolate.asymptotic_fit.points": self.extra["fit_points"],
            "extrapolate.asymptotic_fit.s": s["extrapolate.asymptotic_fit"],
            "lavaurs.eval_batch.calls": c["lavaurs.eval_batch"],
            "lavaurs.eval_batch.s": s["lavaurs.eval_batch"],
            "implosion.convergence_error.s": s["implosion.convergence_error"],
            # the perturbed orbit: convergence_error's own loop plus the
            # family steps it calls, without the Lavaurs target
            "implosion.orbit.s": (
                self.self_seconds["implosion.convergence_error"]
                + self.edge_seconds[("implosion.convergence_error", "family.evaluate")]
            ),
            "family.evaluate.calls": c["family.evaluate"],
            "family.evaluate.s": s["family.evaluate"],
            "family.jacobian.calls": c["family.jacobian"],
            "cli.render_rows.calls": c["cli.render_rows"],
            "cli.render_rows.s": s["cli.render_rows"],
            "io_artifacts.write.s": s["io_artifacts.write"],
            "io_artifacts.write.bytes": self.extra["written_bytes"],
        }
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = sum(
                v for k, v in self.self_seconds.items() if k.split(".")[0] == layer
            )
        m["trace.setup_s"] = setup_s
        m["trace.run_s"] = run_s
        return m

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)

