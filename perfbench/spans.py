"""Layer spans recorded from outside the package.

A :class:`Tracer` replaces the module-level names through which the
package calls into each layer (``integrators.linalg.lu_factor``,
``cli.integrate``, ``cli._write_atomic``, ...) with wrappers that record
one span per call: invocation id, name, start, end, parent span and a
computed work count (flops, bytes or steps). Spans stay in memory until
the invocation returns; :func:`layer_metrics` then reduces them to the
per-layer metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict

from damped_midpoint import cli, diagnostics, integrators, linalg

ROOT_SPAN = "cli.main"


def _lu_factor_flops(a, *_, **__):
    m = len(a)
    return 2.0 * m ** 3 / 3.0


def _lu_solve_flops(factorization, b, *_, **__):
    m = len(factorization[0])
    cols = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
    return 2.0 * m * m * cols


def _steps(sys, z0, tau, n_steps, *_, **__):
    return n_steps


def _bytes(path, text, *_, **__):
    return len(text.encode("utf-8"))


#: (module, attribute, span name, work count). Each attribute is the name
#: the calling module looks up at call time, so patching it there traces
#: every call the package makes on the benchmark's paths.
TARGETS = (
    (linalg, "lu_factor", "linalg.lu_factor", _lu_factor_flops),
    (linalg, "lu_solve", "linalg.lu_solve", _lu_solve_flops),
    (cli, "DampedLinearSystem", "system.make_system", None),
    (integrators, "symplectic_defect", "symplectic.symplectic_defect", None),
    (cli, "factored_symplectic_defect", "symplectic.factored_symplectic_defect", None),
    (cli, "integrate", "integrators.integrate", _steps),
    (diagnostics, "propagate", "integrators.propagate", _steps),
    (cli, "energy_report", "diagnostics.energy_report", None),
    (cli, "convergence_study", "diagnostics.convergence_study", None),
    (cli, "period_estimate", "diagnostics.period_estimate", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "trajectory_csv", "cli.render", None),
    (cli, "_csv", "cli.render", None),
    (cli, "_json_text", "cli.render", None),
    (cli, "_write_atomic", "cli.write", _bytes),
)


class Tracer:
    """Records nested spans of one thread; install around traced calls only."""

    def __init__(self):
        self.invocation = 0
        self.spans: list = []  # (invocation, name, start, end, parent, work)
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.invocation, name, start, end, parent,
                                work(*args, **kwargs) if work else 0)

        return traced

    def __enter__(self):
        self.spans.clear()
        for module, attr, name, work in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self.invocation += 1
        return False


def nesting_failures(spans) -> list[str]:
    """Why the spans of one invocation do not form one tree (empty if they
    do): one invocation id, one root span named ROOT_SPAN, and every other
    span inside the interval of an earlier span, its parent."""
    out = []
    if len({span[0] for span in spans}) != 1:
        out.append(f"spans carry invocation ids {sorted({span[0] for span in spans})}")
    roots = [span[1] for span in spans if span[4] is None]
    if roots != [ROOT_SPAN]:
        out.append(f"root spans {roots}, expected [{ROOT_SPAN!r}]")
    for index, (_, name, start, end, parent, _) in enumerate(spans):
        if parent is None:
            continue
        _, parent_name, parent_start, parent_end, _, _ = spans[parent]
        if not (parent < index and parent_start <= start <= end <= parent_end):
            out.append(f"span {name} [{start!r}, {end!r}] is not inside its parent "
                       f"{parent_name} [{parent_start!r}, {parent_end!r}]")
            break
    return out


def reduce_spans(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and work.

    Self time is a span's duration minus the durations of its children;
    children of one span never overlap, since calls nest on one thread.
    """
    child_time = defaultdict(float)
    for span in spans:
        _, _, start, end, parent, _ = span
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
    for index, (_, name, start, end, _, work) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["work"] += work
    return dict(out)


#: Per-layer metric name -> (span name, field, unit). Fields: ``calls``,
#: ``self_s`` (seconds) and ``work`` (the span's computed count).
SPAN_METRICS = {
    "linalg.lu_factor.calls": ("linalg.lu_factor", "calls", "count"),
    "linalg.lu_factor.s": ("linalg.lu_factor", "self_s", "s"),
    "linalg.lu_factor.flops": ("linalg.lu_factor", "work", "flop_computed"),
    "linalg.lu_solve.calls": ("linalg.lu_solve", "calls", "count"),
    "linalg.lu_solve.s": ("linalg.lu_solve", "self_s", "s"),
    "linalg.lu_solve.flops": ("linalg.lu_solve", "work", "flop_computed"),
    "system.make_system.s": ("system.make_system", "self_s", "s"),
    "symplectic.symplectic_defect.calls": ("symplectic.symplectic_defect", "calls", "count"),
    "symplectic.symplectic_defect.s": ("symplectic.symplectic_defect", "self_s", "s"),
    "symplectic.factored_symplectic_defect.calls":
        ("symplectic.factored_symplectic_defect", "calls", "count"),
    "symplectic.factored_symplectic_defect.s":
        ("symplectic.factored_symplectic_defect", "self_s", "s"),
    "integrators.integrate.self_s": ("integrators.integrate", "self_s", "s"),
    "integrators.propagate.self_s": ("integrators.propagate", "self_s", "s"),
    "diagnostics.energy_report.calls": ("diagnostics.energy_report", "calls", "count"),
    "diagnostics.energy_report.s": ("diagnostics.energy_report", "self_s", "s"),
    "diagnostics.convergence_study.self_s": ("diagnostics.convergence_study", "self_s", "s"),
    "diagnostics.period_estimate.s": ("diagnostics.period_estimate", "self_s", "s"),
    "cli.load_config.s": ("cli.load_config", "self_s", "s"),
    "cli.render.s": ("cli.render", "self_s", "s"),
    "cli.write.s": ("cli.write", "self_s", "s"),
    "cli.write.bytes": ("cli.write", "work", "bytes"),
    "cli.self_s": (ROOT_SPAN, "self_s", "s"),
}

STEPPERS = ("integrators.integrate", "integrators.propagate")


def layer_metrics(reduced: dict) -> dict:
    """One invocation's per-layer values, keyed by metric name."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0}
    values = {name: reduced.get(span, empty)[field]
              for name, (span, field, _) in SPAN_METRICS.items()}
    steps = sum(reduced.get(s, empty)["work"] for s in STEPPERS)
    stepping = sum(reduced.get(s, empty)["s"] for s in STEPPERS)
    values["integrators.steps"] = steps
    values["integrators.us_per_step"] = 1e6 * stepping / steps if steps else 0.0
    values["trace.self_s_sum"] = sum(entry["self_s"] for entry in reduced.values())
    return values
