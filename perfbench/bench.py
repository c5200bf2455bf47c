"""Closed-loop measurement of one workload through ``cli.main``.

One client, one process, no extra threads: each invocation starts when the
previous one has returned and its outputs have been checked. Every
invocation writes under a fresh temporary prefix that is removed after
the check. Set-up time and peak memory come from fresh child processes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from damped_midpoint import cli

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
PROBE = Path(__file__).resolve().parent / "probe.py"

SETUP_PROBES = 15
RSS_PROBES = 1  # peak RSS of one program repeats to within 0.2%
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # wall_s is reported with the highest percentile that
                  # has this many samples beyond it


class Run:
    """State of one benchmark run: inputs, expected digest and the ledger
    of attempted and failed operations."""

    def __init__(self, workload: workloads.Workload, seed: int, short: bool,
                 scratch: str):
        self.workload = workload
        self.size = workload.short_size if short else workload.size
        self.rss_size = workload.short_size if short else workload.rss_size
        self.scratch = scratch
        self.config = workloads.write_config(workload, seed, scratch, self.size)
        # Pinned digests, by size, cover the bundled configurations and the
        # default seed; otherwise the first CSV at a size pins the rest.
        pinned = workload.config is not None or seed == workloads.DEFAULT_SEED
        self.digests = {size: digest for (name, size), digest in workloads.DIGESTS.items()
                        if pinned and name == workload.name}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.ktilde_steps = 0
        self.singular_steps = 0

    def record(self, failures: list[str], facts: dict | None = None,
               size: int | None = None):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.extend(failures[: max(0, 5 - len(self.reasons))])
        if facts:
            self.digests.setdefault(size, facts["digest"])
            self.ktilde_steps += facts["ktilde_steps"]
            self.singular_steps += facts["singular_steps"]

    def check_certificate(self):
        """The workload's system must certify monotone energy decay."""
        certified = cli.load_config(self.config).system.monotone_energy_certified
        self.record([] if certified else ["monotone_energy_certified is false"])

    def _outcome(self, prefix: str, size: int, rc, error: str | None, stderr: str):
        """(failures, facts) of one finished ``cli.main`` call at ``size``."""
        if error is not None:
            return [error], None
        if rc != 0:
            return [f"exit status {rc}: {stderr.strip()}"], None
        return workloads.check_outputs(self.workload, prefix, self.digests.get(size), size)

    def invoke(self, tracer: spans.Tracer | None = None):
        """One timed ``cli.main`` call. Returns (wall seconds, layer values);
        the layer values are None when untraced."""
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        prefix = os.path.join(out_dir, "out")
        argv = self.workload.argv(self.config, prefix, self.size)
        main = tracer.wrap(spans.ROOT_SPAN, cli.main) if tracer else cli.main
        sink_out, sink_err = io.StringIO(), io.StringIO()
        rc = error = None
        gc.collect()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err), \
                (tracer or contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        try:
            failures, facts = self._outcome(prefix, self.size, rc, error,
                                            sink_err.getvalue())
        finally:
            shutil.rmtree(out_dir)
        values = None
        if tracer is not None:
            failures += spans.nesting_failures(tracer.spans)
            values = spans.layer_metrics(spans.reduce_spans(tracer.spans))
            if values["trace.self_s_sum"] > wall:
                failures.append(f"span self times {values['trace.self_s_sum']!r} "
                                f"exceed traced wall {wall!r}")
        self.record(failures, facts, self.size)
        return wall, values

    def probe(self, mode: str, arg: str) -> dict | None:
        """Run ``probe.py`` in a fresh interpreter; None (and a recorded
        failure) when it does not report."""
        try:
            proc = subprocess.run([sys.executable, str(PROBE), mode, str(SRC), arg],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record([f"{mode} probe timed out"])
            return None
        if proc.returncode != 0:
            self.record([f"{mode} probe exit {proc.returncode}: {proc.stderr.strip()}"])
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_samples(self, count: int) -> list[tuple[float, float]]:
        """(raw, calibrated) set-up seconds of ``count`` fresh processes."""
        samples = []
        # The first probe fills the bytecode and file caches; it is not timed.
        for i in range(count + 1):
            result = self.probe("setup", self.config)
            if result is not None:
                self.record([])
                if i:
                    raw = result["setup_s"]
                    samples.append((raw, raw * reference.REF_S / result["reference_s"]))
        return samples

    def rss_samples(self, count: int) -> list[float]:
        """Peak RSS of ``count`` fresh processes, each running one
        invocation at the workload's ``rss_size``."""
        samples = []
        for _ in range(count):
            out_dir = tempfile.mkdtemp(dir=self.scratch)
            prefix = os.path.join(out_dir, "out")
            try:
                result = self.probe("run", json.dumps(
                    self.workload.argv(self.config, prefix, self.rss_size)))
                if result is not None:
                    self.record(*self._outcome(prefix, self.rss_size, result["rc"], None, ""),
                                self.rss_size)
                    samples.append(result["peak_rss_mib"])
            finally:
                shutil.rmtree(out_dir)
        return samples


def _tail(samples: list[float]) -> str:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    rank = len(samples) - TAIL_BEYOND
    if rank < 1:
        return f"no percentile has {TAIL_BEYOND} samples beyond it"
    return (f"p{100 * rank / len(samples):.3g} {sorted(samples)[rank - 1]:.6g} s "
            f"with {TAIL_BEYOND} beyond it")


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def _timed_loop(run: Run, seconds: float):
    """Untraced invocations until ``seconds`` have passed.

    The reference kernel runs between invocations, and each wall time is
    also calibrated by the geometric mean of the kernel times just before
    and just after it.
    """
    run.invoke()  # warm-up: lazy imports, allocator and caches
    walls, calibrated = [], []
    before = reference.timed()
    deadline = time.perf_counter() + seconds
    while True:
        wall = run.invoke()[0]
        after = reference.timed()
        walls.append(wall)
        calibrated.append(wall * reference.REF_S / math.sqrt(before * after))
        before = after
        if time.perf_counter() >= deadline:
            return walls, calibrated


def _traced_loop(run: Run, seconds: float):
    """Untraced and traced invocations, alternating so that both see the
    same conditions, until ``seconds`` have passed."""
    tracer = spans.Tracer()
    run.invoke()
    walls, traced_walls, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        walls.append(run.invoke()[0])
        wall, values = run.invoke(tracer)
        traced_walls.append(wall)
        layers.append(values)
        if time.perf_counter() >= deadline:
            return walls, traced_walls, layers


def _end_to_end(run: Run, walls, calibrated, setups, rss):
    wall = _median(calibrated)
    steps = run.workload.steps(run.size)
    metrics = {
        "wall_s": (wall, "s", f"median of {len(walls)} invocations, calibrated; "
                   f"{_tail(calibrated)}"),
        "steps_per_s": (steps / wall, "1/s", f"{steps} steps / wall_s"),
        "setup_s": (_median([c for _, c in setups]), "s",
                    f"median of {len(setups)} fresh processes, calibrated"),
        "peak_rss_mib": (_median(rss), "MiB", f"median of {len(rss)} fresh process(es) "
                         f"at {run.workload.steps(run.rss_size)} steps"),
    }
    notes = [f"uncalibrated: wall_s {_median(walls):.6g} s, {_tail(walls)}, "
             f"setup_s {_median([r for r, _ in setups]):.6g} s; calibrated = raw * "
             f"{reference.REF_S} s / reference kernel time"]
    return metrics, notes


#: Units of per-invocation values that repeat exactly (bytes do not: the
#: JSON summary carries its own wall time).
COUNT_UNITS = {"count", "flop_computed"}


def _per_layer(run: Run, walls, traced_walls, layers):
    units = {name: unit for name, (_, _, unit) in spans.SPAN_METRICS.items()}
    units.update({"integrators.steps": "count", "integrators.us_per_step": "us",
                  "trace.self_s_sum": "s"})
    metrics, notes = {}, []
    for name, unit in units.items():
        samples = [values[name] for values in layers]
        if unit in COUNT_UNITS and len(set(samples)) > 1:
            notes.append(f"{name} differs between invocations: {sorted(set(samples))}")
        metrics[name] = (float(_median(samples)), unit, "")
    valid = run.ktilde_steps - run.singular_steps
    traced_wall = _median(traced_walls)
    metrics["system.ktilde.valid_ratio"] = (
        valid / run.ktilde_steps if run.ktilde_steps else 1.0, "ratio",
        f"{run.singular_steps} singular of {run.ktilde_steps} K~ steps, all invocations")
    metrics["trace.wall_s"] = (traced_wall, "s", f"median of {len(traced_walls)} "
                               "traced invocations")
    metrics["trace_overhead"] = (traced_wall / _median(walls), "ratio",
                                 f"against untraced median of {len(walls)}")
    notes.append(f"span metrics: per-invocation medians over {len(layers)} traced "
                 "invocations; .s and self_s are self times")
    return metrics, notes


def measure(name: str, seed: int, seconds: float, traced: bool,
            short: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH)
    try:
        run = Run(workload, seed, short, scratch)
        run.check_certificate()
        if traced:
            walls, traced_walls, layers = _traced_loop(run, seconds)
            metrics, notes = _per_layer(run, walls, traced_walls, layers)
        else:
            setups = run.setup_samples(2 if short else SETUP_PROBES)
            rss = run.rss_samples(RSS_PROBES)
            walls, calibrated = _timed_loop(run, seconds)
            metrics, notes = _end_to_end(run, walls, calibrated, setups, rss)
    finally:
        shutil.rmtree(scratch)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # succeeds only once no run is using it
    lines = [f"{metric:<44} {value:<12.6g} {unit:<13} {note}".rstrip()
             for metric, (value, unit, note) in metrics.items()]
    lines.append(f"{'error_rate':<44} {run.failed / run.attempted:<12.6g} {'ratio':<13} "
                 f"{run.failed} failed of {run.attempted} attempted")
    lines += [f"note: {note}" for note in notes]
    lines += [f"failure: {reason}" for reason in run.reasons]
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {metric: {"value": value, "unit": unit}
                          for metric, (value, unit, _) in metrics.items()}}
    return result, lines


def environment(pinned: dict) -> dict:
    """Machine, library and thread settings the numbers were taken under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": _git_commit(),
        "pinned": pinned,
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
