"""Command-line front end.

Subcommands::

    run               integrate one configuration, write CSV + JSON summary
    compare           run all three methods on one configuration, joined CSV
    convergence       step-halving error ladder with observed orders
    check-symplectic  per-step defect report and a verdict per matrix family

Configurations are JSON files (see ``configs/paper_1d.json`` for the
schema); the flags ``--tau``, ``--steps``, ``--method``, ``--epsilon`` and
``--out`` override config fields. Output files are written atomically
(temp file + rename) with fixed 17-significant-digit decimal formatting,
so identical configurations produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .diagnostics import EnergyReport, convergence_study, energy_report, \
    period_estimate
from .errors import ConfigError, InsufficientOscillationError, IntegrationError, \
    SingularMatrixError
from .integrators import METHODS, Trajectory, integrate, scheme_factors, \
    substituting_factors
from .symplectic import SYMPLECTIC_TOL, factored_symplectic_defect, scaled_verdict, \
    symplectic_form
from .system import DEFAULT_EPSILON, DampedLinearSystem, PhaseState, _Record, total_energy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4


class RunConfig(_Record):
    """One fully-resolved run, as ``load_config`` checked it: system,
    initial state, stepping parameters."""

    system: DampedLinearSystem
    initial: PhaseState
    tau: float
    n_steps: int
    method: str
    epsilon: float
    output_prefix: str | None
    label: str


@functools.cache
def _bundled_configs() -> Path:
    """The package's configs directory, resolved once per process."""
    return Path(str(resources.files("damped_midpoint") / "configs"))


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (e.g. ``paper_1d``)."""
    if not name.endswith(".json"):
        name = name + ".json"
    return _bundled_configs() / name


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:   # also bad UTF-8, or an integer past the digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _system_from_obj(obj, base: Path) -> DampedLinearSystem:
    if isinstance(obj, str):
        path = Path(obj)
        if not path.is_absolute():
            path = base / path
        obj = _load_json(path)
    if not isinstance(obj, dict) or "K" not in obj or "C" not in obj:
        raise ConfigError('system must be {"label", "K", "C"} or a file path')
    K, C = _numbers(obj, "K"), _numbers(obj, "C")
    try:
        return DampedLinearSystem(K=K, C=C, label=_text(obj, "label", ""))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid system definition: {exc}") from exc


def _number(obj: dict, key: str, default=None) -> float:
    """Field ``key`` of a config object as a finite float. JSON bools,
    strings and other non-numbers are rejected, not coerced."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:   # an int beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _numbers(obj: dict, key: str) -> list:
    """Field ``key`` of a config object, a list of JSON numbers or of such
    lists; JSON bools, strings and nulls in it are rejected, not coerced.
    Shapes are checked where the arrays are built."""
    value = obj[key]
    pending, ok = [value], isinstance(value, list)
    while ok and pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            ok = isinstance(item, (int, float)) and not isinstance(item, bool)
    if not ok:
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return value


def _count(obj: dict, key: str) -> int:
    """Field ``key`` of a config object as an int; floats and JSON bools
    are rejected, not truncated."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _text(obj: dict, key: str, default=None) -> str | None:
    """Field ``key`` of a config object as a string; numbers, bools and
    other JSON values are rejected, not converted by ``str``. A null is
    accepted only where the default is None."""
    value = obj.get(key, default)
    if not isinstance(value, str) and not (value is None and default is None):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and check a JSON run configuration, resolving bundled names and
    overrides; any field it rejects raises :class:`ConfigError`. Only a
    name with no directory part that names no file is a bundled config's."""
    bare = not os.path.dirname(path)
    path = Path(path)
    if not path.exists():
        bundled = bundled_config_path(path.name)
        if bare and bundled.exists():
            path = bundled
        else:
            raise ConfigError(f"config file not found: {path}")
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a config must be a JSON object, got {raw!r}")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    raw.update(overrides)
    for key in ("system", "initial", "tau", "n_steps"):
        if key not in raw:
            raise ConfigError(f"{path}: missing required field {key!r}")
    system = _system_from_obj(raw["system"], path.parent)
    init = raw["initial"]
    if not isinstance(init, dict) or "q" not in init or "p" not in init:
        raise ConfigError('initial must be {"q": [...], "p": [...]}')
    t0 = _number(init, "t", 0.0)
    q, p = _numbers(init, "q"), _numbers(init, "p")
    try:
        initial = PhaseState(t=t0, q=q, p=p)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    tau = _number(raw, "tau")
    n_steps = _count(raw, "n_steps")
    epsilon = _number(raw, "epsilon", DEFAULT_EPSILON)
    if "horizon" in raw:
        horizon = _number(raw, "horizon")
        tol = 8.0 * np.finfo(float).eps * max(1.0, abs(horizon))
        try:
            span = tau * n_steps
        except OverflowError:   # an n_steps beyond the float range
            span = np.inf
        if abs(span - horizon) > tol:
            raise ConfigError(f"tau*n_steps = {span!r} does not match horizon {horizon!r}")
    method = _text(raw, "method", "midpoint_direct")
    output_prefix = _text(raw, "output_prefix")
    label = _text(raw, "label", path.stem)
    if not tau > 0.0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {list(METHODS)}, got {method!r}")
    if not epsilon > 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if initial.n != system.n:
        raise ConfigError(
            f"initial condition has {initial.n} components, system has {system.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = total_energy(system, initial)
    if not np.isfinite(energy):
        raise ConfigError(f"initial energy is {energy}, not a finite number")
    return RunConfig(system=system, initial=initial, tau=tau, n_steps=n_steps,
                     method=method, epsilon=epsilon, output_prefix=output_prefix,
                     label=label)


# --- formatting and atomic output -----------------------------------------

#: Characters of text ``_write_atomic`` encodes and writes at a time.
_WRITE_SLICE_CHARS = 1 << 16


def _write_atomic(path: Path, text: str):
    """Write ``text`` to ``path`` as UTF-8 through a temp file of a random,
    unused name in the same directory, renamed over ``path``; a failed
    write removes the temp file. The temp file is created with mode 0o666,
    so the kernel applies the umask and the file gets the permissions a
    plain ``open`` gives; the process umask is never read or changed. The
    text is encoded a slice at a time, so its whole encoded copy is never
    held."""
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb") as fh:
            for lo in range(0, len(text), _WRITE_SLICE_CHARS):
                fh.write(text[lo:lo + _WRITE_SLICE_CHARS].encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


#: Rows per CSV formatting block. A block's cells are formatted from its
#: slice of each column (an array slice becomes Python values only then)
#: by one ``%`` into one string, appended to the text (CPython grows it
#: in place): rendering never holds every row string, every block string,
#: nor an array column as Python values.
_CSV_BLOCK_ROWS = 256


def _cells(column) -> tuple[str, list]:
    """One CSV column block as ``(format, values)`` for one ``%``. The one
    cell rule: a float that is not finite, or a None, is an empty cell. A
    float array block that is all finite passes its floats under
    ``%.17g``, ints (the step) pass under ``%d``; bools (as
    ``true``/``false``) and any block with an empty cell pass as strings
    under ``%s``. A float in place of a block is a run constant:
    its cell is the format itself, a literal, and it passes no values."""
    if isinstance(column, float):
        return ("%.17g" % column if math.isfinite(column) else ""), []
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f" and np.isfinite(column).all():
            return "%.17g", column.tolist()
        column = column.tolist()
    kind = next((x for x in column if x is not None), None)
    if isinstance(kind, bool):
        return "%s", ["true" if x else "false" for x in column]
    if isinstance(kind, (int, np.integer)):
        return "%d", column
    return "%s", ["%.17g" % x if x is not None and math.isfinite(x) else "" for x in column]


def _csv(header: list[str], *groups) -> str:
    """CSV text under ``header`` of each group of rows in turn. A group is
    a list of equal-length columns (lists, ``range``s or 1-D arrays), one
    first, and run constants (floats): a constant's cell is formatted once
    and written into every row format of its group as a literal. Each
    block of rows is one ``%`` of the row format repeated once per row
    over the block's values taken row by row."""
    text = ",".join(header) + "\n"
    for columns in groups:
        constants = [_cells(column) if isinstance(column, float) else None for column in columns]
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            formats, values = zip(*[constant or _cells(column[lo:lo + _CSV_BLOCK_ROWS])
                                    for column, constant in zip(columns, constants)])
            row = ",".join(formats) + "\n"
            text += row * len(values[0]) % tuple(chain.from_iterable(zip(*filter(len, values))))
    return text


def _json_text(obj) -> str:
    """Strict JSON (RFC 8259). A float that is not finite is written as
    null: a derived statistic can be, such as the defect maximum of a run
    whose K̃ is 0/0, while a non-finite ledger fails the run before."""
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_artifacts(prefix: str, kinds: tuple[str, str], csv_text: str,
                     summary: dict) -> int:
    """Write ``<prefix>.<kinds[0]>.csv`` and the JSON ``summary``, with both
    paths as its ``files``, to ``<prefix>.<kinds[1]>.json``, making the
    prefix's directory; print the one ``wrote`` line of a subcommand. The
    JSON is serialised first, so a summary it cannot hold writes nothing."""
    path = Path(prefix)
    csv_path = path.with_name(f"{path.name}.{kinds[0]}.csv")
    json_path = path.with_name(f"{path.name}.{kinds[1]}.json")
    summary["files"] = [str(csv_path), str(json_path)]
    json_text = _json_text(summary)
    if path.parent != Path(""):
        os.makedirs(path.parent, exist_ok=True)
    _write_atomic(csv_path, csv_text)
    _write_atomic(json_path, json_text)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# --- artifact builders ------------------------------------------------------
#
# Each subcommand maps ``(cfg, args)`` to ``(kinds, csv_text, summary)``,
# the arguments of the one ``_write_artifacts`` call in ``main``.

def trajectory_csv(tr: Trajectory, report: EnergyReport) -> str:
    """Render a trajectory and its energy report as the canonical run CSV:
    the initial row, whose defect cells are empty, then the step rows."""
    n = tr.system.n
    header = (["step", "t"] + [f"q_{i}" for i in range(n)] + [f"p_{i}" for i in range(n)]
              + ["E", "work_cum", "hhat", "defect_direct", "defect_indirect", "singular"])
    ledger = report.energy, report.work_cumulative, report.hhat
    return _csv(header,
                [range(1), tr.t[:1], *tr.q[:1].T, *tr.p[:1].T, *(a[:1] for a in ledger),
                 math.nan, math.nan, [False]],
                [range(1, tr.n_steps + 1), tr.t[1:], *tr.q[1:].T, *tr.p[1:].T,
                 *(a[1:] for a in ledger), tr.defect_direct, tr.defect_indirect, tr.singular])


def _defect_indirect_max(tr: Trajectory):
    indirect = tr.defect_indirect[~tr.singular]
    return float(indirect.max()) if indirect.size else None


def cmd_run(cfg: RunConfig, args):
    """Integrate one configuration, for ``<prefix>.trajectory.csv`` and
    ``<prefix>.summary.json``."""
    t0 = time.perf_counter()
    tr = integrate(cfg.system, cfg.initial, cfg.tau, cfg.n_steps, cfg.method,
                   cfg.epsilon)
    wall = time.perf_counter() - t0
    report = energy_report(tr)
    return ("trajectory", "summary"), trajectory_csv(tr, report), {
        "label": cfg.label,
        "method": tr.method,
        "tau": tr.tau,
        "n_steps": tr.n_steps,
        "epsilon": cfg.epsilon,
        "initial_energy": report.initial_energy,
        "final_energy": float(report.energy[-1]),
        "max_hhat_deviation": report.max_hhat_deviation,
        "max_energy_identity_residual": report.max_energy_residual,
        "energy_monotone": report.monotone,
        "singular_steps": report.singular_steps,
        "defect_direct_max": tr.defect_direct,
        "defect_indirect_max": _defect_indirect_max(tr),
        "monotone_energy_certified": tr.system.monotone_energy_certified,
        "wall_time_s": wall,
    }


def _period_or_none(tr: Trajectory):
    try:
        return period_estimate(tr, 0)
    except InsufficientOscillationError:
        return None


def cmd_compare(cfg: RunConfig, args):
    """Run every method on one configuration: a joined CSV keyed by time
    plus a comparison summary (the config's method field is ignored)."""
    t0 = time.perf_counter()
    runs = {
        name: integrate(cfg.system, cfg.initial, cfg.tau, cfg.n_steps, method,
                        cfg.epsilon, defects=False)
        for name, method in (("direct", "midpoint_direct"),
                             ("indirect", "midpoint_indirect"),
                             ("rk4", "rk4"))
    }
    wall = time.perf_counter() - t0
    n = cfg.system.n
    reports = {name: energy_report(tr) for name, tr in runs.items()}
    header, columns = ["step", "t"], [np.arange(cfg.n_steps + 1), runs["direct"].t]
    for name, tr in runs.items():
        header += [f"{name}_q_{i}" for i in range(n)] + [f"{name}_p_{i}" for i in range(n)]
        header += [f"{name}_E", f"{name}_hhat"]
        columns += [*tr.q.T, *tr.p.T, reports[name].energy, reports[name].hhat]

    direct, indirect = runs["direct"], runs["indirect"]
    return ("compare", "compare"), _csv(header, columns), {
        "label": cfg.label,
        "tau": cfg.tau,
        "n_steps": cfg.n_steps,
        "epsilon": cfg.epsilon,
        "max_state_discrepancy_direct_vs_indirect":
            float(np.maximum(np.abs(direct.q - indirect.q).max(),
                             np.abs(direct.p - indirect.p).max())),
        "period_estimate": {name: _period_or_none(tr) for name, tr in runs.items()},
        "energy_drift_max_hhat_deviation":
            {name: reports[name].max_hhat_deviation for name in runs},
        "singular_steps": {name: reports[name].singular_steps for name in runs},
        "wall_time_s": wall,
    }


def cmd_convergence(cfg: RunConfig, args):
    """The step-halving error ladder from ``--tau-max`` (the config's tau
    by default), ``--levels`` and ``--t-final``, as CSV plus a JSON echo."""
    tau_max = args.tau_max if args.tau_max is not None else cfg.tau
    table = convergence_study(cfg.system, cfg.initial, tau_max, args.levels, args.t_final,
                              cfg.method, cfg.epsilon)
    columns = [[getattr(row, name) for row in table.rows]
               for name in ("tau", "error", "observed_order")]
    return ("convergence", "convergence"), _csv(["tau", "error", "observed_order"], columns), {
        "label": cfg.label,
        "method": cfg.method,
        "reference": table.reference,
        "t_final": args.t_final,
        "rows": [{"tau": r.tau, "error": r.error, "observed_order": r.observed_order}
                 for r in table.rows],
    }


def cmd_check_symplectic(cfg: RunConfig, args):
    """Per-step symplectic defects of both transition-matrix families,
    their factor-pair defects, and a verdict line per family. Each family
    is judged by :func:`scaled_verdict`: every defect of a matrix F at
    most ``SYMPLECTIC_TOL · max(1, ‖F‖_F²)``."""
    tr = integrate(cfg.system, cfg.initial, cfg.tau, cfg.n_steps, cfg.method,
                   cfg.epsilon)
    form = symplectic_form(cfg.system.n)
    factor_direct = factored_symplectic_defect(*scheme_factors(cfg.system.K, cfg.system.C,
                                                               cfg.tau), form)
    factor_indirect = np.full(tr.n_steps, np.nan)
    for rows, m2, n2 in substituting_factors(tr):
        factor_indirect[rows] = factored_symplectic_defect(m2, n2, form)
    columns = [range(1, tr.n_steps + 1), tr.t[1:], tr.defect_direct, tr.defect_indirect,
               factor_direct, factor_indirect, tr.singular]

    defect_indirect_max = _defect_indirect_max(tr)
    nonsingular_steps = np.flatnonzero(~tr.singular)
    direct = scaled_verdict([tr.defect_direct], [tr.norm2_direct])
    indirect = scaled_verdict(tr.defect_indirect[nonsingular_steps],
                              tr.norm2_indirect[nonsingular_steps])
    verdicts = {"direct": direct[0], "indirect": indirect[0]}
    # The direct family is one matrix for every step, first met at step 1.
    worst = {"direct": {"ratio": direct[1], "step": 1},
             "indirect": {"ratio": indirect[1], "step": None if indirect[2] is None
                          else int(nonsingular_steps[indirect[2]]) + 1}}
    for family, word in verdicts.items():
        peak = tr.defect_direct if family == "direct" else defect_indirect_max
        detail = ("no non-singular steps" if peak is None else f"max defect {peak:.3e}"
                  if np.isfinite(peak) else "a defect is not finite")
        print(f"{family} transition family: {word} ({detail})")
    return ("symplectic", "symplectic"), _csv(
        ["step", "t", "defect_direct", "defect_indirect", "factor_defect_direct",
         "factor_defect_indirect", "singular"], columns), {
        "label": cfg.label,
        "method": cfg.method,
        "tau": cfg.tau,
        "threshold": SYMPLECTIC_TOL,
        "verdict_rule": "defect <= threshold * max(1, ||F||_F^2) at every step",
        "max_scaled_defect": worst,
        "defect_direct_max": tr.defect_direct,
        "defect_indirect_max": defect_indirect_max,
        "singular_steps": tr.n_steps - len(nonsingular_steps),
        "verdicts": verdicts,
    }


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "convergence": cmd_convergence,
            "check-symplectic": cmd_check_symplectic}


# --- argument parsing -------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="damped-midpoint",
        description="Time-centered integration of damped linear systems "
                    "with symplectic diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="JSON config path or bundled name (paper_1d, paper_2d)")
        p.add_argument("--out", help="output path prefix (overrides config)")
        p.add_argument("--tau", type=float, help="step size override")
        p.add_argument("--steps", type=int, help="step count override")
        p.add_argument("--method", choices=METHODS, help="method override")
        p.add_argument("--epsilon", type=float,
                       help="equivalent-stiffness singularity guard override")

    common(sub.add_parser("run", help="integrate one configuration"))
    common(sub.add_parser("compare", help="run all methods and join the results"))
    conv = sub.add_parser("convergence", help="step-halving error ladder")
    common(conv)
    conv.add_argument("--tau-max", type=float, help="coarsest step size "
                      "(defaults to the config's tau)")
    conv.add_argument("--levels", type=int, default=4, help="ladder depth")
    conv.add_argument("--t-final", type=float, default=10.0,
                      help="comparison time (must be a multiple of every tau)")
    common(sub.add_parser("check-symplectic",
                          help="defect report and per-family verdicts"))
    return parser


def _error_object(kind: str, message: str, **extra) -> str:
    return _json_text({"error": {"type": kind, "message": message, **extra}})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "tau": args.tau,
        "n_steps": args.steps,
        "method": args.method,
        "epsilon": args.epsilon,
    }
    try:
        cfg = load_config(args.config, overrides)
        prefix = args.out or cfg.output_prefix
        if not prefix:
            raise ConfigError("no output prefix: pass --out or set output_prefix")
        return _write_artifacts(prefix, *COMMANDS[args.command](cfg, args))
    except ConfigError as exc:
        sys.stderr.write(_error_object("config", str(exc)))
        return EXIT_CONFIG
    except OSError as exc:
        path = getattr(exc, "filename", None)
        sys.stderr.write(_error_object("io", str(exc),
                                        **({"path": str(path)} if path else {})))
        return EXIT_IO
    except IntegrationError as exc:
        sys.stderr.write(_error_object("solver", str(exc), step=exc.step_index))
        return EXIT_SOLVER
    except (SingularMatrixError, ValueError, MemoryError) as exc:
        sys.stderr.write(_error_object("solver", str(exc)))
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
