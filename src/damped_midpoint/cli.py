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
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .diagnostics import EnergyReport, convergence_study, energy_report, \
    period_estimate
from .errors import ConfigError, InsufficientOscillationError, IntegrationError, \
    SingularMatrixError
from .integrators import METHODS, Trajectory, integrate, scheme_factors
from .symplectic import SYMPLECTIC_TOL, factored_symplectic_defect, symplectic_form
from .system import DEFAULT_EPSILON, DampedLinearSystem, PhaseState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4


@dataclass(frozen=True)
class RunConfig:
    """One fully-resolved run: system, initial state, stepping parameters."""

    system: DampedLinearSystem
    initial: PhaseState
    tau: float
    n_steps: int
    method: str
    epsilon: float
    output_prefix: str | None
    label: str

    def validate(self) -> "RunConfig":
        if not self.tau > 0.0 or not np.isfinite(self.tau):
            raise ConfigError(f"tau must be a positive finite number, got {self.tau}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.method not in METHODS:
            raise ConfigError(
                f"method must be one of {list(METHODS)}, got {self.method!r}"
            )
        if not self.epsilon > 0.0 or not np.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be a positive finite number, got {self.epsilon}")
        if self.initial.n != self.system.n:
            raise ConfigError(
                f"initial condition has {self.initial.n} components, "
                f"system has {self.system.n}"
            )
        return self


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (e.g. ``paper_1d``)."""
    if not name.endswith(".json"):
        name = name + ".json"
    return Path(str(resources.files("damped_midpoint") / "configs" / name))


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _system_from_obj(obj, base: Path) -> DampedLinearSystem:
    if isinstance(obj, str):
        path = Path(obj)
        if not path.is_absolute():
            path = base / path
        obj = _load_json(path)
    if not isinstance(obj, dict) or "K" not in obj or "C" not in obj:
        raise ConfigError('system must be {"label", "K", "C"} or a file path')
    try:
        return DampedLinearSystem(K=obj["K"], C=obj["C"], label=str(obj.get("label", "")))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid system definition: {exc}") from exc


def _number(obj: dict, key: str, default=None) -> float:
    """Field ``key`` of a config object as a finite float. JSON bools,
    strings and other non-numbers are rejected, not coerced."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _count(obj: dict, key: str) -> int:
    """Field ``key`` of a config object as an int; floats and JSON bools
    are rejected, not truncated."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a JSON run configuration, resolving bundled names and overrides."""
    path = Path(path)
    if not path.exists():
        bundled = bundled_config_path(path.name)
        if bundled.exists():
            path = bundled
        else:
            raise ConfigError(f"config file not found: {path}")
    raw = _load_json(path)
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
    try:
        initial = PhaseState(t=t0, q=init["q"], p=init["p"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    tau = _number(raw, "tau")
    n_steps = _count(raw, "n_steps")
    epsilon = _number(raw, "epsilon", DEFAULT_EPSILON)
    if "horizon" in raw:
        horizon = _number(raw, "horizon")
        tol = 8.0 * np.finfo(float).eps * max(1.0, abs(horizon))
        if abs(tau * n_steps - horizon) > tol:
            raise ConfigError(
                f"tau*n_steps = {tau * n_steps!r} does not match horizon {horizon!r}"
            )
    cfg = RunConfig(
        system=system,
        initial=initial,
        tau=tau,
        n_steps=n_steps,
        method=str(raw.get("method", "midpoint_direct")),
        epsilon=epsilon,
        output_prefix=raw.get("output_prefix"),
        label=str(raw.get("label", path.stem)),
    )
    return cfg.validate()


def config_to_dict(cfg: RunConfig) -> dict:
    """Serialize a config back to its JSON representation."""
    return {
        "label": cfg.label,
        "system": {
            "label": cfg.system.label,
            "K": cfg.system.K.tolist(),
            "C": cfg.system.C.tolist(),
        },
        "initial": {"t": cfg.initial.t, "q": cfg.initial.q.tolist(),
                    "p": cfg.initial.p.tolist()},
        "tau": cfg.tau,
        "n_steps": cfg.n_steps,
        "method": cfg.method,
        "epsilon": cfg.epsilon,
        "output_prefix": cfg.output_prefix,
    }


# --- formatting and atomic output -----------------------------------------

def _write_atomic(path: Path, text: str):
    """Write ``text`` to ``path`` through a temp file of a unique name in
    the same directory, renamed over ``path``; a failed write removes the
    temp file. The file gets the permissions a plain ``open`` gives."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


#: Rows per CSV formatting block. Formatting whole columns at once would
#: hold every cell string of a long run at the same time (about 5 MiB
#: more peak memory at 20 000 rows); one block's cells are freed before
#: the next is formatted.
_CSV_BLOCK_ROWS = 256


def _cells(column) -> list[str]:
    """One CSV column rendered as the kind of its first value that is not
    None: ints (the step) by ``str``, bools as ``true``/``false``, floats
    at 17 significant digits. None renders as an empty cell."""
    kind = next((x for x in column if x is not None), None)
    if isinstance(kind, bool):
        return ["true" if x else "false" for x in column]
    if isinstance(kind, (int, np.integer)):
        return [str(x) for x in column]
    return ["" if x is None else "%.17g" % x for x in column]


def _csv(header: list[str], columns) -> str:
    """CSV text of equal-length columns under ``header``, formatted a
    block of rows at a time, column by column."""
    lines = [",".join(header)]
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        cells = [_cells(column[lo:lo + _CSV_BLOCK_ROWS]) for column in columns]
        lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _prepare_prefix(prefix: str) -> Path:
    path = Path(prefix)
    if path.parent != Path(""):
        os.makedirs(path.parent, exist_ok=True)
    return path


# --- artifact builders ------------------------------------------------------

def _indirect_defects(tr: Trajectory) -> list:
    """Per-step indirect defects, None on singular steps."""
    return [None if singular else defect for singular, defect
            in zip(tr.singular.tolist(), tr.defect_indirect.tolist())]


def trajectory_csv(tr: Trajectory, report: EnergyReport) -> str:
    """Render a trajectory and its energy report as the canonical run CSV
    (initial row included)."""
    n = tr.system.n
    header = (["step", "t"] + [f"q_{i}" for i in range(n)] + [f"p_{i}" for i in range(n)]
              + ["E", "work_cum", "hhat", "defect_direct", "defect_indirect", "singular"])
    e0 = report.initial_energy
    columns = [range(tr.n_steps + 1), tr.t.tolist(), *tr.q.T.tolist(), *tr.p.T.tolist(),
               [e0, *tr.energy.tolist()], [0.0, *report.work_cumulative[1:].tolist()],
               [e0, *tr.hhat.tolist()], [None] + [tr.defect_direct] * tr.n_steps,
               [None, *_indirect_defects(tr)], [False, *tr.singular.tolist()]]
    return _csv(header, columns)


def _defect_maxima(tr: Trajectory):
    indirect = tr.defect_indirect[~tr.singular]
    return tr.defect_direct, (float(indirect.max()) if indirect.size else None)


def run_summary(cfg: RunConfig, tr: Trajectory, report: EnergyReport,
                wall_time: float) -> dict:
    defect_direct_max, defect_indirect_max = _defect_maxima(tr)
    return {
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
        "defect_direct_max": defect_direct_max,
        "defect_indirect_max": defect_indirect_max,
        "monotone_energy_certified": tr.system.monotone_energy_certified,
        "wall_time_s": wall_time,
    }


def cmd_run(cfg: RunConfig, prefix: str) -> int:
    """Integrate one configuration; write ``<prefix>.trajectory.csv`` and
    ``<prefix>.summary.json``."""
    t0 = time.perf_counter()
    tr = integrate(cfg.system, cfg.initial, cfg.tau, cfg.n_steps, cfg.method,
                   cfg.epsilon)
    wall = time.perf_counter() - t0
    path = _prepare_prefix(prefix)
    csv_path = path.with_name(path.name + ".trajectory.csv")
    json_path = path.with_name(path.name + ".summary.json")
    report = energy_report(tr)
    _write_atomic(csv_path, trajectory_csv(tr, report))
    summary = run_summary(cfg, tr, report, wall)
    summary["files"] = [str(csv_path), str(json_path)]
    _write_atomic(json_path, _json_text(summary))
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _period_or_none(tr: Trajectory):
    try:
        return period_estimate(tr, 0)
    except InsufficientOscillationError:
        return None


def cmd_compare(cfg: RunConfig, prefix: str) -> int:
    """Run every method on one configuration; write a joined CSV keyed by
    time plus a comparison summary (the config's method field is ignored)."""
    t0 = time.perf_counter()
    runs = {
        name: integrate(cfg.system, cfg.initial, cfg.tau, cfg.n_steps, method,
                        cfg.epsilon)
        for name, method in (("direct", "midpoint_direct"),
                             ("indirect", "midpoint_indirect"),
                             ("rk4", "rk4"))
    }
    wall = time.perf_counter() - t0
    n = cfg.system.n
    header = ["step", "t"]
    for name in runs:
        header += [f"{name}_q_{i}" for i in range(n)]
        header += [f"{name}_p_{i}" for i in range(n)]
        header += [f"{name}_E", f"{name}_hhat"]
    reports = {name: energy_report(tr) for name, tr in runs.items()}
    steps = np.arange(cfg.n_steps + 1)
    columns = [steps.tolist(), (cfg.initial.t + steps * cfg.tau).tolist()]
    for name, tr in runs.items():
        columns += [*tr.q.T.tolist(), *tr.p.T.tolist(), reports[name].energy.tolist(),
                    reports[name].hhat.tolist()]

    direct_states = np.hstack((runs["direct"].q, runs["direct"].p))
    indirect_states = np.hstack((runs["indirect"].q, runs["indirect"].p))
    summary = {
        "label": cfg.label,
        "tau": cfg.tau,
        "n_steps": cfg.n_steps,
        "epsilon": cfg.epsilon,
        "max_state_discrepancy_direct_vs_indirect":
            float(np.max(np.abs(direct_states - indirect_states))),
        "period_estimate": {name: _period_or_none(tr) for name, tr in runs.items()},
        "energy_drift_max_hhat_deviation":
            {name: reports[name].max_hhat_deviation for name in runs},
        "singular_steps": {name: reports[name].singular_steps for name in runs},
        "wall_time_s": wall,
    }
    path = _prepare_prefix(prefix)
    csv_path = path.with_name(path.name + ".compare.csv")
    json_path = path.with_name(path.name + ".compare.json")
    _write_atomic(csv_path, _csv(header, columns))
    summary["files"] = [str(csv_path), str(json_path)]
    _write_atomic(json_path, _json_text(summary))
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_convergence(cfg: RunConfig, prefix: str, tau_max: float, levels: int,
                    t_final: float) -> int:
    """Write the step-halving error ladder as CSV plus a JSON echo."""
    table = convergence_study(cfg.system, cfg.initial, tau_max, levels, t_final,
                              cfg.method, cfg.epsilon)
    columns = [[getattr(row, name) for row in table.rows]
               for name in ("tau", "error", "observed_order")]
    path = _prepare_prefix(prefix)
    csv_path = path.with_name(path.name + ".convergence.csv")
    json_path = path.with_name(path.name + ".convergence.json")
    _write_atomic(csv_path, _csv(["tau", "error", "observed_order"], columns))
    _write_atomic(json_path, _json_text({
        "label": cfg.label,
        "method": cfg.method,
        "reference": table.reference,
        "t_final": t_final,
        "rows": [{"tau": r.tau, "error": r.error, "observed_order": r.observed_order}
                 for r in table.rows],
        "files": [str(csv_path), str(json_path)],
    }))
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_check_symplectic(cfg: RunConfig, prefix: str) -> int:
    """Per-step symplectic defects of both transition-matrix families,
    their factor-pair defects, and a verdict line per family."""
    tr = integrate(cfg.system, cfg.initial, cfg.tau, cfg.n_steps, cfg.method,
                   cfg.epsilon)
    sys_ = cfg.system
    form = symplectic_form(sys_.n)
    m1, n1 = scheme_factors(sys_.K, sys_.C, cfg.tau)
    factor_direct = factored_symplectic_defect(m1, n1, form)
    czero = np.zeros_like(sys_.C)
    singular = tr.singular.tolist()
    factor_indirect = [None] * tr.n_steps
    for k in np.flatnonzero(~tr.singular):
        m2, n2 = scheme_factors(sys_.K + np.diag(tr.ktilde[k]), czero, cfg.tau)
        factor_indirect[k] = factored_symplectic_defect(m2, n2, form)
    columns = [range(1, tr.n_steps + 1), tr.t[1:].tolist(),
               [tr.defect_direct] * tr.n_steps, _indirect_defects(tr),
               [factor_direct] * tr.n_steps, factor_indirect, singular]

    defect_direct_max, defect_indirect_max = _defect_maxima(tr)
    nonsingular = singular.count(False)

    def verdict(max_defect, steps_seen):
        if steps_seen == 0:
            return "insufficient data"
        return "symplectic" if max_defect <= SYMPLECTIC_TOL else "unsymplectic"

    verdicts = {
        "direct": verdict(defect_direct_max, tr.n_steps),
        "indirect": verdict(defect_indirect_max, nonsingular),
    }
    path = _prepare_prefix(prefix)
    csv_path = path.with_name(path.name + ".symplectic.csv")
    json_path = path.with_name(path.name + ".symplectic.json")
    _write_atomic(csv_path, _csv(
        ["step", "t", "defect_direct", "defect_indirect", "factor_defect_direct",
         "factor_defect_indirect", "singular"], columns))
    _write_atomic(json_path, _json_text({
        "label": cfg.label,
        "method": cfg.method,
        "tau": cfg.tau,
        "threshold": SYMPLECTIC_TOL,
        "defect_direct_max": defect_direct_max,
        "defect_indirect_max": defect_indirect_max,
        "singular_steps": tr.n_steps - nonsingular,
        "verdicts": verdicts,
        "files": [str(csv_path), str(json_path)],
    }))
    for family, word in verdicts.items():
        peak = defect_direct_max if family == "direct" else defect_indirect_max
        detail = "no non-singular steps" if peak is None else f"max defect {peak:.3e}"
        print(f"{family} transition family: {word} ({detail})")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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
        if args.command == "run":
            return cmd_run(cfg, prefix)
        if args.command == "compare":
            return cmd_compare(cfg, prefix)
        if args.command == "convergence":
            tau_max = args.tau_max if args.tau_max is not None else cfg.tau
            return cmd_convergence(cfg, prefix, tau_max, args.levels, args.t_final)
        return cmd_check_symplectic(cfg, prefix)
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
    except (SingularMatrixError, ValueError) as exc:
        sys.stderr.write(_error_object("solver", str(exc)))
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
