"""The configs that guard the command line's entry points: one table of
each config, its expected exit code per subcommand and why it is there.

The exit codes are those of ``--steps 20`` with every other flag at its
default, as the CI "Entry points" step calls the installed console
script and ``python -m damped_midpoint``. ``tests/test_cli.py`` runs the
same matrix in process (``test_entry_config_matrix``) and takes the
configs of its own hostile-input tests from here. A new entry-point
config is one entry below; both matrices pick it up.

Run as a script, ``python tests/entry_configs.py OUT`` writes each
object config to ``OUT/<name>.json`` and prints one line per case:
config name, config argument, subcommand, CSV kind, JSON kind and
expected exit.
"""

import json
import sys
from pathlib import Path
from typing import NamedTuple

from damped_midpoint.cli import bundled_config_path
from test_digests_blocks import dof6_config

# subcommand: (CSV kind, JSON kind) of the artifacts it writes
SUBCOMMANDS = {"run": ("trajectory", "summary"), "compare": ("compare", "compare"),
               "convergence": ("convergence", "convergence"),
               "check-symplectic": ("symplectic", "symplectic")}
STEPS = 20


class EntryConfig(NamedTuple):
    config: object   # a bundled config's name or a path, or the JSON value itself
    exits: tuple     # exit code of each of SUBCOMMANDS, in order, at --steps STEPS
    reason: str


def _config(K, C, q, p, tau, n_steps=STEPS, t=None, **fields):
    initial = {"q": q, "p": p} if t is None else {"t": t, "q": q, "p": p}
    return {"system": {"K": K, "C": C}, "initial": initial, "tau": tau, "n_steps": n_steps,
            **fields}


# paper_1d's fields, which the config-error entries below break one at a time.
_PAPER_1D = _config([[2.0]], [[0.05]], [0.1], [0.2], 0.2)
_CONFIG_ERROR = (2, 2, 2, 2)


ENTRY_CONFIGS = {
    "paper_1d": EntryConfig("paper_1d", (0, 0, 0, 0),
                            "The bundled scalar config: 2×2 schemes, factored and "
                            "solved on Python floats."),
    "paper_2d": EntryConfig("paper_2d", (0, 0, 0, 0),
                            "The bundled 2-DOF config: 4×4 schemes, factored on Python "
                            "floats."),
    "dof6": EntryConfig(dof6_config(), (0, 0, 0, 0),
                        "A seeded 6-DOF config: 12×12 schemes, factored through their "
                        "6×6 Schur block."),
    "ktilde00": EntryConfig(_config([[1.0, 0.0], [0.0, 2.0]], [[0.5, 0.1], [0.1, 0.3]],
                                    [1e-300, 2e-300], [1e-300, 0.0], 1e-100), (0, 4, 4, 0),
                            "τ·(q' + q) underflows to 0, so K̃ is 0/0 at step 1: compare "
                            "fails at the indirect scheme's step 1, and convergence "
                            "refuses its 1e-100 step ladder."),
    "huge": EntryConfig(_config([[1e308]], [[0.0]], [0.0], [0.0], 1e10), (4, 4, 4, 4),
                        "(τ/2)·K overflows: run, compare and check-symplectic fail at "
                        "the direct factor's step 1, and convergence refuses its ladder "
                        "(t_final is no multiple of τ)."),
    "singsub": EntryConfig(_config([[2.0]], [[1.0]], [0.0], [1.0], 1.0), (4, 4, 0, 4),
                           "K + K̃ = -4/τ² makes the substituting factor singular at "
                           "step 3: run, compare and check-symplectic fail in the direct "
                           "run's stacked factor of its substituting maps (compare takes "
                           "no defects, but keeps that factor); the ladder factors none."),
    "nancell": EntryConfig(_config([[-0.3]], [[-1e-320]], [0.0], [0.0], 1e300), (0, 0, 4, 0),
                           "The factor-pair defect M·J·Mᵀ overflows to inf - inf on every "
                           "step, an empty cell; convergence refuses its ladder (t_final "
                           "is no multiple of τ)."),
    "ktilde-sum": EntryConfig(_config([[-0.0]], [[-1e-300]], [1e308], [7.0], 1000.0),
                              (0, 0, 4, 0),
                              "K̃'s q' + q overflows, without a warning; convergence "
                              "refuses its ladder (t_final is no multiple of τ)."),
    "costly": EntryConfig(_config([[-0.0]], [[100.0]], [0.0], [-2.0], 0.001,
                                  method="midpoint_indirect"), (0, 0, 4, 0),
                          "Overdamped with no closed form: convergence refuses its study "
                          "by its size-weighted cost before stepping (at --levels 2 "
                          "--t-final 10 its 10.24 million step RK4 reference ran for "
                          "minutes when the bound counted steps)."),
    "nonobject": EntryConfig([1, 2], (2, 2, 2, 2),
                             "A config whose top level is a list, not an object, is a "
                             "config error."),
    "late": EntryConfig(_config([[1.0]], [[0.0]], [0.0], [0.0], 1e308, n_steps=2, t=1e308),
                        (4, 4, 4, 4),
                        "The timestamps t₀ + k·τ overflow: every subcommand refuses the "
                        "run before stepping (run, compare and check-symplectic used to "
                        "leak the time axis's RuntimeWarnings and write empty t cells)."),
    "negzero": EntryConfig(_config([[2.0]], [[0.05]], [0.1], [0.2], 0.2, t=-0.0), (0, 0, 0, 0),
                           "paper_1d's system from t₀ = -0.0: run and compare take their "
                           "time axis from integrate, which starts it at t₀ bit for bit, "
                           "so their first t cell is -0."),
    "stiffref": EntryConfig(_config([[1.0]], [[2860.0]], [1.0], [0.0], 1.0), (0, 4, 4, 0),
                            "compare's RK4 run stops having a finite ledger at step 13; "
                            "convergence refuses its study before stepping: its RK4 "
                            "reference step τ/1024 puts the fast mode's hλ at -2.793, past "
                            "RK4's real-axis limit of -2.785."),
    "system-number": EntryConfig({**_PAPER_1D, "system": 5}, _CONFIG_ERROR,
                                 "A system that is neither an object nor a file path is a "
                                 "config error."),
    "no-tau": EntryConfig({k: v for k, v in _PAPER_1D.items() if k != "tau"}, _CONFIG_ERROR,
                          "A config without its required tau field is a config error."),
    "initial-list": EntryConfig({**_PAPER_1D, "initial": [0.1, 0.2]}, _CONFIG_ERROR,
                                "An initial state given as a list, not as {q, p}, is a "
                                "config error."),
    "euler": EntryConfig({**_PAPER_1D, "method": "euler"}, _CONFIG_ERROR,
                         "A method outside METHODS is a config error."),
    "epsilon-0": EntryConfig({**_PAPER_1D, "epsilon": 0}, _CONFIG_ERROR,
                             "An epsilon that is not positive is a config error."),
    "missing-dir": EntryConfig("/no/such/dir/paper_1d.json", _CONFIG_ERROR,
                               "A missing file with a directory part is a config error: "
                               "only a bare name stands for a bundled config (this path "
                               "used to run the bundled paper_1d and exit 0)."),
    "start-2d": EntryConfig(_config([[2.0]], [[0.05]], [0.1, 0.2], [0.2, 0.1], 0.2),
                            _CONFIG_ERROR,
                            "A 2-component start on paper_1d's scalar system is a config "
                            "error."),
}


# Every (config name, subcommand, expected exit) of the table.
CASES = [(name, sub, code) for name, entry in ENTRY_CONFIGS.items()
         for sub, code in zip(SUBCOMMANDS, entry.exits)]


def write(path, name, **fields):
    """Write config ``name`` (a bundled one's JSON, for a bundled name),
    with ``fields`` in place of its top-level ones, to the ``pathlib.Path``
    ``path`` and return it."""
    config = ENTRY_CONFIGS[name].config
    if isinstance(config, str):
        config = json.loads(bundled_config_path(config).read_text(encoding="utf-8"))
    path.write_text(json.dumps({**config, **fields} if fields else config))
    return path


def argument(name, directory):
    """The ``--config`` argument of config ``name``: a bundled config's
    name, or the path of the JSON file written for it in ``directory``."""
    config = ENTRY_CONFIGS[name].config
    return config if isinstance(config, str) else str(write(Path(directory, f"{name}.json"), name))


if __name__ == "__main__":
    arguments = {name: argument(name, sys.argv[1]) for name in ENTRY_CONFIGS}
    for name, sub, code in CASES:
        print(name, arguments[name], sub, *SUBCOMMANDS[sub], code)
