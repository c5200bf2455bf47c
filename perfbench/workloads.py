"""The benchmark's workloads: CLI arguments, seeded inputs and output checks.

Each workload is one CLI subcommand at a fixed size. Three of them run the
bundled paper configurations, whose CSV digests are pinned below; the
fourth (``dense-16d``) draws a 16-DOF system from the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

#: Ladder of the ``convergence`` workload: coarsest step and halvings.
LADDER_TAU_MAX = 0.2
LADDER_LEVELS = 8

#: Paper tolerances, as asserted by ``tests/test_acceptance.py``.
ENERGY_IDENTITY_RTOL = 1e-13
HHAT_TOL = 1e-10
DIRECT_VS_INDIRECT_TOL = 1e-11
ORDER_TOL = 0.1

_SUFFIX = {
    "run": "trajectory",
    "compare": "compare",
    "convergence": "convergence",
    "check-symplectic": "symplectic",
}


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    ``size`` is the ``--steps`` value, or ``--t-final`` for the convergence
    ladder, of a timed invocation; ``short_size`` is the tiny size the
    self-tests use; ``rss_size`` is the size of the fresh-process memory
    probe, large enough that per-step memory dominates it.
    """

    name: str
    subcommand: str
    config: str | None  # bundled config name; None = seeded 16-DOF system
    method: str
    size: int
    short_size: int
    rss_size: int

    def argv(self, config: str, prefix: str, size: int) -> list[str]:
        argv = [self.subcommand, "--config", config, "--out", prefix]
        if self.subcommand != "compare":
            argv += ["--method", self.method]
        if self.subcommand == "convergence":
            return argv + ["--tau-max", repr(LADDER_TAU_MAX), "--levels",
                           str(LADDER_LEVELS), "--t-final", str(size)]
        return argv + ["--steps", str(size)]

    def steps(self, size: int) -> int:
        """Integration steps one invocation at ``size`` completes (every
        ``integrate`` and ``propagate`` step)."""
        if self.subcommand == "convergence":
            return round(size / LADDER_TAU_MAX) * (2 ** LADDER_LEVELS - 1)
        if self.subcommand == "compare":
            return 3 * size
        return size

    def outputs(self, prefix: str) -> tuple[str, str]:
        """Paths of the CSV and JSON artifacts written under ``prefix``."""
        stem = f"{prefix}.{_SUFFIX[self.subcommand]}"
        json_stem = f"{prefix}.summary" if self.subcommand == "run" else stem
        return stem + ".csv", json_stem + ".json"


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("ledger-1d", "run", "paper_1d", "midpoint_direct", 500, 20, 20000),
    Workload("compare-2d", "compare", "paper_2d", "midpoint_direct", 100, 20, 5000),
    Workload("dense-16d", "check-symplectic", None, "midpoint_indirect", 80, 4, 2000),
    # The ladder keeps no per-step records, so its memory probe runs at the
    # timed size.
    Workload("ladder-1d", "convergence", "paper_1d", "midpoint_direct", 4, 1, 4),
)}

#: sha256 of each workload's CSV at the default seed, keyed by
#: (workload, size). Byte-identical CSV output is a project invariant.
DIGESTS = {
    ("ledger-1d", 500):
        "f61e5e91970de4464f4a7fc45c78f7e97b341bf8bcf746279106d39beb2c33f3",
    ("ledger-1d", 20):
        "5523b4ae2061971d574ef112cfbea3b6464e338e0bb830dcc28a47ceebe9e2fc",
    ("ledger-1d", 20000):
        "9c2818ae9680790ac6060aeea3bf2bd2e904e0fd238092ddac7c20c012fe0d09",
    ("compare-2d", 100):
        "11992aa51b76ef30f89b4eb4e2f80170246b2b5be216686f6215f30aa45335b1",
    ("compare-2d", 20):
        "889591ae2e07c11dece006217820c70bd120e019dd8b17c585f281be993d31b3",
    ("compare-2d", 5000):
        "22aff0724b9f871c44bcb93d30ef8e2f469d87f040d08e5bc866c4b1238f5d57",
    ("dense-16d", 80):
        "5011c5a5ff514d6268f7564e652a256c5b5bf83eeaf8f88d4060113a9a9ccf00",
    ("dense-16d", 4):
        "477a93820290226ac7f34f7f2cef40a60c939052c472135e8e196ecd9dcf3d81",
    ("dense-16d", 2000):
        "0e46925a2ae6b8cf2f65bd3e31230a067eaf9f3195fdc5d1752467296d221d06",
    ("ladder-1d", 4):
        "4b7bf2b0cf1609076db749114574c4b6265ef6b06e63b64e780cd21127de3aab",
    ("ladder-1d", 1):
        "a8f65ea90c5e39b5d385ab4d1432fe570bd3886c45c78d6c5597dbd60fe36021",
}


def dense_config(seed: int, steps: int, n: int = 16) -> dict:
    """A seeded n-DOF configuration: SPD K, symmetric PSD C, random start.

    K and C are integer Gram matrices scaled by powers of two, so they are
    exactly symmetric and the same on every machine; the start is drawn
    from the seeded generator.
    """
    rng = np.random.default_rng(seed)
    # Integer Gram matrices: integer matmul is exact in any summation order.
    a = rng.integers(-3, 4, size=(n, n))
    b = rng.integers(-1, 2, size=(n, n))
    k = (a @ a.T + n * np.eye(n, dtype=np.int64)) / 64.0
    c = (b @ b.T) / 512.0
    return {
        "label": f"dense_{n}d_seed{seed}",
        "system": {"label": f"seeded {n}-DOF system", "K": k.tolist(),
                   "C": c.tolist()},
        "initial": {"q": rng.uniform(-0.5, 0.5, n).tolist(),
                    "p": rng.uniform(-0.5, 0.5, n).tolist()},
        "tau": 0.2,
        "n_steps": steps,
        "method": "midpoint_indirect",
        "epsilon": 1e-8,
    }


def write_config(workload: Workload, seed: int, directory: str, size: int) -> str:
    """The ``--config`` argument: a bundled name, or a generated file."""
    if workload.config is not None:
        return workload.config
    path = os.path.join(directory, "dense.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dense_config(seed, size), fh)
    return path


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def check_outputs(workload: Workload, prefix: str, digest: str | None,
                  size: int) -> tuple[list[str], dict]:
    """Check the artifacts of one invocation at ``size``.

    Returns ``(failures, facts)``: failures are human-readable reasons
    (empty when the output is correct); facts carry the CSV digest and the
    K̃ step counts read from the JSON artifact.
    """
    csv_path, json_path = workload.outputs(prefix)
    try:
        found = sha256_file(csv_path)
        with open(json_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"artifact unreadable: {exc}"], {}
    failures = []
    if digest is not None and found != digest:
        failures.append(f"CSV sha256 {found} != expected {digest}")
    failures += _invariant_failures(workload, summary)
    return failures, {"digest": found, **_ktilde_counts(workload, summary, size)}


def _invariant_failures(workload: Workload, s: dict) -> list[str]:
    out = []
    if workload.subcommand == "run":
        limit = ENERGY_IDENTITY_RTOL * max(1.0, s["initial_energy"])
        if not s["max_energy_identity_residual"] <= limit:
            out.append(f"energy identity residual {s['max_energy_identity_residual']!r}"
                       f" > {limit!r}")
        if not s["max_hhat_deviation"] <= HHAT_TOL:
            out.append(f"hhat deviation {s['max_hhat_deviation']!r} > {HHAT_TOL!r}")
    elif workload.subcommand == "compare":
        gap = s["max_state_discrepancy_direct_vs_indirect"]
        if not gap <= DIRECT_VS_INDIRECT_TOL:
            out.append(f"direct vs indirect discrepancy {gap!r} > "
                       f"{DIRECT_VS_INDIRECT_TOL!r}")
    elif workload.subcommand == "check-symplectic":
        expected = {"direct": "unsymplectic", "indirect": "symplectic"}
        if s["verdicts"] != expected:
            out.append(f"verdicts {s['verdicts']} != {expected}")
    else:
        orders = [row["observed_order"] for row in s["rows"][1:]]
        if not orders or not all(o is not None and abs(o - 2.0) <= ORDER_TOL
                                 for o in orders):
            out.append(f"observed orders {orders} not within 2 +- {ORDER_TOL}")
    return out


def _ktilde_counts(workload: Workload, s: dict, size: int) -> dict:
    """Steps that formed K̃ and how many of them were singular.

    The convergence ladder steps through ``propagate``, which forms no K̃
    for the direct method, so it reports zero steps.
    """
    if workload.subcommand == "convergence":
        return {"ktilde_steps": 0, "singular_steps": 0}
    singular = s["singular_steps"]
    if isinstance(singular, dict):
        singular = sum(singular.values())
    return {"ktilde_steps": workload.steps(size), "singular_steps": singular}
