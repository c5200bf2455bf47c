"""CSV bytes of runs whose factors are above the float bound, pinned per
OpenBLAS kernel.

``tests/test_digests.py`` pins runs of 2×2 and 4×4 factors, which the
float loops take. These runs take the numpy paths of ``linalg``:

- the seeded 6-DOF config of the CI "Entry points" step (2n = 12): its
  scheme factors go through their 6×6 Schur block, and its solves skip
  the rows the block structure makes known;
- the benchmark's seeded 16-DOF system (``dense-16d`` at seed 0): its
  16×16 Schur blocks take the numpy row loop, and so do its factors with
  some |A| > 1, at their full 32×32.

The SkylakeX digest of ``symplectic-16d-indirect`` is the benchmark's
``dense-16d`` digest at 80 steps. The kernel is read as
``tests/test_digests.py`` reads it; on a kernel without a table these
tests skip, and the reason names the kernel.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import damped_midpoint.cli as cli
from test_digests import CORE


def dof6_config() -> dict:
    """The 6-DOF config the CI "Entry points" step generates."""
    rng = np.random.default_rng(6)
    a, b = rng.integers(-3, 4, (6, 6)), rng.integers(-1, 2, (6, 6))
    return {"system": {"K": ((a @ a.T + 6 * np.eye(6)) / 64).tolist(),
                       "C": ((b @ b.T) / 512).tolist()},
            "initial": {"q": rng.uniform(-0.5, 0.5, 6).tolist(),
                        "p": rng.uniform(-0.5, 0.5, 6).tolist()},
            "tau": 0.2, "n_steps": 20}


def dense16_config() -> dict:
    """The benchmark's ``dense-16d`` config at seed 0."""
    n, rng = 16, np.random.default_rng(0)
    a = rng.integers(-3, 4, size=(n, n))
    b = rng.integers(-1, 2, size=(n, n))
    return {"system": {"K": ((a @ a.T + n * np.eye(n, dtype=np.int64)) / 64.0).tolist(),
                       "C": ((b @ b.T) / 512.0).tolist()},
            "initial": {"q": rng.uniform(-0.5, 0.5, n).tolist(),
                        "p": rng.uniform(-0.5, 0.5, n).tolist()},
            "tau": 0.2, "n_steps": 80, "epsilon": 1e-8}


CONFIGS = {"dof6": dof6_config, "dense16": dense16_config}

# name: (config, CLI arguments without --config and --out, CSV suffix)
INVOCATIONS = {
    "run-6d-direct": ("dof6", ["run", "--method", "midpoint_direct", "--steps", "20"],
                      "trajectory"),
    "compare-6d": ("dof6", ["compare", "--steps", "20"], "compare"),
    "symplectic-6d-indirect": ("dof6", ["check-symplectic", "--method", "midpoint_indirect",
                                        "--steps", "20"], "symplectic"),
    "symplectic-16d-indirect": ("dense16", ["check-symplectic", "--method",
                                            "midpoint_indirect", "--steps", "80"],
                                "symplectic"),
}

DIGESTS = {
    "SkylakeX": {
        "compare-6d": "92b6ed099dfb5b2b68b477e2c3fb20f2ce87a7b8ac2316ce6d13f787f5a8282a",
        "run-6d-direct": "410a24f85ef6752a9d8cea5a2978608be2ac56f1cc61b2aa33b6ff21cc8cb71c",
        "symplectic-16d-indirect":
            "5011c5a5ff514d6268f7564e652a256c5b5bf83eeaf8f88d4060113a9a9ccf00",
        "symplectic-6d-indirect":
            "6d36502ac906499f105cc1d465dd409f426614e0e86034d6d959b32807cc80a3",
    },
    "Haswell": {
        "compare-6d": "c5b43d6eb589a5becd1dd9b964f3cec4f20ad0e6cf7b91cfa4a159c7721e1dd3",
        "run-6d-direct": "b32ceec2f55906ea9d1b50ef458a5c5782d6bf455de1457e4e9aaa281e920f9e",
        "symplectic-16d-indirect":
            "9a64b98c32232a487cce8ccfbcf0c91ef1c8e5d1da3f5026365478b8046f1492",
        "symplectic-6d-indirect":
            "93c2c1f37a33b1139bf9d688016059aac1fb1703644b365876ccda42bb41a066",
    },
    "Sandybridge": {
        "compare-6d": "1aa8d57f3b420e86c0d401bcbdfe8f35725e429150d14302a38ec31fe01a46ef",
        "run-6d-direct": "553f449d23329116e324488389b65b7a0fa11faf3014b496998bbf388c9d395a",
        "symplectic-16d-indirect":
            "7680538c0acd6f10c35eaa9b1ac4dfe4e7648cff60ddd3c5e0205ccaf697345c",
        "symplectic-6d-indirect":
            "4c2459150ac7eafd0178883471417e3645a4a9deb906be8654aa5546771c1f2a",
    },
}


def csv_digest(name: str, directory: Path) -> str:
    """sha256 of the CSV that invocation ``name`` writes under ``directory``."""
    config, argv, suffix = INVOCATIONS[name]
    path = directory / f"{config}.json"
    path.write_text(json.dumps(CONFIGS[config]()), encoding="utf-8")
    prefix = directory / "out"
    assert cli.main([argv[0], "--config", str(path), "--out", str(prefix)] + argv[1:]) == 0
    return hashlib.sha256(Path(f"{prefix}.{suffix}.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_csv_bytes_match_kernel_table(name, tmp_path, capsys):
    if CORE not in DIGESTS:
        pytest.skip(f"no CSV digests pinned for the OpenBLAS kernel {CORE!r}")
    assert csv_digest(name, tmp_path) == DIGESTS[CORE][name], f"{name} on the {CORE} kernel"
