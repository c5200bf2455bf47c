"""CSV bytes of short CLI runs, pinned per OpenBLAS kernel.

Byte-identical CSV output is a project invariant, but a BLAS dot or
matrix-vector product of two or more terms rounds by the CPU kernel
OpenBLAS picks at run time: a fused multiply-add chain on SkylakeX,
multiply then add on Haswell (also the kernel of AVX2-only CPUs and AMD
Zen), a third way on Sandybridge. So each kernel has its own table. The
kernel is read from numpy's bundled OpenBLAS, which reports the one
``OPENBLAS_CORETYPE`` forces; on a kernel without a table these tests
skip, and the reason names the kernel.

The SkylakeX entries of ``run-1d-direct``, ``compare-2d`` and
``convergence-1d-direct`` are the short-size digests of the benchmark's
``ledger-1d``, ``compare-2d`` and ``ladder-1d`` workloads.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

import damped_midpoint.cli as cli

# name: (CLI arguments without --out, CSV suffix)
INVOCATIONS = {
    "run-1d-direct": (["run", "--config", "paper_1d", "--method", "midpoint_direct",
                       "--steps", "20"], "trajectory"),
    "run-2d-indirect": (["run", "--config", "paper_2d", "--method", "midpoint_indirect",
                         "--steps", "20"], "trajectory"),
    "run-2d-rk4": (["run", "--config", "paper_2d", "--method", "rk4", "--steps", "20"],
                   "trajectory"),
    "compare-1d": (["compare", "--config", "paper_1d", "--steps", "20"], "compare"),
    "compare-2d": (["compare", "--config", "paper_2d", "--steps", "20"], "compare"),
    "symplectic-2d-indirect": (["check-symplectic", "--config", "paper_2d", "--method",
                                "midpoint_indirect", "--steps", "20"], "symplectic"),
    # --epsilon 0.3 makes some steps singular, so some cells are empty.
    "symplectic-1d-singular": (["check-symplectic", "--config", "paper_1d", "--epsilon",
                                "0.3", "--steps", "20"], "symplectic"),
    "convergence-1d-direct": (["convergence", "--config", "paper_1d", "--method",
                               "midpoint_direct", "--tau-max", "0.2", "--levels", "8",
                               "--t-final", "1"], "convergence"),
    # A 2-DOF ladder is measured against an RK4 reference run.
    "convergence-2d-indirect": (["convergence", "--config", "paper_2d", "--method",
                                 "midpoint_indirect", "--tau-max", "0.2", "--levels", "3",
                                 "--t-final", "1"], "convergence"),
}

DIGESTS = {
    "SkylakeX": {
        "compare-1d": "f9650d9ddda2e736f30a6a44d0186a9ec552c4a49d448847e5bff7872d45990d",
        "compare-2d": "889591ae2e07c11dece006217820c70bd120e019dd8b17c585f281be993d31b3",
        "convergence-1d-direct":
            "a8f65ea90c5e39b5d385ab4d1432fe570bd3886c45c78d6c5597dbd60fe36021",
        "convergence-2d-indirect":
            "ddd3ee926145b3301b6e7c84887462b144fbca3699f4bc30d26a80a4aa0ae8d1",
        "run-1d-direct": "5523b4ae2061971d574ef112cfbea3b6464e338e0bb830dcc28a47ceebe9e2fc",
        "run-2d-indirect": "396e2d0242a5d521b52305e1d8d5a6a01bba7113bc0602ce3bcc10238694b382",
        "run-2d-rk4": "e9c50e3eb11517863308fab961bdb267fa282aebfbd94bfe6ee4b0550dac01f4",
        "symplectic-1d-singular":
            "f6330d793b03786c61e0d2ac5e7969d90e5df83f645eb1224a77f98445f024a8",
        "symplectic-2d-indirect":
            "efa7a19b1b9ed5d8862adba92f3b25771055bc29446d671d82539dd0178ff084",
    },
    "Haswell": {
        "compare-1d": "f9650d9ddda2e736f30a6a44d0186a9ec552c4a49d448847e5bff7872d45990d",
        "compare-2d": "9484254d681778011ca654ac7cc85c35cec6fd2d183ff8c78e67104c562f5c6e",
        "convergence-1d-direct":
            "a8f65ea90c5e39b5d385ab4d1432fe570bd3886c45c78d6c5597dbd60fe36021",
        "convergence-2d-indirect":
            "ddd3ee926145b3301b6e7c84887462b144fbca3699f4bc30d26a80a4aa0ae8d1",
        "run-1d-direct": "f7f017b5037584984e823f1f4d191eba9a3c6c601d8864f0df2968f714e6ada1",
        "run-2d-indirect": "442b831d1ce1b97e533aa66af80925911d20d73099bdcee8edf7a11d8cbce43c",
        "run-2d-rk4": "27ad46d3481ebb81b331aa4a95006189718afaca3b8544dcd2fc22b1d9cd3de9",
        "symplectic-1d-singular":
            "76767fa97894087e62cca1b77fc7487c98a6f38ffd3e828308ae7d1c75ddc7f1",
        "symplectic-2d-indirect":
            "6331ea01720a2c08c3cc99132c136e6f5962acf127e047f0a3ef20049ea3ea22",
    },
    "Sandybridge": {
        "compare-1d": "e0b2a176a3a0617874f21d26979b9234c1e89bfe516e820a1cbd83a4668bdcc3",
        "compare-2d": "481afecbb1ef9e530455ce3814b6ddfd26831ba227281d1eed92287f95ac0ef5",
        "convergence-1d-direct":
            "8002edabe6517a8cdc8ecf52e3eff7a9f295444bf56776716ff62510c229f56a",
        "convergence-2d-indirect":
            "ddd3ee926145b3301b6e7c84887462b144fbca3699f4bc30d26a80a4aa0ae8d1",
        "run-1d-direct": "a9d8d59a064e7673088ccae76f492bf2e061fcc2c9f7fdc84e490582d5e75f95",
        "run-2d-indirect": "e1e9f51b99ddb2573414d42f01e5a040e5db43c46a7605bca48b269625dba3cd",
        "run-2d-rk4": "f15a55cc7ebb1a7ef0e477dac396d91e62da05aee21fd02b318a0539bcef85bd",
        "symplectic-1d-singular":
            "140094c6622fcecf24951c3c215554560f62bf59b7d07135b043e7d0b05f768a",
        "symplectic-2d-indirect":
            "5b20ec8d409c25e336abe7d3e0977dade61146650f28e6a6ea93230b6c4c994d",
    },
}


def blas_core() -> str:
    """The runtime kernel of numpy's bundled OpenBLAS, or "unknown" when
    numpy carries no such library (another BLAS, or another layout)."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


CORE = blas_core()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_csv_bytes_match_kernel_table(name, tmp_path, capsys):
    if CORE not in DIGESTS:
        pytest.skip(f"no CSV digests pinned for the OpenBLAS kernel {CORE!r}")
    argv, suffix = INVOCATIONS[name]
    prefix = tmp_path / "out"
    assert cli.main(argv + ["--out", str(prefix)]) == 0
    digest = hashlib.sha256(Path(f"{prefix}.{suffix}.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[CORE][name], f"{name} on the {CORE} kernel"
