"""The benchmark's own tests, at tiny step counts.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from damped_midpoint import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _short(name, traced):
    return bench.measure(name, workloads.DEFAULT_SEED, 0.05, traced, short=True)[0]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_short_run_reports_every_metric_with_its_unit(name, traced):
    result = _short(name, traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if traced:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.self_s_sum"] <= metrics["trace.wall_s"]
        workload = workloads.WORKLOADS[name]
        assert metrics["integrators.steps"] == workload.steps(workload.short_size)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {(w.name, size) for w in workloads.WORKLOADS.values()
            for size in (w.size, w.short_size, w.rss_size)} == set(workloads.DIGESTS)


def test_wrong_digest_counts_as_failed(monkeypatch):
    key = ("ledger-1d", workloads.WORKLOADS["ledger-1d"].short_size)
    monkeypatch.setitem(workloads.DIGESTS, key, "0" * 64)
    result = _short("ledger-1d", traced=True)
    # Every invocation fails; only the certificate check passes.
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1 >= 2


@pytest.mark.parametrize("name, tolerance", [("ledger-1d", "HHAT_TOL"),
                                             ("compare-2d", "DIRECT_VS_INDIRECT_TOL"),
                                             ("ladder-1d", "ORDER_TOL")])
def test_broken_invariant_counts_as_failed(monkeypatch, name, tolerance):
    monkeypatch.setattr(workloads, tolerance, -1.0)
    result = _short(name, traced=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1 >= 2


def test_wrong_verdict_is_a_failure(tmp_path):
    workload = workloads.WORKLOADS["dense-16d"]
    size = workload.short_size
    config = workloads.write_config(workload, 0, str(tmp_path), size)
    prefix = str(tmp_path / "out")
    assert cli.main(workload.argv(config, prefix, size)) == 0
    assert workloads.check_outputs(workload, prefix, None, size)[0] == []
    json_path = Path(workload.outputs(prefix)[1])
    summary = json.loads(json_path.read_text())
    summary["verdicts"]["indirect"] = "unsymplectic"
    json_path.write_text(json.dumps(summary))
    failures, _ = workloads.check_outputs(workload, prefix, None, size)
    assert len(failures) == 1 and "verdicts" in failures[0]


def test_layer_counts_repeat_exactly():
    first, second = (_short("ledger-1d", traced=True)["metrics"] for _ in range(2))
    steps = workloads.WORKLOADS["ledger-1d"].short_size
    for name in ("linalg.lu_factor.calls", "linalg.lu_solve.calls",
                 "linalg.lu_factor.flops", "diagnostics.energy_report.calls"):
        assert first[name]["value"] == second[name]["value"]
    assert first["linalg.lu_factor.calls"]["value"] == steps + 1
    assert first["diagnostics.energy_report.calls"]["value"] == 2


def test_tracer_restores_the_package():
    originals = [getattr(module, attr) for module, attr, _, _ in spans.TARGETS]
    with spans.Tracer():
        assert all(getattr(module, attr) is not fn for (module, attr, _, _), fn
                   in zip(spans.TARGETS, originals))
    assert [getattr(module, attr) for module, attr, _, _ in spans.TARGETS] == originals


def test_self_time_excludes_children():
    reduced = spans.reduce_spans([
        (0, "root", 0.0, 10.0, None, 0),
        (0, "child", 1.0, 4.0, 0, 5),
        (0, "child", 5.0, 6.0, 0, 5),
        (0, "grandchild", 1.5, 2.0, 1, 0),
    ])
    assert reduced["root"]["self_s"] == 6.0
    assert reduced["child"] == {"calls": 2, "s": 4.0, "self_s": 3.5, "work": 10}


def test_nesting_check_catches_broken_trees():
    tree = [(0, spans.ROOT_SPAN, 0.0, 10.0, None, 0), (0, "child", 1.0, 4.0, 0, 0),
            (0, "grandchild", 1.5, 2.0, 1, 0)]
    assert spans.nesting_failures(tree) == []
    assert spans.nesting_failures([])
    outside = tree[:2] + [(0, "grandchild", 3.5, 4.5, 1, 0)]
    assert "not inside" in spans.nesting_failures(outside)[0]
    orphan = tree + [(0, "orphan", 11.0, 12.0, None, 0)]
    assert "root spans" in spans.nesting_failures(orphan)[0]
    mixed = tree[:2] + [(1, "grandchild", 1.5, 2.0, 1, 0)]
    assert "invocation ids" in spans.nesting_failures(mixed)[0]


def test_tail_has_ten_samples_beyond_it():
    assert bench._tail([float(i) for i in range(1, 241)]) == \
        "p95.8 230 s with 10 beyond it"
    assert bench._tail([1.0] * 10).startswith("no percentile")


def test_dense_config_is_seeded_and_certified(tmp_path):
    a, b = workloads.dense_config(3, 10), workloads.dense_config(3, 10)
    assert a == b != workloads.dense_config(4, 10)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(a))
    system = cli.load_config(path).system
    assert system.n == 16 and system.monotone_energy_certified
    assert (system.K == system.K.T).all() and (system.C == system.C.T).all()


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = np.ones(96 * 2**20 // 8)  # 96 MiB resident in this process
    run = bench.Run(workloads.WORKLOADS["ladder-1d"], 0, True, str(tmp_path))
    (peak,) = run.rss_samples(1)
    del ballast
    assert run.failed == 0 and 10 < peak < 90


def test_scratch_is_removed():
    _short("ladder-1d", traced=False)
    assert not bench.SCRATCH.exists()


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "ledger-1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
