"""Command-line interface: artifacts, determinism, error contracts."""

import contextlib
import errno
import io
import json
import math
import os
import pathlib
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import damped_midpoint.cli as cli
import damped_midpoint.diagnostics as diagnostics
from damped_midpoint import factored_symplectic_defect, integrate, integrators, linalg, \
    scheme_factors
from damped_midpoint.cli import bundled_config_path, load_config
from damped_midpoint.integrators import _verify_chunk
from entry_configs import CASES, ENTRY_CONFIGS, SUBCOMMANDS, STEPS, argument, write


def run_cli(args):
    return cli.main([str(a) for a in args])


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON: ``NaN`` and ``Infinity`` raise."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def undamped_config(tmp_path):
    path = tmp_path / "undamped.json"
    path.write_text(json.dumps({
        "label": "undamped",
        "system": {"K": [[2.0, 0.0], [0.0, 3.0]], "C": [[0.0, 0.0], [0.0, 0.0]]},
        "initial": {"q": [0.3, -0.2], "p": [0.1, 0.4]},
        "tau": 0.1,
        "n_steps": 200,
        "method": "midpoint_direct",
    }))
    return path


@pytest.fixture()
def unstable_config(tmp_path):
    """Negative damping: the energy overflows at step 149."""
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"system": {"K": [[1.0]], "C": [[-5.0]]},
                                "initial": {"q": [0.1], "p": [0.2]}, "tau": 0.5,
                                "n_steps": 10}))
    return path


@pytest.fixture()
def tiny_config(tmp_path):
    """A run whose τ·(q' + q) underflows to 0 at step 1, so K̃ is 0/0."""
    return write(tmp_path / "tiny.json", "ktilde00", n_steps=5)


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["paper_1d", "paper_2d"])
    def test_exists_and_parses(self, name):
        cfg = load_config(bundled_config_path(name))
        assert cfg.tau == 0.2
        assert cfg.n_steps == 250
        assert cfg.method == "midpoint_direct"
        assert cfg.system.monotone_energy_certified

    def test_directory_is_resolved_once(self, monkeypatch, tmp_path, capsys):
        """The configs directory is looked up once per process, not on
        every CLI call that names a bundled config."""
        files, lookups = cli.resources.files, []

        def counting(package):
            lookups.append(package)
            return files(package)
        monkeypatch.setattr(cli.resources, "files", counting)
        cli._bundled_configs.cache_clear()
        try:
            for name in ("paper_1d", "paper_2d", "paper_1d.json"):
                assert bundled_config_path(name).is_file()
            assert run_cli(["run", "--config", "paper_1d", "--steps", 3,
                            "--out", tmp_path / "p"]) == 0
        finally:
            cli._bundled_configs.cache_clear()
        assert lookups == ["damped_midpoint"]

    @pytest.mark.parametrize("name", ["paper_1d", "paper_2d"])
    def test_round_trip(self, name, tmp_path):
        cfg = load_config(bundled_config_path(name))
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps({
            "label": cfg.label,
            "system": {"label": cfg.system.label, "K": cfg.system.K.tolist(),
                       "C": cfg.system.C.tolist()},
            "initial": {"t": cfg.initial.t, "q": cfg.initial.q.tolist(),
                        "p": cfg.initial.p.tolist()},
            "tau": cfg.tau, "n_steps": cfg.n_steps, "method": cfg.method,
            "epsilon": cfg.epsilon, "output_prefix": cfg.output_prefix,
        }))
        cfg2 = load_config(echo)
        assert np.array_equal(cfg.system.K, cfg2.system.K)
        assert np.array_equal(cfg.system.C, cfg2.system.C)
        assert np.array_equal(cfg.initial.q, cfg2.initial.q)
        assert np.array_equal(cfg.initial.p, cfg2.initial.p)
        assert (cfg.tau, cfg.n_steps, cfg.method, cfg.epsilon) == \
               (cfg2.tau, cfg2.n_steps, cfg2.method, cfg2.epsilon)

    def test_bare_name_resolves(self, tmp_path):
        assert run_cli(["run", "--config", "paper_1d",
                        "--out", tmp_path / "x", "--steps", 5]) == 0


class TestRun:
    def test_paper_1d_artifacts(self, tmp_path):
        prefix = tmp_path / "p1"
        assert run_cli(["run", "--config", "paper_1d", "--out", prefix]) == 0
        csv_path = tmp_path / "p1.trajectory.csv"
        summary = read_json(tmp_path / "p1.summary.json")
        assert csv_path.exists()
        assert summary["max_hhat_deviation"] <= 1e-10
        assert summary["energy_monotone"] is True
        assert summary["singular_steps"] == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == ("step,t,q_0,p_0,E,work_cum,hhat,"
                          "defect_direct,defect_indirect,singular")
        assert len(csv_path.read_text().splitlines()) == 252  # header + 251 rows

    def test_paper_2d_artifacts(self, tmp_path):
        prefix = tmp_path / "p2"
        assert run_cli(["run", "--config", "paper_2d", "--out", prefix]) == 0
        summary = read_json(tmp_path / "p2.summary.json")
        assert summary["max_hhat_deviation"] <= 1e-10
        assert summary["energy_monotone"] is True

    def test_deterministic_csv(self, tmp_path):
        assert run_cli(["run", "--config", "paper_1d", "--out", tmp_path / "a"]) == 0
        assert run_cli(["run", "--config", "paper_1d", "--out", tmp_path / "b"]) == 0
        a = (tmp_path / "a.trajectory.csv").read_bytes()
        b = (tmp_path / "b.trajectory.csv").read_bytes()
        assert a == b

    def test_zero_steps_rejected_without_files(self, tmp_path, capsys):
        rc = run_cli(["run", "--config", "paper_1d", "--out", tmp_path / "x",
                      "--steps", 0])
        assert rc == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config"

    def test_flag_overrides(self, tmp_path):
        assert run_cli(["run", "--config", "paper_1d", "--out", tmp_path / "x",
                        "--tau", 0.1, "--steps", 10, "--method",
                        "midpoint_indirect", "--epsilon", 1e-6]) == 0
        summary = read_json(tmp_path / "x.summary.json")
        assert summary["tau"] == 0.1
        assert summary["n_steps"] == 10
        assert summary["method"] == "midpoint_indirect"
        assert summary["epsilon"] == 1e-6

    def test_unwritable_prefix_reports_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        rc = run_cli(["run", "--config", "paper_1d",
                      "--out", blocker / "sub" / "out"])
        assert rc == cli.EXIT_IO
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "io"
        assert "blocker" in err["error"].get("path", "") + err["error"]["message"]

    def test_missing_config(self, tmp_path, capsys):
        rc = run_cli(["run", "--config", tmp_path / "nope.json",
                      "--out", tmp_path / "x"])
        assert rc == cli.EXIT_CONFIG

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli(["run", "--config", bad, "--out", tmp_path / "x"])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("text", ["null", '"x"', "3",
                                      json.dumps(ENTRY_CONFIGS["nonobject"].config)])
    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = run_cli(["run", "--config", bad, "--out", tmp_path / "x"])
        assert rc == cli.EXIT_CONFIG
        error = strict_json(capsys.readouterr().err)["error"]
        assert error["type"] == "config" and "must be a JSON object" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"label": "\xff"}')
        rc = run_cli(["run", "--config", bad, "--out", tmp_path / "x"])
        assert rc == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"

    def test_system_field_may_reference_file(self, tmp_path):
        (tmp_path / "plant.json").write_text(json.dumps(
            {"label": "plant", "K": [[2.0]], "C": [[0.05]]}))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "system": "plant.json",
            "initial": {"q": [0.1], "p": [0.2]},
            "tau": 0.2,
            "n_steps": 5,
        }))
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 0
        assert read_json(tmp_path / "x.summary.json")["initial_energy"] == \
               pytest.approx(0.03, abs=1e-15)

    def test_horizon_consistency_checked(self, tmp_path, capsys):
        good = write(tmp_path / "good.json", "paper_1d", horizon=50.0)
        assert run_cli(["run", "--config", good, "--out", tmp_path / "ok"]) == 0
        bad = write(tmp_path / "bad.json", "paper_1d", horizon=49.0)
        assert run_cli(["run", "--config", bad,
                        "--out", tmp_path / "no"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("field", ['"n_steps": 2.7', '"n_steps": true',
                                       '"tau": true', '"epsilon": 1e999',
                                       '"horizon": "ten"',
                                       '"system": {"K": [[true]], "C": [[0.05]]}',
                                       '"system": {"K": [[2.0]], "C": [["0.05"]]}',
                                       '"initial": {"q": [true], "p": [0.2]}',
                                       '"initial": {"q": [0.1], "p": ["1"]}',
                                       '"label": null', '"label": 3',
                                       '"system": {"label": null, "K": [[2.0]], "C": [[0.05]]}',
                                       '"system": {"label": [], "K": [[2.0]], "C": [[0.05]]}',
                                       '"method": null', '"output_prefix": true',
                                       '"output_prefix": 5'])
    def test_config_values_not_coerced(self, tmp_path, capsys, field):
        base = bundled_config_path("paper_1d").read_text().rstrip().rstrip("}")
        cfg = tmp_path / "bad.json"
        cfg.write_text(f"{base}, {field}}}")   # a repeated key overrides the base
        rc = run_cli(["run", "--config", cfg, "--out", tmp_path / "x"])
        assert rc == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("prefix", ["true", "5", '["x"]', "null"])
    def test_output_prefix_must_be_a_string(self, tmp_path, capsys, prefix):
        """Without ``--out`` the config's ``output_prefix`` names the
        outputs; one that is not a string is a config error, and so is a
        null one, which leaves the outputs unnamed."""
        base = bundled_config_path("paper_1d").read_text().rstrip().rstrip("}")
        cfg = tmp_path / "bad.json"
        cfg.write_text(f'{base}, "output_prefix": {prefix}}}')
        assert run_cli(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_null_output_prefix_allowed(self, tmp_path):
        base = bundled_config_path("paper_1d").read_text().rstrip().rstrip("}")
        cfg = tmp_path / "null.json"
        cfg.write_text(f'{base}, "output_prefix": null}}')
        assert load_config(cfg).output_prefix is None
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 0

    @pytest.mark.parametrize("field", ['"tau": BIG', '"epsilon": BIG', '"horizon": BIG',
                                       '"initial": {"t": BIG, "q": [0.1], "p": [0.2]}',
                                       '"initial": {"q": [BIG], "p": [0.2]}',
                                       '"system": {"K": [[BIG]], "C": [[0.05]]}',
                                       '"n_steps": 1' + "0" * 5000],
                             ids=["tau", "epsilon", "horizon", "initial.t", "initial.q",
                                  "system.K", "n_steps-5001-digits"])
    def test_oversized_integers_rejected(self, tmp_path, capsys, field):
        """JSON integers past the float range (10**400), and one past
        Python's 4300-digit conversion limit, are config errors."""
        base = bundled_config_path("paper_1d").read_text().rstrip().rstrip("}")
        cfg = tmp_path / "big.json"
        cfg.write_text(f"{base}, {field.replace('BIG', str(10 ** 400))}}}")
        rc = run_cli(["run", "--config", cfg, "--out", tmp_path / "x"])
        assert rc == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]

    @pytest.mark.parametrize("sub", ["run", "compare", "convergence", "check-symplectic"])
    @pytest.mark.parametrize("by_flag", [False, True], ids=["config", "steps-flag"])
    def test_horizon_with_a_step_count_past_the_float_range(self, tmp_path, capsys, sub,
                                                            by_flag):
        """An ``n_steps`` that no float holds, from the config or from
        ``--steps``, makes τ·n_steps overflow: with a horizon that is a
        config error, not an ``OverflowError``."""
        big = 10 ** 400
        cfg = write(tmp_path / "big.json", "paper_1d", n_steps=10 if by_flag else big,
                    horizon=1.0)
        rc = run_cli([sub, "--config", cfg, "--out", tmp_path / "x",
                      *(["--steps", big] if by_flag else [])])
        assert rc == cli.EXIT_CONFIG
        error = strict_json(capsys.readouterr().err)["error"]
        assert error == {"type": "config",
                         "message": "tau*n_steps = inf does not match horizon 1.0"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # (τ/2)² K = -I makes the implicit factor exactly singular
        cfg = tmp_path / "singular.json"
        cfg.write_text(json.dumps({
            "system": {"K": [[-4.0]], "C": [[0.0]]},
            "initial": {"q": [1.0], "p": [0.0]},
            "tau": 1.0,
            "n_steps": 3,
        }))
        rc = run_cli(["run", "--config", cfg, "--out", tmp_path / "x"])
        assert rc == cli.EXIT_SOLVER
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "solver"

    def test_overflowing_initial_energy_rejected(self, tmp_path, capsys):
        """A finite initial state whose energy overflows (½·2·(1e308)²)
        is a config error, not a run whose artifacts hold ``Infinity``."""
        base = bundled_config_path("paper_1d").read_text().rstrip().rstrip("}")
        cfg = tmp_path / "huge.json"
        cfg.write_text(f'{base}, "initial": {{"q": [1e308], "p": [0.2]}}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["run", "--config", cfg, "--out", tmp_path / "x", "--steps", 5])
        assert rc == cli.EXIT_CONFIG
        error = strict_json(capsys.readouterr().err)["error"]
        assert error["type"] == "config" and "initial energy" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]

    def test_run_past_the_byte_bound_is_refused_before_stepping(self, tmp_path, capsys):
        """10¹² steps would need about 73 TB of arrays; the run is refused
        at once, naming the bound, and writes nothing."""
        rc = run_cli(["run", "--config", "paper_1d", "--out", tmp_path / "x",
                      "--steps", 10 ** 12])
        assert rc == cli.EXIT_SOLVER
        error = strict_json(capsys.readouterr().err)["error"]
        assert error["type"] == "solver" and "MAX_RUN_BYTES" in error["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sub", ["run", "compare", "convergence", "check-symplectic"])
    def test_time_past_the_float_range_is_refused_before_stepping(self, tmp_path, capsys, sub):
        """t₀ = τ = 1e308: the timestamps overflow, so every subcommand
        refuses the run (for convergence, a ladder of one step of τ) with a
        solver error, no warning and no file."""
        config = write(tmp_path / "late.json", "late")
        extra = ["--levels", 1, "--t-final", 1e308] if sub == "convergence" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli([sub, "--config", config, "--out", tmp_path / "x", *extra])
        assert rc == cli.EXIT_SOLVER
        error = strict_json(capsys.readouterr().err)["error"]
        assert error["type"] == "solver" and "t0 + n_steps*tau" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["late.json"]

    def test_allocation_failure_is_solver_error(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 5.96 GiB for an array with shape (400000001, 2)"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "integrate", no_memory)
        rc = run_cli(["run", "--config", "paper_1d", "--out", tmp_path / "x"])
        assert rc == cli.EXIT_SOLVER
        assert strict_json(capsys.readouterr().err)["error"] == \
               {"type": "solver", "message": message}
        assert list(tmp_path.iterdir()) == []


class TestArtifacts:
    """What every subcommand writes and prints: one CSV and one JSON next
    to the prefix, the JSON's ``files`` naming both, and one ``wrote``
    line after any verdict lines; a failed run writes nothing."""

    @pytest.mark.parametrize("sub, csv_kind, json_kind",
                             [(sub, *kinds) for sub, kinds in SUBCOMMANDS.items()])
    def test_files_and_stdout(self, tmp_path, capsys, sub, csv_kind, json_kind):
        prefix = tmp_path / "new" / "p"
        assert run_cli([sub, "--config", "paper_1d", "--out", prefix, "--steps", 20]) == 0
        csv_path = prefix.with_name(f"p.{csv_kind}.csv")
        json_path = prefix.with_name(f"p.{json_kind}.json")
        assert sorted(prefix.parent.iterdir()) == sorted({csv_path, json_path})
        summary = strict_json(json_path.read_text(encoding="utf-8"))
        assert summary["files"] == [str(csv_path), str(json_path)]
        lines = [f"wrote {csv_path} and {json_path}"]
        if sub == "check-symplectic":
            lines[:0] = [f"{family} transition family: {summary['verdicts'][family]} "
                         f"(max defect {summary[f'defect_{family}_max']:.3e})"
                         for family in ("direct", "indirect")]
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("sub", ["run", "compare", "check-symplectic"])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, sub, unstable_config):
        rc = run_cli([sub, "--config", unstable_config, "--steps", 400,
                      "--out", tmp_path / "new" / "x"])
        assert rc == cli.EXIT_SOLVER
        assert json.loads(capsys.readouterr().err)["error"]["step"] == 149
        assert [p.name for p in tmp_path.iterdir()] == ["unstable.json"]

    def test_overflowing_ledger_writes_nothing(self, tmp_path, capsys, unstable_config):
        """Every state of 295 steps is finite, but the energy overflows at
        step 149: the run fails there, with no file and no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(["run", "--config", unstable_config, "--steps", 295,
                          "--out", tmp_path / "new" / "x"])
        assert rc == cli.EXIT_SOLVER
        err = strict_json(capsys.readouterr().err)["error"]
        assert err["step"] == 149 and "ledger is not finite" in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["unstable.json"]

    def test_unserialisable_summary_writes_nothing(self, tmp_path):
        prefix = tmp_path / "new" / "x"
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._write_artifacts(str(prefix), ("a", "b"), "x\n", {"value": object()})
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_statistic_is_null(self, tmp_path, capsys, tiny_config):
        """K̃ is 0/0 where τ·(q' + q) underflows: the run is finite, its
        indirect defect maximum is NaN and is written as null."""
        prefix = tmp_path / "x"
        rc = run_cli(["run", "--config", tiny_config, "--method", "midpoint_direct",
                      "--out", prefix])
        assert rc == 0, capsys.readouterr().err
        summary = strict_json((tmp_path / "x.summary.json").read_text(encoding="utf-8"))
        assert summary["defect_indirect_max"] is None
        assert summary["singular_steps"] == 0
        assert json.loads(cli._json_text([float("inf"), {"a": -math.inf}, (math.nan, 1.5)])) \
            == [None, {"a": None}, [None, 1.5]]

    @pytest.mark.parametrize("sub", ["run", "check-symplectic"])
    @pytest.mark.parametrize("method, code", [("midpoint_direct", 0),
                                              ("midpoint_indirect", cli.EXIT_SOLVER),
                                              ("rk4", 0)])
    def test_ktilde_zero_over_zero_warns_nothing(self, tmp_path, capsys, tiny_config,
                                                 sub, method, code):
        """K̃'s 0/0 is NaN without a RuntimeWarning, on the stepping path of
        the indirect scheme and on the verification path of the others."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli([sub, "--config", tiny_config, "--method", method,
                          "--out", tmp_path / "x"])
        out, err = capsys.readouterr()
        assert rc == code, err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        if sub == "check-symplectic" and method == "midpoint_direct":
            # The K̃ 0/0 defects are NaN: no maximum is printed.
            assert "indirect transition family: insufficient data " \
                   "(a defect is not finite)\n" in out

    @pytest.mark.parametrize("sub, name, code", [
        ("compare", "huge", cli.EXIT_SOLVER),
        ("check-symplectic", "huge", cli.EXIT_SOLVER),
        ("check-symplectic", "nancell", 0),
        ("check-symplectic", "ktilde-sum", 0),
    ], ids=["scheme-factors-compare", "scheme-factors-check", "factor-defect", "ktilde-sum"])
    def test_overflow_warns_nothing(self, tmp_path, capsys, sub, name, code):
        """Arithmetic past the float limit is silent (the ``huge``,
        ``nancell`` and ``ktilde-sum`` configs of ``entry_configs``)."""
        config = write(tmp_path / "huge.json", name, n_steps=5)
        prefix = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli([sub, "--config", config, "--out", prefix])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert rc == code, err
        if code:
            assert strict_json(err)["error"]["step"] == 1
        else:
            strict_json((tmp_path / "x.symplectic.json").read_text(encoding="utf-8"))


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        """A run, an argv without ``--config`` and a compare in one process
        share one parser; the compare writes what it writes on its own."""
        cli._build_parser.cache_clear()
        alone = tmp_path / "alone"
        assert run_cli(["compare", "--config", "paper_2d", "--steps", 30, "--out", alone]) == 0
        capsys.readouterr()
        assert run_cli(["run", "--config", "paper_1d", "--steps", 20,
                        "--out", tmp_path / "run"]) == 0
        with pytest.raises(SystemExit) as stop:
            run_cli(["run", "--steps", 20])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: damped-midpoint run") and "--config" in err
        again = tmp_path / "again"
        assert run_cli(["compare", "--config", "paper_2d", "--steps", 30, "--out", again]) == 0
        assert (tmp_path / "again.compare.csv").read_bytes() \
            == (tmp_path / "alone.compare.csv").read_bytes()
        first, second = (dict(read_json(tmp_path / f"{name}.compare.json"),
                              files=None, wall_time_s=None) for name in ("alone", "again"))
        assert first == second
        assert cli._build_parser.cache_info().misses == 1


def test_benchmark_span_targets_resolve():
    """Each name the benchmark's tracer patches (``perfbench/spans.py``)
    is a callable of its module; a renamed ``cli`` global would fail every
    traced benchmark run when the tracer looks it up."""
    from perfbench import spans
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


class TestWriteAtomic:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        cli._write_atomic(target, "old\n")
        with pytest.raises(UnicodeEncodeError):
            cli._write_atomic(target, "x" * 100_000 + "\ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "old\n"

    def test_writes_to_one_path_use_distinct_temp_files(self, tmp_path, monkeypatch):
        renamed = []
        replace = os.replace

        def recording_replace(src, dst):
            renamed.append(src)
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", recording_replace)
        cli._write_atomic(tmp_path / "out.csv", "a\n")
        cli._write_atomic(tmp_path / "out.csv", "b\n")
        assert len(set(renamed)) == 2
        assert all(os.path.dirname(src) == str(tmp_path) for src in renamed)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_file_mode_is_that_of_a_plain_open(self, tmp_path):
        (tmp_path / "plain").write_text("")
        cli._write_atomic(tmp_path / "atomic", "")
        assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode

    @pytest.mark.parametrize("umask", [0o027, 0o077], ids=["027", "077"])
    def test_file_mode_follows_the_umask_it_never_touches(self, tmp_path, monkeypatch, umask):
        """Under a restrictive umask the file still gets a plain ``open``'s
        mode, and ``_write_atomic`` neither reads nor sets the umask (a
        process-wide umask of 0, even for a moment, would let another
        thread create a world-writable file)."""
        set_umask = os.umask
        saved = set_umask(umask)
        try:
            (tmp_path / "plain").write_text("")

            def no_umask(mask):
                raise AssertionError("the umask was read or set")
            monkeypatch.setattr(os, "umask", no_umask)
            cli._write_atomic(tmp_path / "atomic", "a\n")
            cli._write_atomic(tmp_path / "atomic", "b\n")
        finally:
            set_umask(saved)
        plain = (tmp_path / "plain").stat().st_mode
        assert plain & 0o777 == 0o666 & ~umask
        assert (tmp_path / "atomic").stat().st_mode == plain
        assert (tmp_path / "atomic").read_text() == "b\n"

    def test_a_temp_name_in_use_is_skipped(self, tmp_path, monkeypatch):
        """A random temp name that already exists is never opened: the
        write draws another one and leaves that file as it was."""
        draws = iter([b"\0" * 6, b"\0" * 6, b"\1" * 6])
        monkeypatch.setattr(os, "urandom", lambda size: next(draws))
        taken = tmp_path / f"out.csv.{'00' * 6}.tmp"
        taken.write_text("someone else's\n")
        cli._write_atomic(tmp_path / "out.csv", "a\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", taken.name]
        assert taken.read_text() == "someone else's\n"
        assert (tmp_path / "out.csv").read_text() == "a\n"

    @pytest.mark.parametrize("slices, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["0", "W-1", "W", "W+1", "3W+5"])
    def test_slices_encode_as_the_whole_text(self, tmp_path, slices, extra):
        """Each slice of W characters is encoded on its own; characters of
        two, three and four UTF-8 bytes on either side of every slice
        boundary, and at both ends, come out as the whole text's encoding."""
        width = cli._WRITE_SLICE_CHARS
        length = slices * width + extra
        ends = {0, length - 1} | {i for b in range(width, length, width) for i in (b - 1, b)}
        text = "".join("é€😀"[i % 3] if i in ends else "a" for i in range(length))
        cli._write_atomic(tmp_path / "out.csv", text)
        assert (tmp_path / "out.csv").read_bytes() == text.encode("utf-8")

    def test_a_failed_later_slice_keeps_the_old_target(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        cli._write_atomic(target, "old\n")
        writes = []

        class FullDisk:
            """A file whose second write fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                writes.append(len(data))
                if len(writes) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        monkeypatch.setattr(cli, "open", lambda *args: FullDisk(open(*args)), raising=False)
        with pytest.raises(OSError) as failure:
            cli._write_atomic(target, "x" * (3 * cli._WRITE_SLICE_CHARS))
        assert failure.value.errno == errno.ENOSPC
        assert writes == [cli._WRITE_SLICE_CHARS] * 2
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "old\n"


class TestCsv:
    @staticmethod
    def reference(x):
        """The one cell rule, cell by cell."""
        if x is None:
            return ""
        if isinstance(x, str):
            return x
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(x)
        return "%.17g" % x if math.isfinite(x) else ""

    def test_blocks_match_the_per_cell_reference(self):
        """Three blocks, the last one short, of every column kind the
        builders pass, against a reference that formats cell by cell. A
        float that is not finite is an empty cell in a float array, in a
        list with Nones and as a run constant; blocks with one and blocks
        without both occur. Run constants sit between columns that pass
        values, which keep their order."""
        block = cli._CSV_BLOCK_ROWS
        rows = 2 * block + 3
        rng = np.random.default_rng(17)
        special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]
        floats = rng.standard_normal(rows)
        floats[::7] = np.resize(special, len(floats[::7]))
        states = rng.standard_normal((rows, 3))
        states[block + 1::5, 1] = np.resize(special, len(states[block + 1::5]))
        nones = [None] * block + [None if k % 3 else float(k) for k in range(rows - block)]
        nones[-1] = math.inf
        columns = [range(rows), floats, 0.1, -floats[::-1], states.T[1], math.nan,
                   rng.random(rows) < 0.5, nones, -2.5e-300, np.arange(rows) * 3]
        header = [f"c{k}" for k in range(len(columns))]
        expected = "".join(",".join(line) + "\n" for line in [header] + [
            [self.reference(column if isinstance(column, float) else column[i])
             for column in columns] for i in range(rows)])
        assert cli._csv(header, columns) == expected
        cells = set(expected.replace("\n", ",").split(","))
        assert {"-0", "", "4.9406564584124654e-324", "1e+308", "0.10000000000000001",
                "-2.5e-300"} <= cells
        assert not {"nan", "inf", "-inf"} & cells
        assert [cli._cells(states.T[1][lo:lo + block])[0] for lo in range(0, rows, block)] \
            == ["%.17g", "%s", "%s"]

    def test_nonsingular_column_blocks_match_the_per_cell_reference(self):
        """A per-step defect column as the integrator leaves it, NaN on
        singular steps, and with a NaN and an infinity on steps that are
        not singular, rendered a block at a time: a whole first block of
        singular steps, a block boundary inside a run of them, and a
        short last block. Every such cell is empty."""
        block = cli._CSV_BLOCK_ROWS
        rows = 2 * block + 5
        rng = np.random.default_rng(23)
        values = rng.standard_normal(rows)
        values[block + 1] = math.nan
        values[block + 3] = -math.inf
        singular = np.zeros(rows, dtype=bool)
        singular[:block] = True
        singular[block + 2::3] = True
        singular[2 * block - 1:2 * block + 1] = True
        column = np.where(singular, math.nan, values)
        expected = "c0,c1\n" + "".join(
            f"{k},{'' if singular[k] or not math.isfinite(values[k]) else '%.17g' % values[k]}\n"
            for k in range(rows))
        assert cli._csv(["c0", "c1"], [range(rows), column]) == expected
        lines = expected.splitlines()
        assert [lines[1 + k].endswith(",") for k in (block - 1, block, block + 1, block + 3)] \
            == [True, False, True, True]
        assert lines[2 * block].endswith(",") and lines[2 * block + 1].endswith(",")

    @pytest.mark.parametrize("column, expected", [
        (np.array([0.1, -2.5, 1e308]), ("%.17g", [0.1, -2.5, 1e308])),
        (np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.5]),
         ("%s", ["", "", "", "-0", "4.9406564584124654e-324", "1.5"])),
        (np.arange(3, dtype=np.int64), ("%d", [0, 1, 2])),
        ([np.int64(7), np.int32(-1)], ("%d", [np.int64(7), np.int32(-1)])),
        (range(4, 7), ("%d", range(4, 7))),
        (np.array([True, False]), ("%s", ["true", "false"])),
        (0.25, ("0.25", [])),
        ([None, 2.0, None, math.nan], ("%s", ["", "2", "", ""])),
        ([None, None], ("%s", ["", ""])),
    ], ids=["finite-floats", "non-finite-floats", "int-array", "numpy-ints", "range",
            "bools", "repeated", "floats-and-none", "all-none"])
    def test_block_format_and_values(self, column, expected):
        """Each block path: its format and the values ``%`` takes, which
        give the per-cell reference's cells. A run constant (a float) is
        its own cell, a literal format that takes no values."""
        fmt, values = cli._cells(column)
        assert (fmt, list(values)) == (expected[0], list(expected[1]))
        if isinstance(column, float):
            assert fmt == self.reference(column)
        else:
            assert [fmt % value for value in values] == [self.reference(x) for x in column]

    @pytest.mark.parametrize("start", [0, 1])
    def test_repeated_column_blocks_match_the_per_cell_reference(self, monkeypatch, start):
        """A run constant rendered a block at a time down to a short last
        block. With ``start`` = 1 it is empty on row 0 only: row 0 is a
        one-row group of its own whose constant is NaN, as ``run``
        renders its initial row. A constant that is not finite is empty.
        Each constant is formatted once per group, not once per block."""
        block = cli._CSV_BLOCK_ROWS
        rows = 2 * block + 5
        cells, constants = cli._cells, []

        def counting(column):
            if isinstance(column, float):
                constants.append(column)
            return cells(column)
        monkeypatch.setattr(cli, "_cells", counting)
        for value, cell in ((0.125, "0.125"), (math.nan, ""), (math.inf, ""), (-math.inf, "")):
            constants.clear()
            groups = [[range(start), math.nan]] * start + [[range(start, rows), value]]
            text = cli._csv(["c0", "c1"], *groups)
            assert len(constants) == len(groups)
            reference = [""] * start + [cell] * (rows - start)
            assert text == "c0,c1\n" + "".join(f"{k},{reference[k]}\n" for k in range(rows))


class TestMemory:
    @pytest.mark.parametrize("argv, csv_name", [
        (["run", "--config", "paper_1d", "--method", "midpoint_direct", "--steps", 20000],
         "x.trajectory.csv"),
        (["compare", "--config", "paper_2d", "--steps", 5000], "x.compare.csv"),
    ], ids=["run", "compare"])
    def test_render_and_write_peak_is_a_small_multiple_of_the_csv(
            self, tmp_path, monkeypatch, argv, csv_name):
        """The traced heap peak of a long run's energy report, render and
        write stays within 3.5 times its CSV file's size (about 2.5 times
        when the text is held at most twice, about 5 when every row string,
        full-column lists or the encoded text are held beside it). The
        integrations run untraced, as tracing slows them about fivefold;
        tracing restarts after each, so the peak counts what follows the
        last one."""
        integrate = cli.integrate

        def untraced(*args, **kwargs):
            tracemalloc.stop()
            try:
                return integrate(*args, **kwargs)
            finally:
                tracemalloc.start()

        monkeypatch.setattr(cli, "integrate", untraced)
        tracemalloc.start()
        try:
            assert run_cli(argv + ["--out", tmp_path / "x"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (tmp_path / csv_name).stat().st_size


class TestCompare:
    def test_takes_no_symplectic_defects(self, tmp_path, monkeypatch):
        """``compare`` reports no defect, so it solves no transition matrix
        and takes no defect or norm; the direct and RK4 runs still factor
        their substituting maps in one stacked pass each, which is where a
        singular one fails them. The three ``integrate`` runs it replaces
        do all of it."""
        counts = dict.fromkeys(("defect", "norm", "stacked solve", "stacked factor"), 0)

        def spy(module, name, key, stacked=lambda *args: True):
            original = getattr(module, name)

            def call(*args, **kwargs):
                counts[key] += stacked(*args)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        spy(integrators, "symplectic_defect", "defect")
        spy(integrators, "frobenius_squared", "norm")
        spy(linalg, "lu_solve", "stacked solve", lambda f, b: f[0].ndim == 3)
        spy(linalg, "lu_factor", "stacked factor", lambda a: np.ndim(a) == 3)
        assert run_cli(["compare", "--config", "paper_2d", "--steps", 100,
                        "--out", tmp_path / "cmp"]) == 0
        assert counts == {"defect": 0, "norm": 0, "stacked solve": 0, "stacked factor": 2}
        cfg = load_config(bundled_config_path("paper_2d"))
        for method in ("midpoint_direct", "midpoint_indirect", "rk4"):
            integrate(cfg.system, cfg.initial, cfg.tau, 100, method, cfg.epsilon)
        assert counts == {"defect": 6, "norm": 6, "stacked solve": 3, "stacked factor": 4}

    def test_time_axis_is_the_runs(self, tmp_path):
        """``compare``'s t column is its runs' own, so it starts at t₀ bit
        for bit as ``run``'s does, a -0.0 included."""
        config = write(tmp_path / "negzero.json", "negzero", n_steps=3)
        for sub, kind in (("run", "trajectory"), ("compare", "compare")):
            assert run_cli([sub, "--config", config, "--out", tmp_path / sub]) == 0
            rows = (tmp_path / f"{sub}.{kind}.csv").read_text().splitlines()
            assert rows[1].startswith("0,-0,") and rows[2].startswith("1,0.20000000000000001,")

    def test_paper_2d_equivalence_recorded(self, tmp_path):
        prefix = tmp_path / "cmp"
        assert run_cli(["compare", "--config", "paper_2d", "--out", prefix,
                        "--steps", 250]) == 0
        summary = read_json(tmp_path / "cmp.compare.json")
        assert summary["max_state_discrepancy_direct_vs_indirect"] <= 1e-11
        assert summary["energy_drift_max_hhat_deviation"]["rk4"] > \
               summary["energy_drift_max_hhat_deviation"]["direct"]
        csv_lines = (tmp_path / "cmp.compare.csv").read_text().splitlines()
        assert csv_lines[0].startswith("step,t,direct_q_0")
        assert len(csv_lines) == 252

    def test_undamped_all_methods_flat(self, tmp_path, undamped_config):
        assert run_cli(["compare", "--config", undamped_config,
                        "--out", tmp_path / "flat"]) == 0
        summary = read_json(tmp_path / "flat.compare.json")
        drift = summary["energy_drift_max_hhat_deviation"]
        assert drift["direct"] <= 1e-12
        assert drift["indirect"] <= 1e-12
        # rk4 has no discrete identity; flat only to its truncation level
        assert drift["rk4"] <= 1e-4

    def test_periods_reported(self, tmp_path):
        assert run_cli(["compare", "--config", "paper_2d",
                        "--out", tmp_path / "cmp", "--steps", 120]) == 0
        summary = read_json(tmp_path / "cmp.compare.json")
        for method in ("direct", "indirect", "rk4"):
            assert summary["period_estimate"][method] > 0.0


class TestConvergence:
    def test_midpoint_ladder(self, tmp_path):
        assert run_cli(["convergence", "--config", "paper_1d",
                        "--out", tmp_path / "conv", "--tau-max", 0.1,
                        "--levels", 4, "--t-final", 10.0]) == 0
        rows = (tmp_path / "conv.convergence.csv").read_text().splitlines()
        assert rows[0] == "tau,error,observed_order"
        assert len(rows) == 5
        final_order = float(rows[-1].split(",")[2])
        assert abs(final_order - 2.0) <= 0.1

    def test_rk4_ladder(self, tmp_path):
        assert run_cli(["convergence", "--config", "paper_1d",
                        "--out", tmp_path / "conv", "--method", "rk4",
                        "--tau-max", 0.1, "--levels", 4, "--t-final", 10.0]) == 0
        rows = (tmp_path / "conv.convergence.csv").read_text().splitlines()
        final_order = float(rows[-1].split(",")[2])
        assert abs(final_order - 4.0) <= 0.2

    def test_single_level_row_without_order(self, tmp_path):
        assert run_cli(["convergence", "--config", "paper_1d",
                        "--out", tmp_path / "conv", "--tau-max", 0.1,
                        "--levels", 1, "--t-final", 10.0]) == 0
        rows = (tmp_path / "conv.convergence.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].endswith(",")

    def test_order_of_zero_error_is_null(self, tmp_path):
        """Errors [0, 5e-324, 0]: no ratio is finite and positive, so no
        order is written, and no log₂ of zero warns or writes -Infinity."""
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({
            "system": {"K": [[1.0]], "C": [[3.0]]},
            "initial": {"q": [0.0], "p": [5e-324]},
            "tau": 0.5, "n_steps": 2, "method": "rk4",
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["convergence", "--config", cfg, "--out", tmp_path / "conv",
                            "--levels", 3, "--t-final", 1.0]) == 0
        rows = strict_json((tmp_path / "conv.convergence.json").read_text())["rows"]
        assert [row["error"] for row in rows] == [0.0, 5e-324, 0.0]
        assert [row["observed_order"] for row in rows] == [None, None, None]
        lines = (tmp_path / "conv.convergence.csv").read_text().splitlines()
        assert all(line.endswith(",") for line in lines[1:])

    @pytest.mark.parametrize("extra, message", [
        (["--levels", 0], "levels must be >= 1"),
        (["--tau-max", -0.1], "must be positive"),
        # The second level halves the smallest subnormal step to 0.0.
        (["--tau-max", 5e-324, "--levels", 2, "--t-final", 5e-324],
         "step size 0.0 is not positive and finite"),
    ], ids=["levels-0", "negative-tau-max", "tau-halves-to-0"])
    def test_ladder_arguments_rejected(self, tmp_path, capsys, extra, message):
        rc = run_cli(["convergence", "--config", "paper_1d", "--out", tmp_path / "conv", *extra])
        assert rc == cli.EXIT_SOLVER
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "solver" and message in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_non_commensurate_rejected(self, tmp_path, capsys):
        rc = run_cli(["convergence", "--config", "paper_1d",
                      "--out", tmp_path / "conv", "--tau-max", 0.3,
                      "--levels", 2, "--t-final", 10.0])
        assert rc == cli.EXIT_SOLVER

    @pytest.mark.parametrize("config, extra", [
        ("paper_1d", ["--t-final", "inf"]),
        ("paper_1d", ["--t-final", 1e300, "--tau-max", 1e-10]),
        ("paper_1d", ["--levels", 1100]),
        # Only the RK4 reference step, tau_max / 1024, overflows the count.
        ("paper_2d", ["--t-final", 1e306, "--levels", 1]),
    ])
    def test_overflowing_ladder_rejected(self, tmp_path, capsys, config, extra):
        rc = run_cli(["convergence", "--config", config,
                      "--out", tmp_path / "conv", *extra])
        assert rc == cli.EXIT_SOLVER
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "solver"

    @pytest.mark.parametrize("extra", [
        ["--levels", 40],                       # 50 * 2**39 steps at the last level
        ["--tau-max", 1e-300, "--levels", 1],   # about 1e301 steps
    ])
    def test_study_past_step_ceiling_rejected(self, tmp_path, capsys, monkeypatch, extra):
        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused study must not step")
        monkeypatch.setattr(diagnostics, "propagate", no_stepping)
        rc = run_cli(["convergence", "--config", "paper_1d",
                      "--out", tmp_path / "conv", *extra])
        assert rc == cli.EXIT_SOLVER
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "solver" and "MAX_STUDY_STEPS" in error["message"]

    def test_study_past_its_cost_bound_rejected(self, tmp_path, capsys, monkeypatch):
        """An overdamped scalar system has no closed form: its 15 000
        indirect ladder steps come with 10.24 million RK4 reference steps,
        weighted past the bound (``diagnostics.STEP_COST``)."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused study must not step")
        monkeypatch.setattr(diagnostics, "propagate", no_stepping)
        config = write(tmp_path / "costly.json", "costly")
        rc = run_cli(["convergence", "--config", config, "--out", tmp_path / "conv",
                      "--levels", 2, "--t-final", 10.0])
        assert rc == cli.EXIT_SOLVER
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "solver" and "MAX_STUDY_STEPS" in error["message"]
        assert not (tmp_path / "conv.convergence.csv").exists()

    def test_study_whose_rk4_reference_amplifies_a_mode_rejected(self, tmp_path, capsys,
                                                                 monkeypatch):
        """C = 2860 puts the fast mode's hλ at -2.793 for h = 1/1024, past
        RK4's real-axis limit of -2.785, so |R(hλ)| = 1.0116 and the
        reference would grow a decaying mode 1.0116-fold a step (it used to
        report every error as 1.3e17). Refused before stepping; the
        message names h, the gain and the largest τ_max that passes,
        2.785·1024/2860 ≈ 0.997."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused study must not step")
        monkeypatch.setattr(diagnostics, "propagate", no_stepping)
        config = write(tmp_path / "stiff.json", "stiffref")
        rc = run_cli(["convergence", "--config", config, "--out", tmp_path / "conv",
                      "--tau-max", 1, "--levels", 4, "--t-final", 4])
        assert rc == cli.EXIT_SOLVER
        message = strict_json(capsys.readouterr().err)["error"]["message"]
        assert "h = 0.0009765625" in message and "= 1.01163 > 1 + 1e-12" in message
        assert message.endswith("the largest tau_max that passes is about 0.997252")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stiff.json"]

    def test_study_whose_rk4_reference_is_stable_keeps_its_bytes(self, tmp_path,
                                                                 monkeypatch):
        """The ``stiffref`` config at C = 2000 puts hλ at -1.95, inside
        RK4's stability interval: the study runs, and its CSV is byte for
        byte the one of a study whose check admits every finite gain."""
        config = write(tmp_path / "stiff.json", "stiffref",
                       system={"K": [[1.0]], "C": [[2000.0]]})
        texts = []
        for slack in (diagnostics.RK4_SLACK, math.inf):
            monkeypatch.setattr(diagnostics, "RK4_SLACK", slack)
            assert run_cli(["convergence", "--config", config, "--out", tmp_path / "conv",
                            "--tau-max", 1, "--levels", 4, "--t-final", 4]) == 0
            texts.append((tmp_path / "conv.convergence.csv").read_bytes())
        assert texts[0] == texts[1]


class TestCheckSymplectic:
    def test_paper_1d_verdicts(self, tmp_path, capsys):
        assert run_cli(["check-symplectic", "--config", "paper_1d",
                        "--out", tmp_path / "sym", "--steps", 50]) == 0
        out = capsys.readouterr().out
        assert "direct transition family: unsymplectic" in out
        assert "indirect transition family: symplectic" in out
        summary = read_json(tmp_path / "sym.symplectic.json")
        assert summary["verdicts"] == {"direct": "unsymplectic",
                                       "indirect": "symplectic"}
        assert summary["defect_direct_max"] >= 1e-6
        assert summary["defect_indirect_max"] <= 1e-10

    def test_undamped_both_symplectic(self, tmp_path, undamped_config):
        assert run_cli(["check-symplectic", "--config", undamped_config,
                        "--out", tmp_path / "sym", "--steps", 50]) == 0
        summary = read_json(tmp_path / "sym.symplectic.json")
        assert summary["verdicts"] == {"direct": "symplectic",
                                       "indirect": "symplectic"}

    def test_motionless_start_gives_insufficient_data(self, tmp_path):
        cfg = write(tmp_path / "rest.json", "paper_1d", initial={"q": [0.0], "p": [0.0]},
                    n_steps=10)
        assert run_cli(["check-symplectic", "--config", cfg,
                        "--out", tmp_path / "sym"]) == 0
        summary = read_json(tmp_path / "sym.symplectic.json")
        assert summary["verdicts"]["indirect"] == "insufficient data"
        assert summary["singular_steps"] == 10

    @pytest.mark.parametrize("seed, steps", [(61, 1400), (71, 2000)])
    def test_verdict_scales_with_transition_norm(self, tmp_path, seed, steps):
        """Seeded 16-DOF systems (the benchmark's ``dense-16d`` recipe).
        Where K + K̃ nears -4/τ², ‖F‖_F² is large and a substituting map's
        defect can pass the fixed 1e-10: seed 61 at step 1346 (1.34e-10 on
        the SkylakeX kernel), seed 71 on every kernel (2.4e-10 to
        6.5e-10). Judged against ‖F‖_F², the indirect family passes; the
        direct family still fails."""
        n, rng = 16, np.random.default_rng(seed)
        a = rng.integers(-3, 4, size=(n, n))
        b = rng.integers(-1, 2, size=(n, n))
        cfg = tmp_path / "dense.json"
        cfg.write_text(json.dumps({
            "system": {"K": ((a @ a.T + n * np.eye(n, dtype=np.int64)) / 64.0).tolist(),
                       "C": ((b @ b.T) / 512.0).tolist()},
            "initial": {"q": rng.uniform(-0.5, 0.5, n).tolist(),
                        "p": rng.uniform(-0.5, 0.5, n).tolist()},
            "tau": 0.2, "n_steps": steps, "method": "midpoint_indirect", "epsilon": 1e-8,
        }))
        assert run_cli(["check-symplectic", "--config", cfg, "--out", tmp_path / "sym"]) == 0
        summary = read_json(tmp_path / "sym.symplectic.json")
        if seed == 71:
            assert summary["defect_indirect_max"] > summary["threshold"]
        assert summary["verdicts"] == {"direct": "unsymplectic", "indirect": "symplectic"}
        worst = summary["max_scaled_defect"]
        assert worst["indirect"]["ratio"] <= summary["threshold"]
        assert worst["direct"]["step"] == 1
        assert worst["direct"]["ratio"] > summary["threshold"]

    def test_factor_columns_present(self, tmp_path):
        assert run_cli(["check-symplectic", "--config", "paper_2d",
                        "--out", tmp_path / "sym", "--steps", 20]) == 0
        rows = (tmp_path / "sym.symplectic.csv").read_text().splitlines()
        assert rows[0] == ("step,t,defect_direct,defect_indirect,"
                           "factor_defect_direct,factor_defect_indirect,singular")
        first = rows[1].split(",")
        assert float(first[4]) > 1e-6     # direct factor pair fails the check
        assert float(first[5]) <= 1e-12   # indirect factor pair passes

    def test_non_finite_defects_are_empty_cells(self, tmp_path, capsys):
        """Every direct factor-pair defect of the ``nancell`` entry config
        is NaN: each is an empty cell, as a singular step's. The transition
        defect stays finite, so the direct verdict stands; a family with a
        defect that is not finite would have insufficient data."""
        config = write(tmp_path / "huge.json", "nancell", n_steps=5)
        assert run_cli(["check-symplectic", "--config", config, "--method", "midpoint_direct",
                        "--out", tmp_path / "sym"]) == 0
        rows = [row.split(",") for row in
                (tmp_path / "sym.symplectic.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5
        assert all(row[2] == "0" and row[3:6] == ["", "", ""] for row in rows)
        summary = read_json(tmp_path / "sym.symplectic.json")
        assert summary["verdicts"] == {"direct": "symplectic", "indirect": "insufficient data"}
        assert "direct transition family: symplectic" in capsys.readouterr().out

    def test_stacked_factor_defects_are_the_per_step_values(self, tmp_path):
        # More steps than one stacked pass holds, and singular steps.
        steps = _verify_chunk(2) + 20
        assert run_cli(["check-symplectic", "--config", "paper_2d", "--out", tmp_path / "sym",
                        "--steps", steps, "--epsilon", 0.3]) == 0
        cfg = load_config(bundled_config_path("paper_2d"))
        tr = integrate(cfg.system, cfg.initial, cfg.tau, steps, cfg.method, 0.3)
        assert 0 < np.count_nonzero(tr.singular) < steps
        rows = (tmp_path / "sym.symplectic.csv").read_text().splitlines()[1:]
        for k, row in enumerate(rows):
            cell = row.split(",")[5]
            if tr.singular[k]:
                assert cell == ""
            else:
                pair = scheme_factors(cfg.system.K + np.diag(tr.ktilde[k]),
                                      np.zeros((2, 2)), cfg.tau)
                assert cell == "%.17g" % factored_symplectic_defect(*pair)


def test_blow_up_reports_step(tmp_path, capsys, unstable_config):
    assert run_cli(["run", "--config", unstable_config, "--steps", 5000,
                    "--out", tmp_path / "x"]) == cli.EXIT_SOLVER
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "solver"
    assert err["step"] == 149
    assert "step 149" in err["message"]


_SIGNED_POWER = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                          st.integers(-320, 308))
_FINITE = st.one_of(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(-3, 3),
                    st.sampled_from([0.0, -0.0]), _SIGNED_POWER)
# What a numeric field must reject: the NaN and Infinity literals, an int
# past the float range and other JSON kinds.
_REJECTED = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]),
                      st.none(), st.booleans(), st.text(max_size=2), st.just([]),
                      st.just({}))


@st.composite
def _fuzz_configs(draw):
    """A config as JSON-ready Python values (NaN and ±inf become the
    ``NaN`` and ``Infinity`` literals): n <= 3, K symmetric, τ a power of
    ten or an ordinary step, t₀ any number. One config in four may hold
    rejected values anywhere."""
    n = draw(st.integers(1, 3))
    number = st.one_of(*[_FINITE] * 5, _REJECTED) if draw(st.integers(0, 3)) == 0 \
        else _FINITE

    def values(size):
        return draw(st.lists(number, min_size=size, max_size=size))

    upper = iter(values(n * (n + 1) // 2))
    K = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            K[i][j] = K[j][i] = next(upper)
    C = [values(n) for _ in range(n)]
    tau = draw(st.one_of(st.builds(abs, _SIGNED_POWER), st.floats(1e-3, 2.0), number))
    q, p, method = values(n), values(n), draw(st.sampled_from(integrators.METHODS))
    return {"system": {"K": K, "C": C}, "initial": {"t": draw(number), "q": q, "p": p},
            "tau": tau, "method": method}


def _horizon(tau):
    """τ as a convergence horizon (a ladder of 1, 2 and 4 steps whose
    reference takes 1024 RK4 steps), or 1.0 where τ is no positive
    float-range number."""
    return float(tau) if type(tau) in (int, float) and 0 < tau <= 1e308 else 1.0


def _cell_ok(cell):
    return cell in ("", "true", "false") or math.isfinite(float(cell))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_fuzz_configs(), st.integers(1, 6), st.integers(1, 3))
@example(ENTRY_CONFIGS["huge"].config, 5, 1)
@example(ENTRY_CONFIGS["nancell"].config, 5, 1)
@example(ENTRY_CONFIGS["ktilde-sum"].config, 5, 1)
@example(ENTRY_CONFIGS["late"].config, 2, 1)
@example(ENTRY_CONFIGS["stiffref"].config, 2, 3)
def test_fuzzed_configs_exit_cleanly_with_strict_artifacts(config, steps, levels):
    """Every subcommand on a drawn config exits 0, 2, 3 or 4 with no
    exception and no warning; every JSON it writes (artifacts, or the
    error object on stderr) is strict, and every CSV cell of a run that
    exits 0 is finite or empty. The convergence ladder halves τ into 1 to
    3 levels up to t_final = τ; the last example's RK4 reference would
    amplify its C = 2860 mode."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "fuzz.json")
        path.write_text(json.dumps({**config, "n_steps": steps}))
        for sub in SUBCOMMANDS:
            prefix = os.path.join(tmp, sub)
            extra = ["--levels", levels, "--t-final", _horizon(config["tau"])] \
                if sub == "convergence" else []
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                rc = run_cli([sub, "--config", path, "--out", prefix, *extra])
            assert [str(w.message) for w in caught] == [], (sub, config)
            assert rc in (0, 2, 3, 4), (sub, config)
            if rc:
                assert strict_json(stderr.getvalue())["error"]["type"], (sub, config)
                continue
            for name in sorted(os.listdir(tmp)):
                if not name.startswith(sub + "."):
                    continue
                with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                    text = fh.read()
                if name.endswith(".json"):
                    strict_json(text)
                else:
                    cells = ",".join(text.splitlines()[1:]).split(",")
                    assert all(map(_cell_ok, cells)), (sub, config, name)


@pytest.mark.parametrize("name, sub, code",
                         [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in CASES])
def test_entry_config_matrix(tmp_path, capsys, name, sub, code):
    """Every config of ``entry_configs`` exits with its table's code, at
    CI's ``--steps 20`` and with warnings as errors. On exit 0 it writes
    its two artifacts: strict JSON, and a CSV whose rows are as wide as
    its header, with no cell that is not finite. On any other exit it
    writes nothing, and stderr holds a strict JSON error. No temp file is
    left either way."""
    config = argument(name, tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli([sub, "--config", config, "--out", out / "x", "--steps", STEPS])
    err = capsys.readouterr().err
    assert rc == code, err
    if code:
        assert strict_json(err)["error"]["type"]
        assert not out.exists()
        return
    csv_kind, json_kind = SUBCOMMANDS[sub]
    assert sorted(os.listdir(out)) == sorted([f"x.{csv_kind}.csv", f"x.{json_kind}.json"])
    strict_json((out / f"x.{json_kind}.json").read_text(encoding="utf-8"))
    rows = [line.split(",") for line in
            (out / f"x.{csv_kind}.csv").read_text(encoding="utf-8").splitlines()]
    assert all(len(row) == len(rows[0]) for row in rows)
    assert all(_cell_ok(cell) for row in rows[1:] for cell in row)
