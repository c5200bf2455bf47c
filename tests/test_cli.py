"""Command-line interface: artifacts, determinism, error contracts."""

import json
import os

import numpy as np
import pytest

import damped_midpoint.cli as cli
from damped_midpoint.cli import bundled_config_path, config_to_dict, load_config


def run_cli(args):
    return cli.main([str(a) for a in args])


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


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["paper_1d", "paper_2d"])
    def test_exists_and_parses(self, name):
        cfg = load_config(bundled_config_path(name))
        assert cfg.tau == 0.2
        assert cfg.n_steps == 250
        assert cfg.method == "midpoint_direct"
        assert cfg.system.monotone_energy_certified

    @pytest.mark.parametrize("name", ["paper_1d", "paper_2d"])
    def test_round_trip(self, name, tmp_path):
        cfg = load_config(bundled_config_path(name))
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(config_to_dict(cfg)))
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
        base = {
            "system": {"K": [[2.0]], "C": [[0.05]]},
            "initial": {"q": [0.1], "p": [0.2]},
            "tau": 0.2,
            "n_steps": 250,
        }
        good = tmp_path / "good.json"
        good.write_text(json.dumps({**base, "horizon": 50.0}))
        assert run_cli(["run", "--config", good, "--out", tmp_path / "ok"]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**base, "horizon": 49.0}))
        assert run_cli(["run", "--config", bad,
                        "--out", tmp_path / "no"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("field", ['"n_steps": 2.7', '"n_steps": true',
                                       '"tau": true', '"epsilon": 1e999',
                                       '"horizon": "ten"'])
    def test_config_values_not_coerced(self, tmp_path, capsys, field):
        base = bundled_config_path("paper_1d").read_text().rstrip().rstrip("}")
        cfg = tmp_path / "bad.json"
        cfg.write_text(f"{base}, {field}}}")   # a repeated key overrides the base
        rc = run_cli(["run", "--config", cfg, "--out", tmp_path / "x"])
        assert rc == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

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


class TestCompare:
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

    def test_non_commensurate_rejected(self, tmp_path, capsys):
        rc = run_cli(["convergence", "--config", "paper_1d",
                      "--out", tmp_path / "conv", "--tau-max", 0.3,
                      "--levels", 2, "--t-final", 10.0])
        assert rc == cli.EXIT_SOLVER


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
        cfg = tmp_path / "rest.json"
        cfg.write_text(json.dumps({
            "system": {"K": [[2.0]], "C": [[0.05]]},
            "initial": {"q": [0.0], "p": [0.0]},
            "tau": 0.2,
            "n_steps": 10,
        }))
        assert run_cli(["check-symplectic", "--config", cfg,
                        "--out", tmp_path / "sym"]) == 0
        summary = read_json(tmp_path / "sym.symplectic.json")
        assert summary["verdicts"]["indirect"] == "insufficient data"
        assert summary["singular_steps"] == 10

    def test_factor_columns_present(self, tmp_path):
        assert run_cli(["check-symplectic", "--config", "paper_2d",
                        "--out", tmp_path / "sym", "--steps", 20]) == 0
        rows = (tmp_path / "sym.symplectic.csv").read_text().splitlines()
        assert rows[0] == ("step,t,defect_direct,defect_indirect,"
                           "factor_defect_direct,factor_defect_indirect,singular")
        first = rows[1].split(",")
        assert float(first[4]) > 1e-6     # direct factor pair fails the check
        assert float(first[5]) <= 1e-12   # indirect factor pair passes


def test_blow_up_reports_step(tmp_path, capsys):
    config = tmp_path / "unstable.json"
    config.write_text(json.dumps({
        "system": {"K": [[1.0]], "C": [[-5.0]]},
        "initial": {"q": [0.1], "p": [0.2]},
        "tau": 0.5,
        "n_steps": 5000,
    }))
    assert run_cli(["run", "--config", config, "--out", tmp_path / "x"]) == cli.EXIT_SOLVER
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "solver"
    assert err["step"] == 296
    assert "step 296" in err["message"]
