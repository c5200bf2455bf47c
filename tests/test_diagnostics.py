"""Energy reports, period estimation, convergence tables."""

import numpy as np
import pytest

import damped_midpoint as dm
from damped_midpoint import diagnostics
from damped_midpoint.errors import InsufficientOscillationError
from damped_midpoint.system import quadratic_energy


def synthetic_trajectory(times, values):
    """Wrap a sampled scalar signal as a trajectory for the period tests,
    which read only its states. Its ledger arrays are zero placeholders
    that no state gave, so ``energy_report``, which reads them, is not run
    on it."""
    sys_ = dm.make_system([[1.0]], [[0.0]])
    steps = len(times) - 1
    zeros = np.zeros(steps)
    return dm.Trajectory(
        system=sys_, tau=float(times[1] - times[0]), method="midpoint_direct",
        t=times, q=np.reshape(values, (-1, 1)), p=np.zeros((steps + 1, 1)),
        energy=zeros, work=zeros, hhat=zeros,
        ktilde=np.zeros((steps, 1)), valid=np.ones((steps, 1), dtype=bool),
        defect_direct=0.0, defect_indirect=zeros,
    )


class TestEnergyReport:
    def test_undamped_ledger_is_flat(self):
        sys_ = dm.make_system(np.diag([2.0, 3.0]), np.zeros((2, 2)))
        z0 = dm.PhaseState(0.0, [0.3, -0.2], [0.1, 0.4])
        rep = dm.energy_report(dm.integrate(sys_, z0, 0.1, 200, "midpoint_direct"))
        assert np.array_equal(rep.work_cumulative, np.zeros(201))
        assert np.array_equal(rep.hhat, rep.energy)
        assert rep.max_hhat_deviation <= 1e-13

    def test_paper_run_ledger_constant(self, sys_1d, z0_1d):
        rep = dm.energy_report(dm.integrate(sys_1d, z0_1d, 0.2, 250,
                                            "midpoint_direct"))
        assert rep.max_hhat_deviation <= 1e-10
        assert rep.monotone
        assert rep.singular_steps == 0

    def test_rk4_ledger_drifts_more(self, sys_1d, z0_1d):
        mid = dm.energy_report(dm.integrate(sys_1d, z0_1d, 0.2, 250,
                                            "midpoint_direct"))
        rk4 = dm.energy_report(dm.integrate(sys_1d, z0_1d, 0.2, 250, "rk4"))
        assert rk4.max_hhat_deviation > mid.max_hhat_deviation

    def test_pure_function_of_trajectory(self, sys_1d, z0_1d):
        tr = dm.integrate(sys_1d, z0_1d, 0.2, 50, "midpoint_direct")
        a = dm.energy_report(tr)
        b = dm.energy_report(tr)
        assert np.array_equal(a.energy, b.energy)
        assert np.array_equal(a.hhat, b.hhat)
        assert a.max_hhat_deviation == b.max_hhat_deviation

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_recomputed_ledger_matches_stored(self, sys_2d, z0_2d, method):
        """The report reads the stored ledger; recomputed here from the
        stored states, it is the same bit for bit."""
        tr = dm.integrate(sys_2d, z0_2d, 0.2, 200, method)
        rep = dm.energy_report(tr)
        energy = quadratic_energy(tr.system.K, tr.q, tr.p)
        work = dm.damping_work(tr.system, tr.q[:-1], tr.q[1:], tr.tau)
        work_cumulative = np.concatenate(([0.0], np.cumsum(work)))
        assert rep.energy.tobytes() == energy.tobytes()
        assert rep.work_cumulative.tobytes() == work_cumulative.tobytes()
        assert rep.hhat.tobytes() == (energy + work_cumulative).tobytes()
        assert rep.max_energy_residual == np.abs(np.diff(energy) + work).max()
        assert np.array_equal(rep.hhat[1:], [rec.hhat for rec in tr.steps])

    def test_series_are_read_only(self, sys_1d, z0_1d):
        rep = dm.energy_report(dm.integrate(sys_1d, z0_1d, 0.2, 5))
        for series in (rep.energy, rep.work_cumulative, rep.hhat):
            with pytest.raises(ValueError):
                series[0] = 0.0

    def test_hands_its_series_over_uncopied(self, sys_1d, z0_1d, monkeypatch):
        kept = []

        def spy(a, dtype=float):
            out = frozen(a, dtype)
            kept.append(out is a)
            return out
        frozen = diagnostics._frozen
        assert frozen is dm.system._frozen
        monkeypatch.setattr(diagnostics, "_frozen", spy)
        dm.energy_report(dm.integrate(sys_1d, z0_1d, 0.2, 5))
        assert kept == [True] * 3

    def test_report_built_by_hand_freezes_its_series(self):
        series = [np.array([1.0, 0.5]) for _ in range(3)]
        rep = dm.EnergyReport(*series, 1.0, 0.0, 0.0, True, 0)
        for given, kept in zip(series, (rep.energy, rep.work_cumulative, rep.hhat)):
            given[0] = 9.0
            assert kept[0] == 1.0
            with pytest.raises(ValueError):
                kept[0] = 0.0

    def test_counts_singular_steps(self):
        k, c, tau, q0 = 1.0, 0.1, 0.2, 0.3
        sys_ = dm.make_system([[k]], [[c]])
        z0 = dm.PhaseState(0.0, [q0], [-q0 * (2.0 / tau + c)])
        rep = dm.energy_report(dm.integrate(sys_, z0, tau, 5, "midpoint_indirect"))
        assert rep.singular_steps >= 1


class TestPeriodEstimate:
    def test_known_cosine_period(self):
        period = 3.1
        t = np.arange(0.0, 20.0, 0.01)
        tr = synthetic_trajectory(t, np.cos(2.0 * np.pi * t / period))
        assert dm.period_estimate(tr) == pytest.approx(period, abs=1e-3)

    def test_harmonic_oscillator_period(self):
        sys_ = dm.make_system([[1.0]], [[0.0]])
        z0 = dm.PhaseState(0.0, [1.0], [0.0])
        tr = dm.integrate(sys_, z0, 0.01, 2000, "midpoint_direct")
        assert dm.period_estimate(tr) == pytest.approx(2.0 * np.pi, abs=1e-3)

    def test_comparison_numbers_emitted_not_ordered(self, sys_2d, z0_2d):
        mid = dm.integrate(sys_2d, z0_2d, 0.2, 250, "midpoint_direct")
        rk4 = dm.integrate(sys_2d, z0_2d, 0.2, 250, "rk4")
        p_mid = dm.period_estimate(mid, 0)
        p_rk4 = dm.period_estimate(rk4, 0)
        assert np.isfinite(p_mid) and p_mid > 0.0
        assert np.isfinite(p_rk4) and p_rk4 > 0.0

    def test_insufficient_oscillation(self):
        t = np.arange(0.0, 1.0, 0.01)
        tr = synthetic_trajectory(t, np.exp(-t))
        with pytest.raises(InsufficientOscillationError):
            dm.period_estimate(tr)

    def test_time_reversal_invariance(self):
        period = 2.5
        t = np.arange(0.0, 20.0, 0.01)
        x = np.cos(2.0 * np.pi * t / period)
        forward = dm.period_estimate(synthetic_trajectory(t, x))
        # reversed sample order flips crossing directions; negating the
        # signal makes them upward again
        backward = dm.period_estimate(synthetic_trajectory(t, -x[::-1]))
        assert abs(forward - backward) <= 1e-12

    def test_component_out_of_range(self, sys_1d, z0_1d):
        tr = dm.integrate(sys_1d, z0_1d, 0.2, 10, "midpoint_direct")
        with pytest.raises(IndexError):
            dm.period_estimate(tr, 1)

    @pytest.mark.parametrize("component", [True, 0.5, 1.0, -1])
    def test_component_that_is_no_index(self, sys_2d, z0_2d, component):
        """The function's own IndexError, naming the value; a bool or a
        float used to reach numpy's indexing."""
        tr = dm.integrate(sys_2d, z0_2d, 0.2, 300, "midpoint_direct")
        with pytest.raises(IndexError, match=f"component {component!r} is no index"):
            dm.period_estimate(tr, component)
        assert dm.period_estimate(tr, np.int64(1)) == dm.period_estimate(tr, 1)


class TestConvergenceStudy:
    def test_midpoint_second_order(self, sys_1d, z0_1d):
        table = dm.convergence_study(sys_1d, z0_1d, 0.1, 4, 10.0,
                                     "midpoint_direct")
        assert table.reference == "closed-form underdamped solution"
        assert table.rows[0].observed_order is None
        for row in table.rows[1:]:
            assert row.observed_order == pytest.approx(2.0, abs=0.1)

    def test_rk4_fourth_order(self, sys_1d, z0_1d):
        table = dm.convergence_study(sys_1d, z0_1d, 0.1, 4, 10.0, "rk4")
        for row in table.rows[1:]:
            assert row.observed_order == pytest.approx(4.0, abs=0.2)

    @pytest.mark.parametrize("method", ["midpoint_direct", "midpoint_indirect"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_midpoint_second_order_on_random_underdamped_systems(self, n, method):
        """The time-centered scheme's order 2 beyond ``paper_1d``: on a
        seeded underdamped system (K = AAᵀ + nI, C = 0.1·BBᵀ), the ladder
        τ = 0.1, 0.05, 0.025 up to t = 1 observes 2 ± 0.1 (criterion 6's
        tolerance). Its errors, 1e-5 and more, lie far above those of the
        RK4 reference at τ/1024 (the closed form at n = 1)."""
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, n, n))
        k = a @ a.T + n * np.eye(n)
        sys_ = dm.make_system(0.5 * (k + k.T), 0.1 * b @ b.T)
        z0 = dm.PhaseState(0.0, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
        table = dm.convergence_study(sys_, z0, 0.1, 3, 1.0, method)
        for row in table.rows[1:]:
            assert row.observed_order == pytest.approx(2.0, abs=0.1)

    def test_single_level_has_no_order(self, sys_1d, z0_1d):
        table = dm.convergence_study(sys_1d, z0_1d, 0.1, 1, 10.0,
                                     "midpoint_direct")
        assert len(table.rows) == 1
        assert table.rows[0].observed_order is None

    def test_ladder_halves_strictly(self, sys_1d, z0_1d):
        table = dm.convergence_study(sys_1d, z0_1d, 0.1, 4, 10.0,
                                     "midpoint_direct")
        taus = [row.tau for row in table.rows]
        assert taus == sorted(taus, reverse=True)
        for a, b in zip(taus, taus[1:]):
            assert b == a / 2.0

    def test_non_commensurate_final_time_rejected(self, sys_1d, z0_1d):
        with pytest.raises(ValueError, match="multiple"):
            dm.convergence_study(sys_1d, z0_1d, 0.3, 2, 10.0, "midpoint_direct")

    @pytest.mark.parametrize("method, epsilon", [("leapfrog", dm.DEFAULT_EPSILON),
                                                 ("midpoint_indirect", 0.0),
                                                 ("midpoint_indirect", np.nan),
                                                 ("midpoint_indirect", True)])
    def test_bad_method_or_epsilon_rejected_before_stepping(self, sys_2d, z0_2d,
                                                            monkeypatch, method, epsilon):
        def stepped(*args):
            raise AssertionError("the study stepped before checking its arguments")
        monkeypatch.setattr(diagnostics, "propagate", stepped)
        with pytest.raises(ValueError, match="method|epsilon"):
            dm.convergence_study(sys_2d, z0_2d, 0.2, 3, 2.0, method, epsilon)

    @pytest.mark.parametrize("tau_max, t_final", [(True, 10.0), (0.1, True), ("0.1", 10.0),
                                                  (np.inf, 10.0), (0.1, np.nan)])
    def test_step_and_final_time_that_are_not_finite_reals_rejected(self, sys_1d, z0_1d,
                                                                    tau_max, t_final):
        """A bool is not read as 1.0, nor a string compared."""
        with pytest.raises(ValueError, match="tau_max and t_final must be finite"):
            dm.convergence_study(sys_1d, z0_1d, tau_max, 2, t_final, "midpoint_direct")

    @pytest.mark.parametrize("levels", [2.7, 2.0, True, np.nan, "2"])
    def test_levels_that_are_not_integers_rejected(self, sys_1d, z0_1d, levels):
        with pytest.raises(ValueError, match="levels must be an integer"):
            dm.convergence_study(sys_1d, z0_1d, 0.1, levels, 10.0, "midpoint_direct")

    def test_numpy_integer_levels_accepted(self, sys_1d, z0_1d):
        table = dm.convergence_study(sys_1d, z0_1d, 0.1, np.int64(2), 10.0,
                                     "midpoint_direct")
        assert len(table.rows) == 2

    def test_multidim_uses_fine_rk4_reference(self, sys_2d, z0_2d):
        table = dm.convergence_study(sys_2d, z0_2d, 0.2, 3, 2.0,
                                     "midpoint_direct")
        assert "rk4" in table.reference
        for row in table.rows[1:]:
            assert row.observed_order == pytest.approx(2.0, abs=0.1)

    def test_study_is_bounded_by_its_weighted_cost(self, monkeypatch):
        """15 000 indirect ladder steps and a 10.24 million step RK4
        reference, 10 255 000 steps in all, cost 205 400 000 direct steps:
        refused before stepping, though the count alone would pass."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused study must not step")
        monkeypatch.setattr(diagnostics, "propagate", no_stepping)
        sys_ = dm.make_system([[-0.0]], [[100.0]])
        z0 = dm.PhaseState(0.0, [0.0], [-2.0])
        assert 15_000 + 10_240_000 < diagnostics.MAX_STUDY_STEPS
        with pytest.raises(ValueError, match=r"costs 2\.05e\+08 direct .*MAX_STUDY_STEPS"):
            dm.convergence_study(sys_, z0, 0.001, 2, 10.0, "midpoint_indirect")

    def test_study_cost_grows_with_the_system_size(self, monkeypatch):
        """3 000 direct ladder steps and a 3.072 million step RK4
        reference cost 61.4 million scalar direct steps, and are admitted
        on an overdamped scalar system (it goes on to step); on a 16-DOF
        system, whose steps cost 46 and 50 each, they cost 154 million and
        are refused before stepping."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("stepping")
        monkeypatch.setattr(diagnostics, "propagate", no_stepping)
        scalar = dm.make_system([[-0.0]], [[100.0]])
        with pytest.raises(AssertionError, match="stepping"):
            dm.convergence_study(scalar, dm.PhaseState(0.0, [0.0], [-2.0]), 0.01, 1, 30.0)
        n = 16
        wide = dm.make_system(np.eye(n), np.eye(n))
        with pytest.raises(ValueError, match=r"costs 1\.54e\+08 direct .*MAX_STUDY_STEPS"):
            dm.convergence_study(wide, dm.PhaseState(0.0, np.ones(n), np.zeros(n)),
                                 0.01, 1, 30.0)

    def test_undamped_references_admitted_up_to_the_imaginary_limit(self, monkeypatch):
        """On the imaginary axis |R(iy)|² = 1 - y⁶/72 + y⁸/576 <= 1 up to
        y = 2√2. Coupled undamped 2-DOF systems whose fast frequency ω
        sweeps 1e-3 to 0.999·2√2/h (h = 1/1024) are admitted, although
        rounding may read |R| as 1 + 2.2e-16; at 1.001·2√2/h the reference
        is refused."""
        def stepped(*args):
            raise AssertionError("stepped")
        monkeypatch.setattr(diagnostics, "propagate", stepped)
        rotation = np.array([[0.8, -0.6], [0.6, 0.8]])
        z0 = dm.PhaseState(0.0, [1.0, 0.5], [0.0, -0.3])
        limit = 2.0 * np.sqrt(2.0) * 1024.0
        for fast in np.geomspace(1e-3, 0.999 * limit, 200):
            for slow in (1e-3 * fast, 0.5 * fast, fast):
                K = rotation @ np.diag([slow ** 2, fast ** 2]) @ rotation.T
                sys_ = dm.make_system(0.5 * (K + K.T), np.zeros((2, 2)))
                with pytest.raises(AssertionError, match="stepped"):
                    dm.convergence_study(sys_, z0, 1.0, 1, 1.0)
        sys_ = dm.make_system(np.diag([1.0, (1.001 * limit) ** 2]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="amplifies a mode"):
            dm.convergence_study(sys_, z0, 1.0, 1, 1.0)

    def test_admitted_studies_report_their_errors_against_the_exact_flow(self):
        """On seeded systems of 1 to 6 DOF, with damping up to stiff, every
        study the reference check admits reports each level's error
        against its RK4 reference within 1e-7 of that error against the
        exact flow V·e^{Λt}·V⁻¹·z₀ (``np.linalg.eig`` of [[0, I], [-K,
        -C]]), and some studies are refused. The tolerance is the
        reference's own truncation, about t·|λ|·(h|λ|)⁴/120: 9e-9 on the
        |λ| = 25 modes drawn here, at h = 0.5/1024."""
        refused = 0
        for seed in range(24):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 7))
            b = rng.standard_normal((n, n))
            K = b @ b.T * 10.0 ** rng.uniform(-1.0, 2.0)
            C = (np.eye(n) + 0.3 * rng.standard_normal((n, n))) * 10.0 ** rng.uniform(0.0, 4.0)
            sys_ = dm.make_system(0.5 * (K + K.T), C)
            z0 = dm.PhaseState(0.0, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
            try:
                table = dm.convergence_study(sys_, z0, 0.5, 2, 1.0)
            except ValueError as exc:
                assert "amplifies a mode" in str(exc)
                refused += 1
                continue
            modes, V = np.linalg.eig(np.block([[np.zeros((n, n)), np.eye(n)],
                                               [-sys_.K, -sys_.C]]))
            start = np.concatenate((z0.q, z0.p))
            exact = (V @ (np.exp(modes) * np.linalg.solve(V, start))).real
            for row in table.rows:
                final = dm.propagate(sys_, z0, row.tau, round(1.0 / row.tau))
                error = np.max(np.abs(np.concatenate((final.q, final.p)) - exact))
                assert row.error == pytest.approx(error, abs=1e-7), seed
        assert 0 < refused < 24

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_a_study_at_the_cost_bound_runs(self, sys_2d, z0_2d, monkeypatch, method):
        """A ladder of 2 + 4 steps and a 2 048-step reference: each step
        weighs its method's ``STEP_COST`` at n = 2 (4 direct, 40 indirect,
        22 RK4), and the bound admits its own value."""
        weight = {"midpoint_direct": 4, "midpoint_indirect": 40, "rk4": 22}
        cost = 6 * weight[method] + 2048 * weight["rk4"]
        monkeypatch.setattr(diagnostics, "MAX_STUDY_STEPS", cost - 1)
        with pytest.raises(ValueError, match="MAX_STUDY_STEPS"):
            dm.convergence_study(sys_2d, z0_2d, 0.5, 2, 1.0, method)
        monkeypatch.setattr(diagnostics, "MAX_STUDY_STEPS", cost)
        assert len(dm.convergence_study(sys_2d, z0_2d, 0.5, 2, 1.0, method).rows) == 2
