"""Stepper contracts, transition matrices, trajectory assembly."""

import warnings

import numpy as np
import pytest

import damped_midpoint as dm
from damped_midpoint import integrators
from damped_midpoint.errors import DimensionError, IntegrationError, InvalidStiffnessError
from reference_steps import reference_step, rk4
from test_properties import NEAR_SINGULAR_SUBSTITUTE, SINGULAR_SUBSTITUTE, seeded_system


def closed_form_step(k, c, tau, q, p):
    """Scalar time-centered step in closed form (independent oracle)."""
    den = 4.0 + tau * tau * k + 2.0 * tau * c
    q1 = (4.0 * q - tau * tau * k * q + 2.0 * tau * c * q + 4.0 * tau * p) / den
    p1 = -(4.0 * tau * k * q + tau * tau * k * p + 2.0 * tau * c * p - 4.0 * p) / den
    return q1, p1


class TestDirectStep:
    def test_matches_scalar_closed_form(self, sys_1d, z0_1d):
        out = dm.propagate(sys_1d, z0_1d, 0.2, 1)
        q1, p1 = closed_form_step(2.0, 0.05, 0.2, 0.1, 0.2)
        assert abs(out.q[0] - q1) <= 1e-15
        assert abs(out.p[0] - p1) <= 1e-15

    def test_closed_form_along_trajectory(self, sys_1d, z0_1d):
        tr = dm.integrate(sys_1d, z0_1d, 0.2, 50)
        q, p = 0.1, 0.2
        for k in range(1, 51):
            q, p = closed_form_step(2.0, 0.05, 0.2, q, p)
            assert abs(tr.q[k, 0] - q) <= 1e-13
            assert abs(tr.p[k, 0] - p) <= 1e-13

    def test_conserves_quadratic_energy_without_damping(self):
        sys_ = dm.make_system(np.eye(3), np.zeros((3, 3)))
        rng = np.random.default_rng(8)
        state = dm.PhaseState(0.0, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        e0 = dm.total_energy(sys_, state)
        state = dm.propagate(sys_, state, 0.3, 100)
        assert dm.total_energy(sys_, state) == pytest.approx(e0, rel=1e-14)

    def test_small_step_matches_analytic(self, sys_1d, z0_1d):
        tau = 1e-6
        out = dm.propagate(sys_1d, z0_1d, tau, 1)
        qa, pa = dm.analytic_1d(2.0, 0.05, 0.1, 0.2, tau)
        assert abs(out.q[0] - qa) <= 1e-15
        assert abs(out.p[0] - pa) <= 1e-15

    def test_singular_factor_reported(self):
        # (τ/2)² K = -I makes the factor matrix exactly singular.
        sys_ = dm.make_system([[-4.0]], [[0.0]])
        with pytest.raises(IntegrationError) as err:
            dm.propagate(sys_, dm.PhaseState(0.0, [1.0], [0.0]), 1.0, 1)
        assert err.value.step_index == 1
        assert isinstance(err.value.__cause__, dm.SingularMatrixError)


class TestIndirectStep:
    def test_reproduces_direct_step(self, sys_1d, z0_1d):
        direct = dm.integrate(sys_1d, z0_1d, 0.2, 1, "midpoint_direct")
        indirect = dm.integrate(sys_1d, z0_1d, 0.2, 1, "midpoint_indirect")
        assert not indirect.singular[0]
        assert np.max(np.abs(indirect.q - direct.q)) <= 1e-12
        assert np.max(np.abs(indirect.p - direct.p)) <= 1e-12
        assert indirect.valid[0].all()

    def test_undamped_is_bitwise_identical(self):
        sys_ = dm.make_system(np.diag([2.0, 3.0]), np.zeros((2, 2)))
        state = dm.PhaseState(0.0, [0.3, -0.2], [0.1, 0.4])
        direct = dm.integrate(sys_, state, 0.1, 1, "midpoint_direct")
        indirect = dm.integrate(sys_, state, 0.1, 1, "midpoint_indirect")
        assert not indirect.singular[0]
        assert np.array_equal(direct.q, indirect.q)
        assert np.array_equal(direct.p, indirect.p)

    def test_zero_crossing_returns_flagged_probe(self):
        # p0 = -q0·(2/τ + c) drives the probe to q1 = -q0 exactly, so the
        # midpoint coordinate sum vanishes and the quotient is singular.
        k, c, tau, q0 = 1.0, 0.1, 0.2, 0.3
        sys_ = dm.make_system([[k]], [[c]])
        p0 = -q0 * (2.0 / tau + c)
        state = dm.PhaseState(0.0, [q0], [p0])
        out = dm.integrate(sys_, state, tau, 1, "midpoint_indirect")
        probe = dm.integrate(sys_, state, tau, 1, "midpoint_direct")
        assert out.singular[0]
        assert not out.valid[0, 0] and out.ktilde[0, 0] == 0.0
        assert np.isnan(out.defect_indirect[0])
        assert np.array_equal(out.q, probe.q)
        assert np.array_equal(out.p, probe.p)
        assert np.all(np.isfinite(out.q)) and np.all(np.isfinite(out.p))


class TestRk4Step:
    def test_harmonic_taylor_accuracy(self):
        sys_ = dm.make_system([[1.0]], [[0.0]])
        out = dm.propagate(sys_, dm.PhaseState(0.0, [1.0], [0.0]), 0.1, 1, "rk4")
        assert out.q[0] == pytest.approx(np.cos(0.1), abs=1e-7)
        assert out.p[0] == pytest.approx(-np.sin(0.1), abs=1e-7)

    def test_long_run_matches_analytic(self, sys_1d, z0_1d):
        final = dm.propagate(sys_1d, z0_1d, 1e-3, 10000, "rk4")
        qa, pa = dm.analytic_1d(2.0, 0.05, 0.1, 0.2, 10.0)
        assert abs(final.q[0] - qa) <= 1e-10
        assert abs(final.p[0] - pa) <= 1e-10

    def test_linearity_exact_for_power_of_two_scale(self, sys_2d):
        state = dm.PhaseState(0.0, [0.1, -0.2], [0.3, 0.05])
        scaled = dm.PhaseState(0.0, 2.0 * state.q, 2.0 * state.p)
        out = dm.propagate(sys_2d, state, 0.2, 1, "rk4")
        out_scaled = dm.propagate(sys_2d, scaled, 0.2, 1, "rk4")
        assert np.array_equal(out_scaled.q, 2.0 * out.q)
        assert np.array_equal(out_scaled.p, 2.0 * out.p)

    def test_linearity_general_scale(self, sys_2d):
        state = dm.PhaseState(0.0, [0.1, -0.2], [0.3, 0.05])
        alpha = 1.7
        scaled = dm.PhaseState(0.0, alpha * state.q, alpha * state.p)
        out = dm.propagate(sys_2d, state, 0.2, 1, "rk4")
        out_scaled = dm.propagate(sys_2d, scaled, 0.2, 1, "rk4")
        assert np.allclose(out_scaled.q, alpha * out.q, rtol=1e-14)
        assert np.allclose(out_scaled.p, alpha * out.p, rtol=1e-14)


class TestTransitionMatrices:
    def test_undamped_pair_coincides(self):
        sys_ = dm.make_system(np.diag([2.0, 3.0]), np.zeros((2, 2)))
        ks = dm.EquivalentStiffness(diag=np.zeros(2), valid=np.ones(2, bool))
        pair = dm.transition_matrices(sys_, ks, 0.2)
        assert np.array_equal(pair.direct, pair.indirect)
        assert pair.defect_direct <= 1e-12
        assert pair.defect_indirect <= 1e-12

    def test_paper_1d_verdicts(self, sys_1d, z0_1d):
        tr = dm.integrate(sys_1d, z0_1d, 0.2, 1, "midpoint_indirect")
        pair = dm.transition_matrices(sys_1d, tr.steps[0].ktilde, 0.2)
        assert pair.defect_direct > 1e-6
        assert pair.defect_indirect <= 1e-10

    def test_paper_2d_factor_pair_check(self, sys_2d, z0_2d):
        tr = dm.integrate(sys_2d, z0_2d, 0.2, 1, "midpoint_indirect")
        m2, n2 = dm.scheme_factors(sys_2d.K + np.diag(tr.ktilde[0]), np.zeros((2, 2)), 0.2)
        assert dm.factored_symplectic_defect(m2, n2) <= 1e-12

    def test_paper_1d_direct_factors_fail_check(self, sys_1d):
        m1, n1 = dm.scheme_factors(sys_1d.K, sys_1d.C, 0.2)
        # exact value sqrt(2)·τ·‖C‖_F for symmetric stiffness
        expected = np.sqrt(2.0) * 0.2 * 0.05
        assert dm.factored_symplectic_defect(m1, n1) == pytest.approx(expected,
                                                                      rel=1e-12)

    def test_matrices_are_read_only(self, sys_2d):
        ks = dm.EquivalentStiffness(diag=[0.1, 0.2], valid=[True, True])
        pair = dm.transition_matrices(sys_2d, ks, 0.2)
        for matrix in (pair.direct, pair.indirect):
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0

    def test_without_stiffness_only_direct_half(self, sys_1d):
        pair = dm.transition_matrices(sys_1d, None, 0.2)
        assert pair.indirect is None and pair.defect_indirect is None
        assert pair.defect_direct > 1e-6

    def test_invalid_stiffness_rejected(self, sys_1d):
        ks = dm.EquivalentStiffness(diag=[0.0], valid=[False])
        with pytest.raises(InvalidStiffnessError):
            dm.transition_matrices(sys_1d, ks, 0.2)

    def test_transition_matrix_actually_advances_state(self, sys_2d, z0_2d):
        pair = dm.transition_matrices(sys_2d, None, 0.2)
        stepped = dm.propagate(sys_2d, z0_2d, 0.2, 1)
        z1 = pair.direct @ np.concatenate((z0_2d.q, z0_2d.p))
        assert np.allclose(z1[:2], stepped.q, rtol=1e-13, atol=1e-16)
        assert np.allclose(z1[2:], stepped.p, rtol=1e-13, atol=1e-16)


class TestIntegrate:
    def test_single_step_reproduces_step_operation(self, sys_1d, z0_1d):
        z0 = np.concatenate((z0_1d.q, z0_1d.p))
        for method in dm.METHODS:
            tr = dm.integrate(sys_1d, z0_1d, 0.2, 1, method)
            single, _ = reference_step(sys_1d, z0, 0.2, method)
            assert tr.n_steps == 1
            assert np.array_equal(tr.steps[0].state.q, single[:1])
            assert np.array_equal(tr.steps[0].state.p, single[1:])

    def test_energy_monotone_on_damped_run(self, sys_1d, z0_1d):
        tr = dm.integrate(sys_1d, z0_1d, 0.2, 250, "midpoint_direct")
        energies = np.array([dm.total_energy(sys_1d, s) for s in tr.states()])
        assert np.all(np.diff(energies) <= 0.0)

    def test_direct_indirect_agree_over_long_run(self, sys_2d, z0_2d):
        direct = dm.integrate(sys_2d, z0_2d, 0.2, 500, "midpoint_direct")
        indirect = dm.integrate(sys_2d, z0_2d, 0.2, 500, "midpoint_indirect")
        for a, b in zip(direct.steps, indirect.steps):
            if not (a.singular or b.singular):
                assert np.max(np.abs(a.state.q - b.state.q)) <= 1e-11
                assert np.max(np.abs(a.state.p - b.state.p)) <= 1e-11

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_ledger_identity_exact(self, sys_2d, z0_2d, method):
        tr = dm.integrate(sys_2d, z0_2d, 0.2, 100, method)
        running = 0.0
        for rec in tr.steps:
            running += rec.work_increment
            assert rec.hhat == rec.energy + running

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_record_field_availability(self, sys_2d, z0_2d, method):
        tr = dm.integrate(sys_2d, z0_2d, 0.2, 50, method)
        for rec in tr.steps:
            assert (rec.defect_indirect is not None) == (not rec.singular)
            assert rec.defect_direct > 0.0
            assert rec.ktilde.diag.shape == (2,)

    def test_timestamps_fused_from_integer_index(self, sys_1d):
        z0 = dm.PhaseState(1.5, [0.1], [0.2])
        tr = dm.integrate(sys_1d, z0, 0.2, 100, "midpoint_direct")
        for k, rec in enumerate(tr.steps, start=1):
            assert rec.state.t == 1.5 + k * 0.2

    def test_work_increment_formula_shared_by_rk4(self, sys_2d, z0_2d):
        tr = dm.integrate(sys_2d, z0_2d, 0.2, 20, "rk4")
        states = tr.states()
        for k, rec in enumerate(tr.steps):
            dq = states[k + 1].q - states[k].q
            assert rec.work_increment == pytest.approx(
                float(dq @ (sys_2d.C @ dq)) / 0.2, rel=1e-14, abs=1e-300)

    def test_stepper_failure_carries_step_index(self):
        sys_ = dm.make_system([[-4.0]], [[0.0]])
        with pytest.raises(IntegrationError) as err:
            dm.integrate(sys_, dm.PhaseState(0.0, [1.0], [0.0]), 1.0, 5)
        assert err.value.step_index == 1

    @pytest.mark.parametrize("method", dm.METHODS)
    @pytest.mark.parametrize("run", [dm.integrate, dm.propagate])
    def test_singular_direct_factor_fails_every_method(self, run, method):
        """K = 0, C = -2, τ = 1: the midpoint factor [[1, -1/2], [-2, 1]]
        is exactly singular, so both entry points fail at step 1 even for
        RK4, which never solves with it."""
        sys_ = dm.make_system([[0.0]], [[-2.0]])
        with pytest.raises(IntegrationError) as err:
            run(sys_, dm.PhaseState(0.0, [1.0], [0.0]), 1.0, 3, method)
        assert err.value.step_index == 1
        assert isinstance(err.value.__cause__, dm.SingularMatrixError)

    def test_rejects_bad_arguments(self, sys_1d, z0_1d):
        with pytest.raises(ValueError):
            dm.integrate(sys_1d, z0_1d, 0.2, 0)
        with pytest.raises(ValueError):
            dm.integrate(sys_1d, z0_1d, -0.1, 10)
        with pytest.raises(ValueError):
            dm.integrate(sys_1d, z0_1d, 0.2, 10, "leapfrog")
        for run in (dm.integrate, dm.propagate):
            with pytest.raises(DimensionError, match="state dimension 2 does not match"):
                run(sys_1d, dm.PhaseState(0.0, [0.1, 0.2], [0.0, 0.0]), 0.2, 10)

    @pytest.mark.parametrize("run", [dm.integrate, dm.propagate])
    @pytest.mark.parametrize("epsilon", [0.0, -1e-8, np.nan, np.inf, True, "1e-8"])
    def test_rejects_epsilon_not_positive_and_finite(self, sys_1d, z0_1d, run, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            run(sys_1d, z0_1d, 0.2, 3, "midpoint_indirect", epsilon)

    @pytest.mark.parametrize("run", [dm.integrate, dm.propagate])
    @pytest.mark.parametrize("n_steps", [2.7, 3.0, True, np.nan, np.inf, "3"])
    def test_rejects_step_counts_that_are_not_integers(self, sys_1d, z0_1d, run, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            run(sys_1d, z0_1d, 0.2, n_steps)

    def test_substituting_factors_are_the_pairs_of_the_non_singular_steps(self, sys_2d, z0_2d):
        """In order, chunks of at most ``_verify_chunk(n)`` steps that cover
        exactly the non-singular ones (ε = 0.3 makes 14 of 702 singular),
        each pair ``scheme_factors(K + diag(K̃), 0, τ)`` of its step bit for bit."""
        chunk = integrators._verify_chunk(2)
        tr = dm.integrate(sys_2d, z0_2d, 0.2, chunk + 20, "midpoint_direct", 0.3)
        seen = []
        for rows, m, nn in integrators.substituting_factors(tr):
            assert 0 < len(rows) <= chunk and m.shape == nn.shape == (len(rows), 4, 4)
            for k, mk, nk in zip(rows, m, nn):
                pair = dm.scheme_factors(sys_2d.K + np.diag(tr.ktilde[k]), np.zeros((2, 2)), 0.2)
                assert np.array_equal(mk, pair[0]) and np.array_equal(nk, pair[1])
            seen += rows.tolist()
        assert seen == np.flatnonzero(~tr.singular).tolist()
        assert len(seen) > chunk and tr.singular.any()

    @pytest.mark.parametrize("run", [dm.integrate, dm.propagate])
    @pytest.mark.parametrize("t0, tau, n_steps", [(1e308, 1e308, 2), (-1e308, 9e307, 2),
                                                  (0.0, 1.0, 10 ** 400)])
    def test_refuses_a_last_time_past_the_float_range(self, sys_1d, monkeypatch, run, t0,
                                                      tau, n_steps):
        """t₀ + n_steps·τ past the float range, or a step count that no
        float holds, is refused before the scheme is factored and with no
        warning; at t₀ = -1e308, 2τ = 1.8e308 overflows though t₀ + 2τ
        would not, as the timestamps are t₀ + k·τ."""
        def unreached(*args):
            raise AssertionError("the run was not refused before its factor")
        monkeypatch.setattr(integrators, "scheme_factors", unreached)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"t0 \+ n_steps\*tau is not finite"):
                run(sys_1d, dm.PhaseState(t0, [0.0], [0.0]), tau, n_steps)

    @pytest.mark.parametrize("dims, per_step", [("1d", 8 * 9 + 1), ("2d", 8 * 12 + 2)])
    def test_refuses_a_run_whose_arrays_pass_the_byte_bound(
            self, request, monkeypatch, dims, per_step):
        """Per step, 8 bytes for each float of z (2n), ktilde (n) and six
        per-step arrays, and n for the bools of valid; the initial state
        counts as a step. ``propagate`` keeps no per-step arrays."""
        sys_ = request.getfixturevalue(f"sys_{dims}")
        z0 = request.getfixturevalue(f"z0_{dims}")
        monkeypatch.setattr(integrators, "MAX_RUN_BYTES", 11 * per_step)
        assert dm.integrate(sys_, z0, 0.2, 10).n_steps == 10
        with pytest.raises(ValueError, match="MAX_RUN_BYTES"):
            dm.integrate(sys_, z0, 0.2, 11)
        assert dm.propagate(sys_, z0, 0.2, 11).t == pytest.approx(2.2)

    @pytest.mark.parametrize("tau", [np.inf, -np.inf, np.nan, 0.0, -0.1,
                                     True, np.True_, "0.2"])
    def test_rejects_step_sizes_that_are_not_positive_and_finite(self, sys_1d, z0_1d, tau):
        """Also ``damping_work``, which returned inf at τ = 0, a negative
        work at τ < 0 and read True as 1.0."""
        for run in (dm.integrate, dm.propagate):
            with pytest.raises(ValueError, match="step size"):
                run(sys_1d, z0_1d, tau, 3)
        with pytest.raises(ValueError, match="step size"):
            dm.transition_matrices(sys_1d, None, tau)
        with pytest.raises(ValueError, match="step size"):
            dm.damping_work(sys_1d, z0_1d.q, z0_1d.q + 0.1, tau)

    def test_accepts_numpy_integer_step_count(self, sys_1d, z0_1d):
        assert dm.integrate(sys_1d, z0_1d, 0.2, np.int64(3)).n_steps == 3

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_propagate_matches_integrate(self, sys_1d, z0_1d, sys_2d, z0_2d, method):
        """Bit for bit, at n = 1 and 2, after an even and an odd number of
        steps: the last state is in either of ``propagate``'s two buffers."""
        for sys_, z0 in ((sys_1d, z0_1d), (sys_2d, z0_2d)):
            tr = dm.integrate(sys_, z0, 0.2, 41, method)
            for k in (1, 40, 41):
                final = dm.propagate(sys_, z0, 0.2, k, method)
                assert final.q.tobytes() == tr.q[k].tobytes()
                assert final.p.tobytes() == tr.p[k].tobytes()
                assert final.t == pytest.approx(0.2 * k, abs=1e-12)

    def test_singular_steps_fall_back_to_probe(self):
        # Drive the first step through an exact zero crossing: the run is
        # flagged but continues on the direct result.
        k, c, tau, q0 = 1.0, 0.1, 0.2, 0.3
        sys_ = dm.make_system([[k]], [[c]])
        z0 = dm.PhaseState(0.0, [q0], [-q0 * (2.0 / tau + c)])
        tr = dm.integrate(sys_, z0, tau, 5, "midpoint_indirect")
        assert tr.steps[0].singular
        assert tr.steps[0].defect_indirect is None
        direct = dm.integrate(sys_, z0, tau, 5, "midpoint_direct")
        assert np.array_equal(tr.steps[0].state.q, direct.steps[0].state.q)


class TestTrajectoryArrays:
    @pytest.mark.parametrize("system", ["paper_2d", "seeded_16d"])
    @pytest.mark.parametrize("method", dm.METHODS)
    def test_arrays_match_step_api_across_flushes(self, system, method, sys_2d, z0_2d):
        sys_, z0 = (sys_2d, z0_2d) if system == "paper_2d" else seeded_system()
        n = sys_.n
        steps = integrators._verify_chunk(n) + 3
        tr = dm.integrate(sys_, z0, 0.2, steps, method)
        z = np.concatenate((z0.q, z0.p))
        for k in range(steps):
            following, ks = reference_step(sys_, z, 0.2, method)
            assert tr.work[k] == dm.damping_work(sys_, z[:n], following[:n], 0.2)
            z = following
            assert np.array_equal(tr.q[k + 1], z[:n])
            assert np.array_equal(tr.p[k + 1], z[n:])
            assert tr.energy[k] == dm.total_energy(sys_, dm.PhaseState(0.0, z[:n], z[n:]))
            assert np.array_equal(tr.ktilde[k], ks.diag)
            assert ks.all_valid
            assert tr.defect_indirect[k] == dm.transition_matrices(sys_, ks, 0.2).defect_indirect
        assert tr.defect_direct == dm.transition_matrices(sys_, None, 0.2).defect_direct

    def test_arrays_are_read_only(self, sys_1d, z0_1d):
        tr = dm.integrate(sys_1d, z0_1d, 0.2, 5)
        for name in ("t", "q", "p", "energy", "work", "hhat", "ktilde", "valid",
                     "defect_indirect", "norm2_indirect"):
            with pytest.raises(ValueError):
                getattr(tr, name)[0] = 0

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_integrate_hands_arrays_over_uncopied(self, sys_1d, z0_1d, method, monkeypatch):
        kept = []

        def spy(a, dtype=float):
            out = frozen(a, dtype)
            kept.append(out is a)
            return out
        frozen = integrators._frozen
        assert frozen is dm.system._frozen   # the one freeze rule of every record
        monkeypatch.setattr(integrators, "_frozen", spy)
        tr = dm.integrate(sys_1d, z0_1d, 0.2, 5, method)
        assert len(kept) == 10 and all(kept)
        assert tr.q.base is tr.p.base

    @pytest.mark.parametrize("with_ks", [False, True])
    def test_transition_matrices_hand_arrays_over_uncopied(self, sys_1d, z0_1d, with_ks,
                                                           monkeypatch):
        ks = dm.integrate(sys_1d, z0_1d, 0.2, 1).steps[0].ktilde if with_ks else None
        kept = []

        def spy(a, dtype=float):
            out = frozen(a, dtype)
            kept.append(out is a)
            return out
        frozen = integrators._frozen
        monkeypatch.setattr(integrators, "_frozen", spy)
        pair = dm.transition_matrices(sys_1d, ks, 0.2)
        assert kept == [True] * (1 + with_ks)
        assert (pair.indirect is None) is not with_ks

    def test_pair_built_by_hand_freezes_its_matrices(self):
        direct = np.eye(2)
        assert dm.TransitionPair(direct, 0.0, None, None).indirect is None
        pair = dm.TransitionPair(direct, 0.0, direct, 0.0)
        direct[0, 0] = 9.0
        for kept in (pair.direct, pair.indirect):
            assert kept[0, 0] == 1.0
            with pytest.raises(ValueError):
                kept[0, 0] = 0.0

    def test_read_only_view_of_a_writable_array_is_copied(self, sys_1d):
        """A read-only view does not freeze its base: the caller could still
        change the trajectory through it."""
        energy = np.zeros(1)
        view = energy[:]
        view.setflags(write=False)
        tr = dm.Trajectory(system=sys_1d, tau=0.1, method="midpoint_direct",
                           t=[0.0, 0.1], q=np.zeros((2, 1)), p=np.zeros((2, 1)),
                           energy=view, work=[0.0], hhat=[0.0], ktilde=[[0.0]],
                           valid=[[True]], defect_direct=0.0, defect_indirect=[0.0])
        energy[0] = 9.0
        assert tr.energy[0] == 0.0

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_step_records_share_the_trajectory_memory(self, sys_2d, z0_2d, method):
        tr = dm.integrate(sys_2d, z0_2d, 0.2, 5, method)
        for k, rec in enumerate(tr.steps):
            assert np.shares_memory(rec.state.q, tr.q) and np.shares_memory(rec.state.p, tr.p)
            assert np.array_equal(rec.state.q, tr.q[k + 1])
            assert np.shares_memory(rec.ktilde.valid, tr.valid)
            assert rec.singular or np.shares_memory(rec.ktilde.diag, tr.ktilde)

    def test_constructor_copies_writable_inputs(self, sys_1d):
        q = np.array([[1.0], [0.5]])
        tr = dm.Trajectory(system=sys_1d, tau=0.1, method="midpoint_direct",
                           t=[0.0, 0.1], q=q, p=np.zeros((2, 1)), energy=[0.0],
                           work=[0.0], hhat=[0.0], ktilde=[[0.0]], valid=[[True]],
                           defect_direct=0.0, defect_indirect=[0.0])
        q[1, 0] = 9.0
        assert tr.q[1, 0] == 0.5
        with pytest.raises(DimensionError):
            dm.Trajectory(system=sys_1d, tau=0.1, method="midpoint_direct",
                          t=[0.0, 0.1], q=q, p=np.zeros((2, 1)), energy=[0.0, 0.0],
                          work=[0.0], hhat=[0.0], ktilde=[[0.0]], valid=[[True]],
                          defect_direct=0.0, defect_indirect=[0.0])


class TestWithoutDefects:
    """``integrate(..., defects=False)``, the run ``compare`` makes."""

    @pytest.mark.parametrize("system", ["paper_2d", "seeded_16d"])
    @pytest.mark.parametrize("method", dm.METHODS)
    def test_arrays_are_those_of_integrate(self, system, method, sys_2d, z0_2d):
        sys_, z0 = (sys_2d, z0_2d) if system == "paper_2d" else seeded_system()
        steps = integrators._verify_chunk(sys_.n) + 3
        full = dm.integrate(sys_, z0, 0.2, steps, method)
        bare = dm.integrate(sys_, z0, 0.2, steps, method, defects=False)
        for name in ("t", "q", "p", "energy", "work", "hhat", "ktilde", "valid"):
            assert getattr(bare, name).tobytes() == getattr(full, name).tobytes(), name
        assert not np.isnan(full.defect_indirect).any()
        assert np.isnan([bare.defect_direct, bare.norm2_direct]).all()
        assert np.isnan(bare.defect_indirect).all() and np.isnan(bare.norm2_indirect).all()

    @pytest.mark.parametrize("run, method, failing", [
        (SINGULAR_SUBSTITUTE, "midpoint_direct", 3),
        (SINGULAR_SUBSTITUTE, "midpoint_indirect", 3),
        (SINGULAR_SUBSTITUTE, "rk4", None),
        (NEAR_SINGULAR_SUBSTITUTE, "midpoint_direct", None),
        (NEAR_SINGULAR_SUBSTITUTE, "midpoint_indirect", None),
        (NEAR_SINGULAR_SUBSTITUTE, "rk4", 1),
    ], ids=["singular-direct", "singular-indirect", "singular-rk4",
            "near-singular-direct", "near-singular-indirect", "near-singular-rk4"])
    def test_fails_where_integrate_fails(self, run, method, failing):
        """A singular substituting factor fails the direct and RK4 runs in
        their stacked factor of it and the indirect run in its step, with
        or without defects: same step, same message, or the same arrays."""
        outcomes = []
        for defects in (True, False):
            try:
                tr = dm.integrate(*run, 20, method, defects=defects)
                outcomes.append((tr.q.tobytes(), tr.p.tobytes(), tr.valid.tobytes()))
            except IntegrationError as exc:
                outcomes.append((exc.step_index, str(exc)))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] == failing) if failing else (len(outcomes[0]) == 3)


def _signed_entries(rng, shape):
    """Entries of magnitude 1e-8 to 1e8 of either sign, a quarter of them
    +0.0 or -0.0."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    zero = rng.random(shape) < 0.25
    x[zero] = rng.choice([-0.0, 0.0], int(zero.sum()))
    return x


class TestRk4Kernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
    def test_steps_are_the_reference_bit_for_bit(self, n):
        """RK4's slope takes K·q and C·p as ``.dot`` of float lists for
        n >= 2, and as ``@`` at n = 1, where ``.dot`` would keep the -0.0 of
        a one-element product that ``@`` makes +0.0 (a start at -0.0 with
        positive K and C shows it). Bits are compared, so signed zeros
        count."""
        rng = np.random.default_rng(n)
        ones = np.ones((n, n))
        cases = [(ones, ones, np.full(2 * n, -0.0), 1.0)]
        cases += [(_signed_entries(rng, (n, n)), _signed_entries(rng, (n, n)),
                   _signed_entries(rng, 2 * n), rng.uniform(1e-3, 1.0)) for _ in range(300)]
        for K, C, z, tau in cases:
            got = np.full(2 * n, np.nan)
            assert integrators._rk4(K, C, tau)(z, got) is None
            assert got.tobytes() == rk4(K, C, tau, z).tobytes(), (K, C, tau, z)


class TestStepKernel:
    """``step(z, out)`` of each scheme writes ``reference_step``'s bits
    into ``out`` and leaves z as it was. The indirect step returns its
    ``ks``, the direct step ``out`` and RK4 None."""

    @pytest.mark.parametrize("method", dm.METHODS)
    @pytest.mark.parametrize("case", ["1d", "zero-crossing", "2d", "6dof"])
    def test_writes_the_reference_step_into_out(self, request, case, method):
        tau = 0.2
        if case == "zero-crossing":
            # The probe lands on q1 = -q0, so the indirect step is singular
            # and writes the probe.
            sys_ = dm.make_system([[1.0]], [[0.1]])
            z0 = dm.PhaseState(0.0, [0.3], [-0.3 * (2.0 / tau + 0.1)])
        elif case == "6dof":   # 12×12 factors, solved through their structure
            sys_, z0 = seeded_system(6, seed=3)
        else:
            sys_ = request.getfixturevalue(f"sys_{case}")
            z0 = request.getfixturevalue(f"z0_{case}")
        tr = dm.integrate(sys_, z0, tau, 20, method)
        step = integrators._start(sys_, z0, tau, 1, method, dm.DEFAULT_EPSILON)[3]
        singular = []
        for z in np.hstack((tr.q, tr.p)):
            given = z.tobytes()
            out = np.full(z.shape, np.nan)
            ks = step(z, out)
            expected, ktilde = reference_step(sys_, z, tau, method)
            assert out.tobytes() == expected.tobytes()
            assert z.tobytes() == given
            if method == "midpoint_indirect":
                diag, valid, substitute = ks
                assert diag == ktilde.diag.tolist() and valid == ktilde.valid.tolist()
                assert (substitute is None) == (not ktilde.all_valid)
                singular.append(substitute is None)
            else:   # the direct step is the prepared solve, which returns out
                assert ks is (out if method == "midpoint_direct" else None)
        if method == "midpoint_indirect":
            assert singular[0] == (case == "zero-crossing")


class TestBlowUp:
    """K = 1, C = -5 gains energy every step until the state overflows."""

    @pytest.mark.parametrize("method", dm.METHODS)
    def test_first_nonfinite_step_reported(self, method):
        sys_ = dm.make_system([[1.0]], [[-5.0]])
        z0 = dm.PhaseState(0.0, [0.1], [0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="state is not finite") as err:
                dm.propagate(sys_, z0, 0.5, 5000, method)
            k = err.value.step_index
            last = dm.propagate(sys_, z0, 0.5, k - 1, method)
            assert np.all(np.isfinite(last.q)) and np.all(np.isfinite(last.p))
            # The energy overflows before the state does: integrate reports
            # the ledger's first non-finite step, whatever the run's length.
            ledger = []
            for n_steps in (k - 1, k, 400, 5000):
                with pytest.raises(IntegrationError, match="ledger is not finite") as failed:
                    dm.integrate(sys_, z0, 0.5, n_steps, method)
                ledger.append(failed.value.step_index)
            dm.integrate(sys_, z0, 0.5, ledger[0] - 1, method)
        assert len(set(ledger)) == 1 and 1 < ledger[0] < k
        if method != "rk4":
            assert ledger[0] == 149
        with pytest.raises(IntegrationError) as exact:
            dm.propagate(sys_, z0, 0.5, k, method)
        assert exact.value.step_index == k
