"""System construction, energies, equivalent stiffness, scalar oracle, and
the immutable records of the whole package."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import damped_midpoint as dm
from damped_midpoint import cli
from damped_midpoint.errors import DimensionError, InvalidStiffnessError
from damped_midpoint.integrators import _substituting_pairs
from damped_midpoint.system import _equivalent_stiffness_arrays


def equivalent_stiffness(sys_, q_k, q_k1, tau):
    """K̃ of the step q_k -> q_k1 at the default guard."""
    diag, valid = _equivalent_stiffness_arrays(sys_.C, np.asarray(q_k, dtype=float),
                                               np.asarray(q_k1, dtype=float), tau,
                                               dm.DEFAULT_EPSILON)
    return dm.EquivalentStiffness(diag=diag, valid=valid)


def closed_form_step(k, c, tau, q, p):
    """Scalar time-centered step in closed form; independent of the
    library's linear-solve path, used as the oracle throughout."""
    den = 4.0 + tau * tau * k + 2.0 * tau * c
    q1 = (4.0 * q - tau * tau * k * q + 2.0 * tau * c * q + 4.0 * tau * p) / den
    p1 = -(4.0 * tau * k * q + tau * tau * k * p + 2.0 * tau * c * p - 4.0 * p) / den
    return q1, p1


class TestConstruction:
    def test_paper_1d_certified(self, sys_1d):
        assert sys_1d.n == 1
        assert sys_1d.monotone_energy_certified

    def test_paper_2d_certified(self, sys_2d):
        # damping eigenvalues are positive: trace 0.04, det 2e-4
        assert sys_2d.n == 2
        assert sys_2d.monotone_energy_certified

    def test_anti_damping_constructs_uncertified(self):
        s = dm.make_system([[1.0]], [[-1.0]])
        assert not s.monotone_energy_certified

    @pytest.mark.parametrize("damping, certified", [
        ([[1.0, 1.0], [1.0, 1.0]], True),   # eigenvalues 0 and 2
        ([[-1e-13]], True),                 # within the 1e-12 tolerance
        ([[-1e-11]], False),
        ([[0.0, 3.0], [-3.0, 0.0]], True),  # skew damping dissipates nothing
    ])
    def test_psd_certificate_at_boundary(self, damping, certified):
        assert dm.make_system(np.eye(len(damping)), damping).monotone_energy_certified \
            is certified

    def test_random_indefinite_damping_uncertified(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 6))
        sym = b @ b.T - np.median(np.linalg.eigvalsh(b @ b.T)) * np.eye(6)
        skew = rng.standard_normal((6, 6))
        c = sym + skew - skew.T
        eigenvalues = np.linalg.eigvalsh(c + c.T)
        assert eigenvalues[0] < 0.0 < eigenvalues[-1]
        assert not dm.make_system(np.eye(6), c).monotone_energy_certified

    def test_asymmetric_stiffness_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            dm.make_system([[1.0, 0.5], [0.0, 1.0]], np.zeros((2, 2)))

    @pytest.mark.parametrize("K, C", [(np.eye(2), np.zeros((3, 3))),
                                      (np.ones((2, 3)), np.ones((2, 3))),
                                      (np.ones(2), np.ones(2))],
                             ids=["mismatch", "non-square", "vector"])
    def test_dimension_mismatch_rejected(self, K, C):
        with pytest.raises(DimensionError):
            dm.make_system(K, C)

    @pytest.mark.parametrize("K, C", [([[np.nan]], [[0.0]]), ([[1.0]], [[np.inf]])],
                             ids=["K-nan", "C-inf"])
    def test_matrices_must_be_finite(self, K, C):
        with pytest.raises(ValueError, match="finite"):
            dm.make_system(K, C)

    def test_no_degrees_of_freedom_rejected(self):
        with pytest.raises(DimensionError, match="degrees of freedom"):
            dm.make_system(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_huge_damping_does_not_warn(self):
        """C + Cᵀ overflows at 1e308; its symmetric part does not."""
        s = dm.make_system([[1.0]], [[1e308]])
        assert s.monotone_energy_certified

    def test_overflowing_asymmetry_rejected_without_warning(self):
        """K - Kᵀ overflows to inf here, which still rejects K."""
        with pytest.raises(ValueError, match="symmetric"):
            dm.make_system([[0.0, 1e308], [-1e308, 0.0]], np.zeros((2, 2)))

    def test_asymmetric_damping_allowed(self):
        s = dm.make_system(np.eye(2), [[0.1, 0.2], [0.0, 0.1]])
        assert s.n == 2

    def test_matrices_read_only(self, sys_1d):
        with pytest.raises(ValueError):
            sys_1d.K[0, 0] = 9.0

    @pytest.mark.parametrize("label", [5, None, b"paper_1d"])
    def test_label_that_is_no_string_rejected(self, label):
        with pytest.raises(ValueError, match="label must be a string"):
            dm.make_system([[1.0]], [[0.1]], label=label)


class TestPhaseState:
    def test_requires_finite(self):
        with pytest.raises(ValueError):
            dm.PhaseState(0.0, [np.nan], [0.0])

    def test_requires_matching_lengths(self):
        with pytest.raises(DimensionError):
            dm.PhaseState(0.0, [1.0, 2.0], [1.0])

    @pytest.mark.parametrize("t", [True, np.False_, "0.0", None])
    def test_time_that_is_no_real_number_rejected(self, t):
        """Not read as 1.0 (True), nor parsed from a string."""
        with pytest.raises(ValueError, match="time must be a real number"):
            dm.PhaseState(t, [1.0], [0.0])

    @pytest.mark.parametrize("t", [1, np.float32(0.5), np.int64(2)])
    def test_real_times_of_other_types_kept_as_floats(self, t):
        state = dm.PhaseState(t, [1.0], [0.0])
        assert type(state.t) is float and state.t == t


class TestTotalEnergy:
    def test_paper_1d_value(self, sys_1d, z0_1d):
        assert dm.total_energy(sys_1d, z0_1d) == pytest.approx(0.03, abs=1e-15)

    def test_zero_state(self, sys_1d):
        assert dm.total_energy(sys_1d, dm.PhaseState(0.0, [0.0], [0.0])) == 0.0

    def test_paper_2d_value(self, sys_2d, z0_2d):
        assert dm.total_energy(sys_2d, z0_2d) == pytest.approx(0.1, abs=1e-15)

    def test_splits_into_kinetic_and_elastic(self, sys_2d):
        rng = np.random.default_rng(5)
        q = rng.uniform(-1, 1, 2)
        p = rng.uniform(-1, 1, 2)
        elastic = dm.total_energy(sys_2d, dm.PhaseState(0.0, q, np.zeros(2)))
        kinetic = dm.total_energy(sys_2d, dm.PhaseState(0.0, np.zeros(2), p))
        assert elastic == pytest.approx(0.5 * q @ sys_2d.K @ q, rel=1e-14)
        assert kinetic == pytest.approx(0.5 * p @ p, rel=1e-14)

    def test_dimension_mismatch(self, sys_2d):
        with pytest.raises(DimensionError):
            dm.total_energy(sys_2d, dm.PhaseState(0.0, [1.0], [1.0]))


class TestEquivalentStiffness:
    def test_diag_and_valid_lengths_must_match(self):
        with pytest.raises(DimensionError, match="equal-length"):
            dm.EquivalentStiffness(diag=[0.1, 0.2], valid=[True])

    def test_undamped_gives_zero(self):
        s = dm.make_system(np.eye(2), np.zeros((2, 2)))
        ks = equivalent_stiffness(s, [0.1, 0.2], [0.15, 0.25], 0.1)
        assert np.array_equal(ks.diag, np.zeros(2))
        assert ks.all_valid

    def test_paper_1d_first_step_value(self, sys_1d):
        # q1 from the closed-form oracle; the quotient then reduces to the
        # exact rational 18/241.
        q1, _ = closed_form_step(2.0, 0.05, 0.2, 0.1, 0.2)
        ks = equivalent_stiffness(sys_1d, [0.1], [q1], 0.2)
        assert ks.all_valid
        assert ks.diag[0] == pytest.approx(18.0 / 241.0, abs=1e-13)

    def test_midpoint_zero_crossing_flagged(self, sys_1d):
        ks = equivalent_stiffness(sys_1d, [0.1], [-0.1], 0.2)
        assert not ks.valid[0]
        assert ks.diag[0] == 0.0

    def test_linear_in_damping(self, sys_2d):
        doubled = dm.make_system(sys_2d.K, 2.0 * sys_2d.C)
        q_k = np.array([0.11, -0.07])
        q_k1 = np.array([0.13, -0.02])
        base = equivalent_stiffness(sys_2d, q_k, q_k1, 0.2)
        twice = equivalent_stiffness(doubled, q_k, q_k1, 0.2)
        assert np.allclose(twice.diag, 2.0 * base.diag, rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_force_matching_identity(self, n):
        # The defining identity: the equivalent elastic force at the step
        # midpoint equals the damping force C·Δq/τ, componentwise.
        rng = np.random.default_rng(n)
        sys_ = dm.make_system(np.eye(n), rng.uniform(0.0, 0.3, (n, n)))
        for _ in range(20):
            q_k = rng.uniform(0.1, 1.0, n)
            q_k1 = rng.uniform(0.1, 1.0, n)
            tau = rng.uniform(0.05, 0.5)
            ks = equivalent_stiffness(sys_, q_k, q_k1, tau)
            assert ks.all_valid
            elastic = ks.diag * 0.5 * (q_k + q_k1)
            damping = sys_.C @ (q_k1 - q_k) / tau
            assert np.max(np.abs(elastic - damping)) <= 1e-13 * np.max(
                np.abs(damping) + 1e-300)

    def test_dimension_mismatch(self, sys_1d):
        ks = dm.EquivalentStiffness(diag=[0.1, 0.2], valid=[True, True])
        with pytest.raises(DimensionError):
            dm.transition_matrices(sys_1d, ks, 0.2)


class TestSubstitutingSystem:
    """The substituting scheme: stiffness K + K̃ and no damping."""

    def test_zero_stiffness_returns_undamped_skeleton(self, sys_2d):
        m, nn = _substituting_pairs(sys_2d.K, 0.2)(np.zeros(2))
        m0, n0 = dm.scheme_factors(sys_2d.K, np.zeros((2, 2)), 0.2)
        assert np.array_equal(m, m0) and np.array_equal(nn, n0)
        ks = dm.EquivalentStiffness(diag=np.zeros(2), valid=np.ones(2, bool))
        undamped = dm.make_system(sys_2d.K, np.zeros((2, 2)))
        assert np.array_equal(dm.transition_matrices(sys_2d, ks, 0.2).indirect,
                              dm.transition_matrices(undamped, None, 0.2).direct)

    def test_paper_1d_composed_value(self, sys_1d):
        q1, _ = closed_form_step(2.0, 0.05, 0.2, 0.1, 0.2)
        ks = equivalent_stiffness(sys_1d, [0.1], [q1], 0.2)
        m, nn = _substituting_pairs(sys_1d.K, 0.2)(ks.diag)
        # Lower-left blocks ±(τ/2)·(K + K̃), with K + K̃ = 2 + 18/241.
        assert m[1, 0] / 0.1 == pytest.approx(2.0 + 18.0 / 241.0, abs=1e-13)
        assert nn[1, 0] == -m[1, 0]
        composed = dm.make_system([[2.0 + 18.0 / 241.0]], [[0.0]])
        assert np.allclose(dm.transition_matrices(sys_1d, ks, 0.2).indirect,
                           dm.transition_matrices(composed, None, 0.2).direct,
                           rtol=1e-13, atol=0.0)

    def test_invalid_entry_lists_indices(self, sys_2d):
        ks = dm.EquivalentStiffness(diag=[0.5, 0.0], valid=[True, False])
        with pytest.raises(InvalidStiffnessError) as err:
            dm.transition_matrices(sys_2d, ks, 0.2)
        assert err.value.indices == (1,)


class TestAnalytic1d:
    def test_initial_condition(self):
        q, p = dm.analytic_1d(2.0, 0.05, 0.1, 0.2, 0.0)
        assert q == 0.1 and p == 0.2

    def test_pure_sine_quarter_period(self):
        q, p = dm.analytic_1d(1.0, 0.0, 0.0, 1.0, np.pi / 2.0)
        assert q == pytest.approx(1.0, abs=1e-15)
        assert p == pytest.approx(0.0, abs=1e-15)

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError, match="underdamped"):
            dm.analytic_1d(1.0, 2.0, 0.1, 0.0, 1.0)

    @pytest.mark.parametrize("k, c", [(0.0, 0.1), (-1.0, 0.0), (1.0, -0.1)])
    def test_stiffness_not_positive_or_damping_negative_rejected(self, k, c):
        with pytest.raises(ValueError, match="need k > 0 and c >= 0"):
            dm.analytic_1d(k, c, 0.1, 0.0, 1.0)

    def test_satisfies_equation_of_motion(self):
        # Central second difference of q against -k·q - c·p.
        rng = np.random.default_rng(11)
        k, c = 2.0, 0.05
        h = 1e-4
        for _ in range(20):
            t = rng.uniform(0.5, 20.0)
            qm, _ = dm.analytic_1d(k, c, 0.1, 0.2, t - h)
            q0, p0 = dm.analytic_1d(k, c, 0.1, 0.2, t)
            qp, _ = dm.analytic_1d(k, c, 0.1, 0.2, t + h)
            accel = (qp - 2.0 * q0 + qm) / (h * h)
            assert accel == pytest.approx(-k * q0 - c * p0, abs=1e-6)

    def test_momentum_is_coordinate_rate(self):
        h = 1e-6
        qm, _ = dm.analytic_1d(2.0, 0.05, 0.1, 0.2, 3.0 - h)
        qp, _ = dm.analytic_1d(2.0, 0.05, 0.1, 0.2, 3.0 + h)
        _, p = dm.analytic_1d(2.0, 0.05, 0.1, 0.2, 3.0)
        assert (qp - qm) / (2.0 * h) == pytest.approx(p, abs=1e-9)

    def test_cross_check_against_rk4(self, sys_1d, z0_1d):
        # Dual-oracle check at t = 10. The baseline integrator applied to
        # a linear system is one fixed linear map per step (see the exact
        # linearity test in test_integrators), so 10^5 steps at tau = 1e-4
        # equal the 10^5-th power of the one-step matrix.
        tau = 1e-4
        cols = []
        for e in np.eye(2):
            out = dm.propagate(sys_1d, dm.PhaseState(0.0, [e[0]], [e[1]]), tau, 1, "rk4")
            cols.append([out.q[0], out.p[0]])
        r = np.array(cols).T
        z = np.linalg.matrix_power(r, 100000) @ np.array([z0_1d.q[0], z0_1d.p[0]])
        qa, pa = dm.analytic_1d(2.0, 0.05, 0.1, 0.2, 10.0)
        assert np.max(np.abs(z - [qa, pa])) <= 1e-8


#: The ten public records and their fields in order: those a caller passes,
#: then the derived ones that construction sets.
RECORDS = {
    "DampedLinearSystem": (("K", "C", "label"), ("n", "monotone_energy_certified")),
    "PhaseState": (("t", "q", "p"), ()),
    "EquivalentStiffness": (("diag", "valid"), ()),
    "TransitionPair": (("direct", "defect_direct", "indirect", "defect_indirect"), ()),
    "StepRecord": (("state", "energy", "work_increment", "hhat", "defect_direct",
                    "defect_indirect", "singular", "ktilde"), ()),
    "Trajectory": (("system", "tau", "method", "t", "q", "p", "energy", "work", "hhat",
                    "ktilde", "valid", "defect_direct", "defect_indirect", "norm2_direct",
                    "norm2_indirect"), ()),
    "EnergyReport": (("energy", "work_cumulative", "hhat", "initial_energy",
                      "max_hhat_deviation", "max_energy_residual", "monotone",
                      "singular_steps"), ()),
    "ConvergenceRow": (("tau", "error", "observed_order"), ()),
    "ConvergenceTable": (("rows", "reference"), ()),
    "RunConfig": (("system", "initial", "tau", "n_steps", "method", "epsilon",
                   "output_prefix", "label"), ()),
}


@pytest.fixture(scope="module")
def records():
    """One instance of each record, as the library makes it."""
    config = cli.load_config("paper_1d")
    tr = dm.integrate(config.system, config.initial, 0.2, 3, "midpoint_indirect")
    table = dm.convergence_study(config.system, config.initial, 0.1, 2, 1.0,
                                 "midpoint_direct")
    step = tr.steps[0]
    made = (config.system, step.state, step.ktilde,
            dm.transition_matrices(config.system, step.ktilde, 0.2), step, tr,
            dm.energy_report(tr), table.rows[1], table, config)
    return {type(record).__name__: record for record in made}


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    def test_repr_names_every_field(self, records, name):
        record = records[name]
        passed, derived = RECORDS[name]
        fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in passed + derived)
        assert repr(record) == f"{name}({fields})"

    def test_built_by_position_or_by_keyword(self, records, name):
        record = records[name]
        passed, _ = RECORDS[name]
        values = [getattr(record, field) for field in passed]
        record_type = type(record)
        for rebuilt in (record_type(*values), record_type(**dict(zip(passed, values))),
                        record_type(values[0], **dict(zip(passed[1:], values[1:])))):
            assert repr(rebuilt) == repr(record)

    def test_binding_errors_are_type_errors(self, records, name):
        record = records[name]
        passed, derived = RECORDS[name]
        values = [getattr(record, field) for field in passed]
        record_type = type(record)
        for args, kwargs in [(values[:1], {}), (values + [None], {}),
                             (values, {passed[0]: values[0]}),
                             (values, {"unknown": None}),
                             (values, dict.fromkeys(derived, None))]:
            if kwargs or len(args) != len(passed):
                with pytest.raises(TypeError):
                    record_type(*args, **kwargs)

    def test_assignment_and_deletion_refused(self, records, name):
        record = records[name]
        passed, derived = RECORDS[name]
        for field in passed + derived + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record).startswith(f"{name}(")


def test_records_compare_and_hash_by_their_fields():
    row = dm.ConvergenceRow(0.1, 1e-3, None)
    assert row == dm.ConvergenceRow(tau=0.1, error=1e-3, observed_order=None)
    assert hash(row) == hash(dm.ConvergenceRow(0.1, 1e-3, None))
    assert row != dm.ConvergenceRow(0.1, 1e-3, 2.0)
    assert row != (0.1, 1e-3, None)
    state = dm.PhaseState(0.0, [1.0], [0.0])
    assert state == state and state != row
    with pytest.raises(TypeError):
        hash(state)   # arrays are unhashable, as in a frozen dataclass


def test_package_import_loads_no_dataclasses():
    """The records generate no code: a fresh interpreter that imports the
    command line loads no ``dataclasses`` module."""
    src = Path(dm.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, damped_midpoint.cli; "
         "print(damped_midpoint.__file__); print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == [dm.__file__, "False"]
