from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse

from conftest import DEFAULT_SEED, random_connected_assignment
from gridest import central, grid, linalg, local_solver, measurements, partition
from gridest.errors import DimensionMismatch, InnerDiverged, SingularKkt, ZeroVoltage


class _Affine:
    """eval(y) = A y - b with the exact Jacobian A, as CSR.  As constraints,
    A's column identity_columns[r] must be unit vector r."""

    def __init__(self, a, b, identity_columns=()):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.identity_columns = np.asarray(identity_columns, dtype=int)

    def eval(self, y):
        return self.a @ y - self.b

    def jacobian(self, y):
        return scipy.sparse.csr_array(self.a)


def _no_constraints(n):
    return _Affine(np.zeros((0, n)), np.zeros(0))


def test_linear_least_squares_is_solved_in_one_step():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 4))
    b = rng.standard_normal(7)
    sol = local_solver.solve_local(_Affine(a, b), _no_constraints(4), y0=np.zeros(4))
    assert sol.converged
    assert sol.inner_iterations <= 2
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(sol.y, expected, atol=1e-10)
    assert sol.fit == pytest.approx(float(np.sum((a @ expected - b) ** 2)), abs=1e-12)
    assert sol.kkt_residual <= 1e-8


def test_proximal_term_pulls_toward_the_target():
    # minimize ||Ay - b||^2 + rho/2 ||y - z||^2 has the closed form
    # (2 A^T A + rho I) y = 2 A^T b + rho z.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    z = rng.standard_normal(3)
    rho = 7.5
    sol = local_solver.solve_local(
        _Affine(a, b), _no_constraints(3), y0=np.zeros(3),
        rho=rho, prox_target=z,
    )
    expected = np.linalg.solve(2.0 * a.T @ a + rho * np.eye(3), 2.0 * a.T @ b + rho * z)
    assert sol.converged
    assert np.allclose(sol.y, expected, atol=1e-10)


def test_proximal_term_on_a_subset_of_coordinates():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    idx = np.array([1, 3])
    z = np.array([5.0, -2.0])
    rho = 3.0
    sol = local_solver.solve_local(
        _Affine(a, b), _no_constraints(4), y0=np.zeros(4),
        rho=rho, prox_target=z, prox_idx=idx,
    )
    h = 2.0 * a.T @ a
    h[idx, idx] += rho
    rhs = 2.0 * a.T @ b
    rhs[idx] += rho * z
    assert np.allclose(sol.y, np.linalg.solve(h, rhs), atol=1e-10)


def test_linear_penalty_shifts_the_optimum():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    lam = np.array([0.4, -0.2, 1.0])
    sol = local_solver.solve_local(
        _Affine(a, b), _no_constraints(3), y0=np.zeros(3), lin=lam
    )
    expected = np.linalg.solve(2.0 * a.T @ a, 2.0 * a.T @ b - lam)
    assert np.allclose(sol.y, expected, atol=1e-10)


def test_equality_constraint_and_multipliers():
    # minimize ||y - a||^2 subject to y_1 + y_2 = 1.
    a = np.array([3.0, -1.0])
    constraints = _Affine(np.array([[1.0, 1.0]]), np.array([1.0]), identity_columns=[1])
    sol = local_solver.solve_local(_Affine(np.eye(2), a), constraints, y0=np.zeros(2))
    assert sol.converged
    # Projection of a onto the constraint plane.
    shift = (1.0 - a.sum()) / 2.0
    assert np.allclose(sol.y, a + shift, atol=1e-10)
    # Stationarity: 2 (y - a) + kappa (1, 1) = 0.
    grad = 2.0 * (sol.y - a)
    assert np.allclose(grad + sol.kappa[0] * np.array([1.0, 1.0]), 0.0, atol=1e-8)


def test_nonlinear_problem_converges_quadratically():
    # minimize ||y - t||^2 on the paraboloid y_2 = y_0^2 + y_1^2, whose
    # Jacobian is the identity on column 2.
    class Paraboloid:
        identity_columns = np.array([2])

        def eval(self, y):
            return np.array([y[2] - y[0] ** 2 - y[1] ** 2])

        def jacobian(self, y):
            return scipy.sparse.csr_array(np.array([[-2.0 * y[0], -2.0 * y[1], 1.0]]))

    paraboloid = Paraboloid()
    target = np.array([1.0, 0.0, 0.5])
    sol = local_solver.solve_local(_Affine(np.eye(3), target), paraboloid, y0=np.zeros(3))
    assert sol.converged
    assert np.abs(paraboloid.eval(sol.y)).max() <= 1e-8
    stationarity = 2.0 * (sol.y - target) + paraboloid.jacobian(sol.y).T @ sol.kappa
    assert np.abs(stationarity).max() <= 1e-8
    # On y = (x, 0, x^2) the objective's derivative 4 x^3 - 2 vanishes at x = 2^(-1/3).
    assert np.allclose(sol.y, [2.0 ** (-1 / 3), 0.0, 2.0 ** (-2 / 3)], atol=1e-8)


def test_max_inner_exhaustion_reports_not_converged():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    sol = local_solver.solve_local(
        _Affine(a, b), _no_constraints(5), y0=10.0 + np.zeros(5), max_inner=0
    )
    assert not sol.converged
    assert sol.inner_iterations == 0


@pytest.mark.parametrize("bad", [
    pytest.param(dict(lin=np.ones(1)), id="lin-of-length-1"),
    pytest.param(dict(rho=1.0, prox_target=np.ones(1)), id="prox_target-of-length-1"),
    pytest.param(dict(rho=1.0, prox_target=np.zeros(2), prox_idx=[0, 120]), id="prox_idx-past-the-end"),
    pytest.param(dict(rho=1.0, prox_target=np.zeros(2), prox_idx=[0, -1]), id="prox_idx-negative"),
    pytest.param(dict(rho=1.0), id="no-prox_target"),
    pytest.param(dict(rho=1.0, prox_target=np.zeros(2), prox_idx=[0, 0]), id="prox_idx-repeated"),
])
def test_arguments_that_do_not_fit_the_state_fail_before_any_evaluation(case30, mset30, monkeypatch, bad):
    """On the ieee30 central problem (120 states), a length-1 lin or
    prox_target would broadcast into a different problem, an index outside
    0..119 would wrap or fail mid-solve, rho without a target has nothing
    to pull toward, and a repeated index would enter the step once and the
    merit twice: each raises DimensionMismatch first."""
    calls = []
    for cls in (measurements.RegionResidual, grid.PowerFlowModel):
        for name in ("eval", "jacobian"):
            original = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, y, f=original: calls.append(f) or f(self, y))
    residual, model = measurements.RegionResidual(case30, mset30), grid.PowerFlowModel(case30)
    with pytest.raises(DimensionMismatch):
        local_solver.solve_local(residual, model, y0=grid.flat_state(case30.n_bus), mu=central.MU, **bad)
    assert calls == []


def test_dense_jacobians_are_rejected_before_the_first_step():
    class Dense(_Affine):
        def jacobian(self, y):
            return self.a

    with pytest.raises(TypeError, match="scipy.sparse"):
        local_solver.solve_local(Dense(np.eye(3), np.ones(3)), _no_constraints(3), y0=np.zeros(3))


def test_a_relative_solve_stops_against_its_start_residual():
    """relative scales tol by max(1, r0), r0 the KKT residual at y0 (what
    a zero-step solve reports); each solution records the tolerance used."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 5))
    b = 1e3 * rng.standard_normal(8)
    residual, constraints = _Affine(a, b), _no_constraints(5)
    r0 = local_solver.solve_local(residual, constraints, y0=np.zeros(5), tol=0.0, max_inner=0).kkt_residual
    assert r0 > 1.0
    relative = local_solver.solve_local(residual, constraints, y0=np.zeros(5), tol=1e-2, relative=True)
    assert relative.tol == 1e-2 * r0
    assert relative.converged and relative.kkt_residual <= relative.tol
    absolute = local_solver.solve_local(residual, constraints, y0=np.zeros(5), tol=1e-2)
    assert absolute.tol == 1e-2
    # A start residual below 1 leaves the tolerance absolute.
    small = local_solver.solve_local(residual, constraints, y0=absolute.y, tol=1e-2, relative=True)
    assert small.tol == 1e-2
    assert small.inner_iterations == 0


def test_lying_jacobian_raises_inner_diverged():
    # A Jacobian with the wrong sign turns the computed step into an
    # ascent direction; backtracking must give up rather than loop.
    class Liar:
        def eval(self, y):
            return y.copy()

        def jacobian(self, y):
            return -scipy.sparse.eye_array(len(y), format="csr")

    with pytest.raises(InnerDiverged):
        local_solver.solve_local(
            Liar(), _no_constraints(3), y0=np.array([1.0, 2.0, -1.5])
        )


class _NanAbove2:
    """eval(y) = y - 3, NaN in the entries of nan_cols where y > 2, with
    the identity Jacobian."""

    def __init__(self, nan_cols):
        self.nan_cols = np.asarray(nan_cols, dtype=int)

    def eval(self, y):
        res = y - 3.0
        res[self.nan_cols[y[self.nan_cols] > 2.0]] = np.nan
        return res

    def jacobian(self, y):
        return scipy.sparse.eye_array(len(y), format="csr")


def test_a_trial_with_a_nan_merit_is_not_accepted():
    """Under y_1 = 0.5 y_0 the fit's minimizer lies where its residual is
    NaN, so every step toward it is a NaN trial: the line search rejects
    each one and the solve ends with InnerDiverged, not with a non-finite
    KKT system.  A second block in the same batch converges as it does
    alone."""
    physics = _Affine([[-0.5, 1.0]], [0.0], identity_columns=[1])
    with pytest.raises(InnerDiverged):
        local_solver.solve_local(_NanAbove2([0, 1]), physics, np.zeros(2))
    blocks = local_solver.Blocks([0, 2, 3], [0, 1, 1], [0, 0, 1])
    batch_physics = _Affine([[-0.5, 1.0, 0.0]], [0.0], identity_columns=[1])
    failed, solved = local_solver.solve_batch(_NanAbove2([0, 1]), batch_physics, np.zeros(3), blocks)
    alone = local_solver.solve_local(_NanAbove2([]), _no_constraints(1), np.zeros(1))
    assert isinstance(failed, InnerDiverged)
    assert alone.converged and alone.y == pytest.approx([3.0])
    for field in dataclasses.fields(alone):
        assert np.array_equal(getattr(solved, field.name), getattr(alone, field.name)), field.name


class _LogFit:
    """eval(y) = (y_0 - 3, log y_1 - log 0.01): the second entry is, like a
    line flow at v_k <= 0, undefined for y_1 <= 0, and the ZeroVoltage it
    raises there names columns (grid.line_flows names the rejected v_k)."""

    def __init__(self, columns=(1,)):
        self.columns = columns

    def eval(self, y):
        if y[1] <= 0.0:
            raise ZeroVoltage("needs y_1 > 0", columns=self.columns)
        return np.array([y[0] - 3.0, np.log(y[1]) - np.log(0.01)])

    def jacobian(self, y):
        return scipy.sparse.diags_array([1.0, 1.0 / y[1]], format="csr")


def test_a_block_whose_trial_leaves_its_domain_backtracks_alone():
    """Two one-state blocks: block 0 is linear and takes its full step;
    block 1's full Gauss-Newton step, 1 - log(100), leaves y_1 > 0 and is
    halved until it returns, without holding block 0 back."""
    blocks = local_solver.Blocks([0, 1, 2], [0, 0, 0], [0, 1])
    sols = local_solver.solve_batch(_LogFit(), _no_constraints(2), np.array([0.0, 1.0]), blocks)
    assert all(sol.converged for sol in sols)
    assert sols[0].y == pytest.approx([3.0]) and sols[0].inner_iterations == 1
    assert sols[1].y == pytest.approx([0.01]) and sols[1].inner_iterations > 1
    # Block 1 starts outside its domain: only it fails.
    sols = local_solver.solve_batch(_LogFit(), _no_constraints(2), np.array([0.0, -1.0]), blocks)
    assert sols[0].converged and isinstance(sols[1], ZeroVoltage)


def test_a_zero_voltage_that_names_no_columns_is_about_every_block():
    """A residual outside the package may raise ZeroVoltage without naming
    the states it rejected: the one block of solve_local backtracks from
    such a trial as from one that names them, and fails at such a start."""
    sol = local_solver.solve_local(_LogFit(columns=()), _no_constraints(2), np.array([0.0, 1.0]))
    assert sol.converged and sol.y == pytest.approx([3.0, 0.01])
    with pytest.raises(ZeroVoltage, match="needs y_1 > 0"):
        local_solver.solve_local(_LogFit(columns=()), _no_constraints(2), np.array([0.0, -1.0]))


def test_a_gauss_newton_system_that_is_not_finite_fails_its_block_alone():
    """From (5, 2.5) the residual of _NanAbove2([0, 1]) is NaN, so the first
    Gauss-Newton system is not finite: that block ends with InnerDiverged,
    and a third, well-behaved block in the same batch is its solve alone."""
    physics = _Affine([[-0.5, 1.0]], [0.0], identity_columns=[1])
    with pytest.raises(InnerDiverged, match="non-finite entries in the Gauss-Newton system"):
        local_solver.solve_local(_NanAbove2([0, 1]), physics, np.array([5.0, 2.5]))
    blocks = local_solver.Blocks([0, 2, 3], [0, 1, 1], [0, 0, 1])
    batch_physics = _Affine([[-0.5, 1.0, 0.0]], [0.0], identity_columns=[1])
    failed, solved = local_solver.solve_batch(_NanAbove2([0, 1]), batch_physics, np.array([5.0, 2.5, 0.0]), blocks)
    alone = local_solver.solve_local(_NanAbove2([]), _no_constraints(1), np.zeros(1))
    assert isinstance(failed, InnerDiverged)
    assert alone.converged and alone.y == pytest.approx([3.0])
    for field in dataclasses.fields(alone):
        assert np.array_equal(getattr(solved, field.name), getattr(alone, field.name)), field.name


def test_a_block_left_singular_after_the_ridge_fails_alone(monkeypatch):
    """Block 0 has a gradient but no curvature.  With a zero ridge the
    batch's reduced system stays singular; factored block by block, only
    block 0's does, and block 1 goes on to its solution."""
    monkeypatch.setattr(linalg, "RIDGE_SCALE", 0.0)
    blocks = local_solver.Blocks([0, 1, 2], [0, 0, 0], [0, 1])
    residual = _Affine(np.diag([0.0, 1.0]), np.array([0.0, 2.0]))
    with pytest.warns(UserWarning, match="KKT factorization failed"):
        sols = local_solver.solve_batch(residual, _no_constraints(2), np.zeros(2), blocks, lin=np.array([1.0, 0.0]))
    assert isinstance(sols[0], SingularKkt)
    assert sols[1].converged and sols[1].y == pytest.approx([2.0])


def test_a_batch_that_needs_the_ridge_recovers_block_by_block(monkeypatch):
    """Block 0's residual y0 + y1 - 2 leaves its reduced system singular,
    block 1's y2 - 3 does not.  The batch is solved again block by block:
    only block 0 takes the ridge, and block 1 is its solve alone.  Each
    block solve gets CSR Jacobians cut from the union's, with the same
    pattern at every step that falls back (two steps at tol 0)."""
    blocks = local_solver.Blocks([0, 2, 3], [0, 0, 0], [0, 1])
    residual = _Affine(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([2.0, 3.0]))
    solve, calls = linalg.solve_reduced_kkt, []
    monkeypatch.setattr(linalg, "solve_reduced_kkt", lambda *args: calls.append(args[:2]) or solve(*args))

    def block_patterns():
        """Per block, the pattern of each block solve since the last call."""
        patterns = {0: [], 1: []}
        for big_b, big_c in calls:
            assert scipy.sparse.issparse(big_b) and scipy.sparse.issparse(big_c)
            if big_b.shape[1] < 3:
                i = 0 if big_b.shape[1] == 2 else 1
                s = blocks.states(i)
                assert np.array_equal(big_b.toarray(), residual.a[blocks.residual_rows[i], s])
                assert big_c.shape == (0, s.stop - s.start)
                patterns[i].append((big_b.indptr.tobytes(), big_b.indices.tobytes(), big_c.indptr.tobytes()))
        calls.clear()
        return patterns

    with pytest.warns(UserWarning) as record:
        sols = local_solver.solve_batch(residual, _no_constraints(3), np.zeros(3), blocks)
    messages = [str(r.message) for r in record]
    assert len(messages) == 1 and messages[0].startswith("KKT factorization failed")
    assert sols[0].converged and sols[0].y.sum() == pytest.approx(2.0)
    patterns = block_patterns()
    assert len(patterns[0]) == len(patterns[1]) == 1
    with pytest.warns(UserWarning, match="KKT factorization failed"):
        local_solver.solve_batch(residual, _no_constraints(3), np.zeros(3), blocks, tol=0.0)
    patterns = block_patterns()[0]
    assert len(patterns) >= 2 and len(set(patterns)) == 1
    alone = local_solver.solve_local(_Affine(np.array([[1.0]]), np.array([3.0])), _no_constraints(1), y0=np.zeros(1))
    assert np.array_equal(sols[1].y, alone.y)


def test_a_single_block_that_needs_the_ridge_takes_the_union_step(monkeypatch):
    """The residual y0 + y1 - 2 leaves the reduced system singular, and
    the ridge makes it definite.  solve_local solves its one block again
    after the union's ridge, warns once and takes the same step: from
    y = 0 that step is the iterate, bit for bit."""
    residual = _Affine(np.array([[1.0, 1.0]]), np.array([2.0]))
    b, c = residual.jacobian(None), _no_constraints(2).jacobian(None)
    grad = 2.0 * linalg.matvec(b, residual.eval(np.zeros(2)), trans=True) + np.zeros(2)
    with pytest.warns(UserWarning, match="KKT factorization failed"):
        want = linalg.solve_reduced_kkt(b, c, np.zeros(0, dtype=int), np.zeros(2), grad, np.zeros(0))
    assert want.regularized
    solve, calls = linalg.solve_reduced_kkt, []
    monkeypatch.setattr(linalg, "solve_reduced_kkt", lambda *args: calls.append(args) or solve(*args))
    with pytest.warns(UserWarning) as record:
        sol = local_solver.solve_local(residual, _no_constraints(2), y0=np.zeros(2), max_inner=1)
    assert [str(r.message).startswith("KKT factorization failed") for r in record] == [True]
    assert len(calls) == 2
    assert np.array_equal(sol.y, want.step)


def test_stall_at_rounding_floor_counts_as_convergence():
    """A tolerance below the float64 floor of the stationarity sum is
    reached by step-size stall detection instead of looping to max_inner."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 12)) * 1e3
    b = rng.standard_normal(40) * 1e3
    sol = local_solver.solve_local(
        _Affine(a, b), _no_constraints(12), y0=np.zeros(12), tol=1e-300
    )
    assert sol.converged
    assert sol.inner_iterations < 50
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(sol.y, expected, atol=1e-9)


# The reduced (theta, v) step against the bordered solve of the full system.

def _bordered(big_b, big_c, shift, grad, h):
    hess = 2.0 * linalg.gram(big_b) + scipy.sparse.diags_array(shift)
    return linalg.solve_kkt(linalg.KktSystem(hessian=hess, constraint_jacobian=big_c, gradient=grad, residual=h))


def _assert_steps_agree(residual, model, y, shift):
    rng = np.random.default_rng(len(y))
    big_b, big_c = residual.jacobian(y), model.jacobian(y)
    h = model.eval(y)
    grad = 2.0 * linalg.matvec(big_b, residual.eval(y), trans=True) + rng.standard_normal(len(y))
    got = linalg.solve_reduced_kkt(big_b, big_c, model.identity_columns, shift, grad, h)
    want = _bordered(big_b, big_c, shift, grad, h)
    assert not got.regularized and not want.regularized
    assert np.abs(got.step - want.step).max() <= 1e-10 * np.abs(want.step).max()
    assert np.abs(got.multipliers - want.multipliers).max() <= 1e-10 * np.abs(want.multipliers).max()


def _region_partitions(case30, part30, mset30, truth30, two_tile30):
    random_part = partition.partition_grid(case30, random_connected_assignment(case30, 5, 11))
    random_set = measurements.simulate_measurements(
        case30, truth30, rng=DEFAULT_SEED, measured_lines=partition.internal_line_keys(random_part)
    )
    return [(part30, mset30), two_tile30, (random_part, random_set)]


@pytest.mark.parametrize("prox", ["all", "coupled"])
def test_reduced_region_step_matches_the_bordered_solve(case30, part30, mset30, truth30, two_tile30, prox):
    """Every region of paper30, two_tile30 and a random partition, at a flat
    start and after two Gauss-Newton steps, with the prox of the consensus
    loop (all coordinates) or of the alternating baseline (coupled copies)."""
    rho = 1e4
    for part, mset in _region_partitions(case30, part30, mset30, truth30, two_tile30):
        for region, rset, a in zip(part.regions, measurements.split_by_region(mset, part), part.coupling):
            residual = measurements.RegionResidual(region.case, rset)
            model = grid.PowerFlowModel(region.case)
            flat = grid.flat_state(region.case.n_bus)
            idx = None if prox == "all" else a.tocoo().col
            shift = np.zeros(len(flat))
            shift[slice(None) if idx is None else idx] = rho
            target = flat if idx is None else flat[idx]
            mid = local_solver.solve_local(
                residual, model, y0=flat, rho=rho, prox_target=target, prox_idx=idx, max_inner=2
            ).y
            for y in (flat, mid):
                _assert_steps_agree(residual, model, y, shift)


def test_reduced_central_step_matches_the_bordered_solve(case30, mset30, truth30, two_tile30):
    """The whole grid, with the central solve's Levenberg ridge as the only shift."""
    tile_part, tile_set = two_tile30
    for case, mset in ((case30, mset30), (tile_part.case, tile_set)):
        residual = measurements.RegionResidual(case, mset)
        model = grid.PowerFlowModel(case)
        flat = grid.flat_state(case.n_bus)
        mid = local_solver.solve_local(residual, model, y0=flat, mu=central.MU, max_inner=2).y
        for y in (flat, mid):
            _assert_steps_agree(residual, model, y, np.full(len(y), central.MU))


@pytest.mark.parametrize("sparse", [False, True])
def test_a_reduced_hessian_left_singular_after_the_ridge_raises_singular_kkt(case30, truth30, monkeypatch, sparse):
    """Zero weights with rho = mu = 0 leave Z^T H Z = 0.  The ridge makes it
    definite; a ridge of zero leaves it singular, which must be loud.
    solve_reduced_kkt gets the CSR Jacobians, or their dense copies."""
    mset = measurements.simulate_measurements(
        case30, truth30, noise=None, node_weights=np.zeros(4), line_weights=np.zeros(3)
    )
    residual, model = measurements.RegionResidual(case30, mset), grid.PowerFlowModel(case30)
    y = truth30.copy()
    y[grid.P::4] += 0.01  # off the physics, so the step has work to do
    big_b, big_c = residual.jacobian(y), model.jacobian(y)
    if not sparse:
        big_b, big_c = big_b.toarray(), big_c.toarray()
    zero = np.zeros(len(y))
    with pytest.warns(UserWarning, match="KKT factorization failed"):
        sol = linalg.solve_reduced_kkt(big_b, big_c, model.identity_columns, zero, zero, model.eval(y))
    assert sol.regularized
    assert np.abs(linalg.matvec(big_c, sol.step) + model.eval(y)).max() <= 1e-12
    monkeypatch.setattr(linalg, "RIDGE_SCALE", 0.0)
    with pytest.warns(UserWarning, match="KKT factorization failed"):
        with pytest.raises(SingularKkt):
            linalg.solve_reduced_kkt(big_b, big_c, model.identity_columns, zero, zero, model.eval(y))
    with pytest.warns(UserWarning, match="KKT factorization failed"):
        with pytest.raises(SingularKkt):
            local_solver.solve_local(residual, model, y0=y)


@pytest.mark.parametrize("form", ["region", "central"])
def test_refit_multipliers_are_the_least_squares_multipliers(part30, mset30, case30, central30, form):
    """The refit at a converged iterate: a paper30 region with its
    consensus prox, and the central solve."""
    if form == "region":
        region, rset = part30.regions[0], measurements.split_by_region(mset30, part30)[0]
        residual = measurements.RegionResidual(region.case, rset)
        model = grid.PowerFlowModel(region.case)
        flat = grid.flat_state(region.case.n_bus)
        rho = 1e4
        y = local_solver.solve_local(residual, model, y0=flat, rho=rho, prox_target=flat).y
        grad = 2.0 * residual.jacobian(y).T @ residual.eval(y) + rho * (y - flat)
        big_c = model.jacobian(y)
    else:
        residual = measurements.RegionResidual(case30, mset30)
        model = grid.PowerFlowModel(case30)
        y = central30.x
        grad = 2.0 * linalg.matvec(residual.jacobian(y), residual.eval(y), trans=True)
        big_c = model.jacobian(y)
        assert scipy.sparse.issparse(big_c)
    kappa, kkt_res = local_solver._refit_multipliers(grad, big_c, model.eval(y), None, np.inf)
    want = np.linalg.lstsq(big_c.toarray().T, -grad, rcond=None)[0]
    assert np.abs(kappa - want).max() <= 1e-10 * np.abs(want).max()
    # The refit leaves stationarity at the rounding of the gradient.
    assert kkt_res <= 1e-11 * np.abs(grad).max()


@pytest.mark.parametrize("sparse", [False, True])
def test_refit_multipliers_without_constraints_keep_the_gradient(sparse):
    """No constraint rows: the refit has no multipliers, and the KKT
    residual it reports is the gradient's."""
    grad = np.array([0.5, -2.0, 1.0])
    big_c = scipy.sparse.csr_array((0, 3)) if sparse else np.zeros((0, 3))
    kappa, kkt_res = local_solver._refit_multipliers(grad, big_c, np.zeros(0), None, np.inf)
    assert kappa.shape == (0,)
    assert kkt_res == 2.0
    # The given multipliers stay when the refit does no better.
    given = np.zeros(0)
    assert local_solver._refit_multipliers(grad, big_c, np.zeros(0), given, 2.0)[0] is given
