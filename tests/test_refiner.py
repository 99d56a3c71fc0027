"""KKT assembly/solve, rotation assembler, refinement loop."""

import dataclasses

import numpy as np
import pytest

from rigid_refine import (
    CandidateMatrix,
    CollinearColumns,
    CorrespondenceSet,
    KktSystem,
    PointCloud,
    RigidTransform,
    Rotation,
    SingularSystem,
    Xoshiro256PlusPlus,
    assemble_kkt,
    assemble_rotation,
    center,
    constraint_jacobian,
    estimate_pose_kabsch,
    kkt_residual,
    linearized_constraint,
    optimal_translation,
    orthogonality_constraint,
    refine,
    solve_kkt,
)
from rigid_refine import refiner
from rigid_refine.refiner import CONSTRAINT_BASES, CONSTRAINT_PAIRS

from conftest import random_problem, random_rotation


def test_constraint_pair_order_and_bases():
    # Upper-triangle column-wise order: (0,0),(0,1),(1,1),(0,2),(1,2),(2,2).
    assert CONSTRAINT_PAIRS == ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))
    for k, (i, j) in enumerate(CONSTRAINT_PAIRS):
        e = np.zeros((3, 3))
        e[i, j] += 1.0
        e[j, i] += 1.0
        assert np.array_equal(CONSTRAINT_BASES[k], e)
        assert np.trace(CONSTRAINT_BASES[k]) == (2.0 if i == j else 0.0)


def test_orthogonality_constraint_values():
    ident = np.eye(3)
    for k in range(6):
        assert orthogonality_constraint(ident, k) == pytest.approx(0.0)
    two = 2.0 * np.eye(3)
    # diagonal pairs: col norm^2 - 1 = 3; off-diagonal: 0
    for k, (i, j) in enumerate(CONSTRAINT_PAIRS):
        expected = 3.0 if i == j else 0.0
        assert orthogonality_constraint(two, k) == pytest.approx(expected)


def test_linearized_constraint_hand_values():
    ident = Rotation.identity()
    for k in range(6):
        assert linearized_constraint(np.eye(3), ident, k) == pytest.approx(0.0)
    # r = 2I at linearization point I, first diagonal constraint:
    # tr(E00 @ (2I - I)) = tr(diag(2,0,0)) = 2
    assert linearized_constraint(2.0 * np.eye(3), ident, 0) == pytest.approx(2.0)


def test_linearized_constraint_is_affine():
    rng = Xoshiro256PlusPlus(21)
    r_prev = random_rotation(rng)
    for _ in range(5):
        r1 = np.array([rng.uniform(-1, 1) for _ in range(9)]).reshape(3, 3)
        r2 = np.array([rng.uniform(-1, 1) for _ in range(9)]).reshape(3, 3)
        alpha = rng.random()
        for k in range(6):
            mix = linearized_constraint(alpha * r1 + (1 - alpha) * r2, r_prev, k)
            parts = alpha * linearized_constraint(r1, r_prev, k) + (
                1 - alpha
            ) * linearized_constraint(r2, r_prev, k)
            assert mix == pytest.approx(parts, abs=1e-12)


def test_kkt_b_columns_at_identity():
    corr, _ = random_problem(seed=22, n=10)
    system = assemble_kkt(center(corr), Rotation.identity())
    # At identity the constraint columns are the vectorized symmetric bases;
    # for the first diagonal constraint that is 2 at flat position 0.
    expected0 = np.zeros(9)
    expected0[0] = 2.0
    assert np.allclose(system.b[:, 0], expected0)
    for k in range(6):
        assert np.allclose(
            system.b[:, k], CONSTRAINT_BASES[k].flatten(order="F")
        )


def test_kkt_d_lambda_at_valid_rotation():
    corr, _ = random_problem(seed=23, n=10)
    r_prev = random_rotation(Xoshiro256PlusPlus(24))
    system = assemble_kkt(center(corr), r_prev)
    expected = [2.0 if i == j else 0.0 for (i, j) in CONSTRAINT_PAIRS]
    assert np.allclose(system.d_lambda, expected, atol=1e-12)


def test_kkt_a_is_block_identity_action():
    # A must act as vec(R) -> vec(R S) in column-major convention.
    corr, _ = random_problem(seed=25, n=8, weighted=True)
    cc = center(corr)
    system = assemble_kkt(cc, random_rotation(Xoshiro256PlusPlus(26)))
    s_mat = (cc.source_centered.points * cc.weights[:, None]).T @ cc.source_centered.points
    rng = Xoshiro256PlusPlus(27)
    for _ in range(5):
        m = np.array([rng.uniform(-1, 1) for _ in range(9)]).reshape(3, 3)
        assert np.allclose(system.a @ m.flatten(order="F"), (m @ s_mat).flatten(order="F"))


def test_kkt_a_rows_match_basis_contraction():
    # Row r of A (r <-> (m,n) column-major) must equal vec(E_mn S)^T where
    # E_mn is the single-entry matrix.
    corr, _ = random_problem(seed=28, n=7, weighted=True)
    cc = center(corr)
    system = assemble_kkt(cc, Rotation.identity())
    s_mat = (cc.source_centered.points * cc.weights[:, None]).T @ cc.source_centered.points
    for n in range(3):
        for m in range(3):
            r = 3 * n + m
            e_mn = np.zeros((3, 3))
            e_mn[m, n] = 1.0
            assert np.allclose(system.a[r], (e_mn @ s_mat).flatten(order="F"))


def test_kkt_single_point_source_sparsity():
    # One correspondence with source e_x: only rows for output column x are
    # nonzero (S = e_x e_x^T touches nothing else).
    src = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    tgt = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    system = assemble_kkt(
        center(CorrespondenceSet.from_arrays(src, tgt)), Rotation.identity()
    )
    nonzero_rows = np.flatnonzero(np.any(system.a != 0.0, axis=1))
    assert nonzero_rows.tolist() == [0, 1, 2]


def test_kkt_gradient_matches_fd_lagrangian():
    # The assembled blocks must be the gradient of
    # L(R, lam) = 0.5 * sum_i w_i ||R s_i - t_i||^2 + sum_k lam_k * c_k_lin(R)
    # wrt (vec R, lam), evaluated at random (R, lam).
    rng = Xoshiro256PlusPlus(29)
    for trial in range(50):
        corr, _ = random_problem(seed=500 + trial, n=6, noise=0.05, weighted=True)
        cc = center(corr)
        r_prev = random_rotation(rng)
        system = assemble_kkt(cc, r_prev)
        s = cc.source_centered.points
        t = cc.target_centered.points
        w = cc.weights

        def lagrangian(vec_r, lam):
            r = vec_r.reshape(3, 3, order="F")
            resid = s @ r.T - t
            cost = 0.5 * float(np.sum(w * np.sum(resid**2, axis=1)))
            lin = sum(
                lam[k] * linearized_constraint(r, r_prev, k) for k in range(6)
            )
            return cost + lin

        vec_r = np.array([rng.uniform(-1, 1) for _ in range(9)])
        lam = np.array([rng.uniform(-1, 1) for _ in range(6)])
        h = 1e-6
        grad_r = np.zeros(9)
        for idx in range(9):
            dp = vec_r.copy()
            dm = vec_r.copy()
            dp[idx] += h
            dm[idx] -= h
            grad_r[idx] = (lagrangian(dp, lam) - lagrangian(dm, lam)) / (2 * h)
        grad_lam = np.zeros(6)
        for idx in range(6):
            dp = lam.copy()
            dm = lam.copy()
            dp[idx] += h
            dm[idx] -= h
            grad_lam[idx] = (lagrangian(vec_r, dp) - lagrangian(vec_r, dm)) / (2 * h)

        analytic_r = system.a @ vec_r + system.b @ lam - system.d_r
        analytic_lam = system.b.T @ vec_r - system.d_lambda
        scale = max(1.0, np.abs(grad_r).max())
        assert np.abs(analytic_r - grad_r).max() <= 1e-6 * scale
        assert np.abs(analytic_lam - grad_lam).max() <= 1e-6 * max(1.0, np.abs(grad_lam).max())


def test_solve_kkt_fixed_point_on_exact_data():
    for seed in range(10):
        corr, gt = random_problem(seed=seed + 40, n=12, weighted=True)
        pose = estimate_pose_kabsch(corr)
        system = assemble_kkt(center(corr), pose.rotation)
        candidate, lam = solve_kkt(system)
        assert np.linalg.norm(candidate.m - pose.rotation.m) <= 1e-8
        assert np.linalg.norm(lam) <= 1e-8


def test_solve_kkt_satisfies_full_system():
    for seed in range(10):
        corr, _ = random_problem(seed=seed + 60, n=9, noise=0.05, weighted=True)
        r_prev = estimate_pose_kabsch(corr).rotation
        system = assemble_kkt(center(corr), r_prev)
        candidate, lam = solve_kkt(system)
        assert kkt_residual(system, candidate, lam) <= 1e-8


def test_solve_kkt_linearized_constraints_vanish():
    for seed in range(10):
        corr, _ = random_problem(seed=seed + 80, n=14, noise=0.1, weighted=True)
        r_prev = estimate_pose_kabsch(corr).rotation
        system = assemble_kkt(center(corr), r_prev)
        candidate, _ = solve_kkt(system)
        for k in range(6):
            assert abs(linearized_constraint(candidate.m, r_prev, k)) <= 1e-8


def test_solve_kkt_stationarity_in_matrix_form():
    # Independent of any vectorization convention: the solution must satisfy
    # R' S + R_prev * sum_k lam_k E_k = F and the traced constraint values.
    corr, _ = random_problem(seed=90, n=11, noise=0.05, weighted=True)
    cc = center(corr)
    r_prev = estimate_pose_kabsch(corr).rotation
    system = assemble_kkt(cc, r_prev)
    candidate, lam = solve_kkt(system)
    s = cc.source_centered.points
    t = cc.target_centered.points
    w = cc.weights
    s_mat = (s * w[:, None]).T @ s
    f_mat = (t * w[:, None]).T @ s
    multiplier_term = sum(lam[k] * CONSTRAINT_BASES[k] for k in range(6))
    resid = candidate.m @ s_mat + r_prev.m @ multiplier_term - f_mat
    assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(f_mat))


def test_solve_kkt_weight_homogeneity():
    corr, _ = random_problem(seed=91, n=10, noise=0.08, weighted=True)
    r_prev = estimate_pose_kabsch(corr).rotation
    base_candidate, base_lam = solve_kkt(assemble_kkt(center(corr), r_prev))
    scaled = CorrespondenceSet(corr.source, corr.target, 5.0 * corr.weights)
    cand5, lam5 = solve_kkt(assemble_kkt(center(scaled), r_prev))
    assert np.linalg.norm(cand5.m - base_candidate.m) <= 1e-9
    assert np.allclose(lam5, 5.0 * base_lam, rtol=1e-7, atol=1e-10)


def test_solve_kkt_column_norm_bound():
    for seed in range(20):
        corr, _ = random_problem(seed=seed + 700, n=8, noise=0.2, weighted=True)
        r_prev = estimate_pose_kabsch(corr).rotation
        candidate, _ = solve_kkt(assemble_kkt(center(corr), r_prev))
        assert np.linalg.norm(candidate.m, axis=0).min() >= 1.0 - 1e-9


def zero_rhs_system(seed):
    # A well-conditioned KKT matrix with a zero right-hand side: the solution
    # is the zero candidate, whose column norms break the lower bound.
    corr, _ = random_problem(seed=seed, n=8)
    system = assemble_kkt(center(corr), estimate_pose_kabsch(corr).rotation)
    return KktSystem(system.a, system.b, np.zeros(9), np.zeros(6))


def test_solve_kkt_column_norm_violation_raises_singular():
    with pytest.raises(SingularSystem, match="column norms"):
        solve_kkt(zero_rhs_system(710))


def nan_target_factors(factors):
    # The columns of R_prev (I + A) have norm >= 1 for any finite step
    # factors, so only a non-finite F V can break the bound: it makes the
    # candidate column norms NaN.
    return dataclasses.replace(factors, f_v=np.full_like(factors.f_v, np.nan))


def test_refine_falls_back_on_column_norm_violation(monkeypatch):
    corr, _ = random_problem(seed=711, n=8)
    init = estimate_pose_kabsch(corr)
    cc = center(corr)
    factors = nan_target_factors(
        refiner._step_factors(
            cc.source_centered.points[None], cc.target_centered.points[None], cc.weights[None]
        )
    )
    candidate, _, ok = refiner._tangent_step(init.rotation.m[None], factors)
    assert factors.solvable[0] and not ok[0]
    assert np.all(np.isnan(candidate))
    monkeypatch.setattr(refiner, "_step_factors", lambda source, target, w: factors)
    trace = refine(corr, init, 2)
    assert trace.fallback_count == 2
    assert all(pose is init for pose in trace.poses)
    for lam in trace.lambdas:
        assert np.all(np.isnan(lam))


def test_solve_kkt_singular_on_collinear_source():
    src = np.array([[float(i), 0.0, 0.0] for i in range(-2, 3)])
    tgt = np.array([[0.0, float(i), 0.0] for i in range(-2, 3)])
    system = assemble_kkt(
        center(CorrespondenceSet.from_arrays(src, tgt)), Rotation.identity()
    )
    with pytest.raises(SingularSystem):
        solve_kkt(system)


def test_constraint_jacobian_shape_and_columns():
    r = random_rotation(Xoshiro256PlusPlus(31))
    jac = constraint_jacobian(r.m)
    assert jac.shape == (9, 6)
    for k in range(6):
        assert np.allclose(
            jac[:, k], (r.m @ CONSTRAINT_BASES[k]).flatten(order="F")
        )


def test_assemble_rotation_hand_cases():
    ident = assemble_rotation(
        CandidateMatrix(np.array([[2.0, 1.0, 9.0], [0.0, 1.0, -3.0], [0.0, 0.0, 7.0]]))
    )
    assert np.allclose(ident.m, np.eye(3), atol=1e-15)

    swapped = assemble_rotation(
        CandidateMatrix(
            np.array([[0.0, -2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 42.0]])
        )
    )
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(swapped.m, expected, atol=1e-15)


def test_assemble_rotation_idempotent_on_rotations():
    rng = Xoshiro256PlusPlus(32)
    for _ in range(20):
        r = random_rotation(rng)
        out = assemble_rotation(CandidateMatrix(r.m.copy()))
        assert np.linalg.norm(out.m - r.m) <= 1e-12


def test_assemble_rotation_ignores_third_column():
    rng = Xoshiro256PlusPlus(33)
    r = random_rotation(rng)
    modified = r.m.copy()
    modified[:, 2] = [100.0, -50.0, 3.0]
    out = assemble_rotation(CandidateMatrix(modified))
    assert np.linalg.norm(out.m - r.m) <= 1e-12


def test_assemble_rotation_collinear_rejection():
    with pytest.raises(CollinearColumns):
        assemble_rotation(
            CandidateMatrix(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
        )
    with pytest.raises(CollinearColumns):
        assemble_rotation(
            CandidateMatrix(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        )


def test_refine_fixed_point_on_exact_data():
    for seed in range(10):
        corr, _ = random_problem(seed=seed + 300, n=16, weighted=True)
        init = estimate_pose_kabsch(corr)
        trace = refine(corr, init, 5)
        assert len(trace.poses) == 6
        for pose in trace.poses:
            assert np.linalg.norm(pose.rotation.m - init.rotation.m) <= 1e-8
            assert np.linalg.norm(pose.translation - init.translation) <= 1e-8
        assert trace.fallback_count == 0


def test_refine_trace_shapes_and_translation_consistency():
    corr, _ = random_problem(seed=400, n=20, noise=0.05, weighted=True)
    init = estimate_pose_kabsch(corr)
    trace = refine(corr, init, 4)
    assert trace.n_refinements == 4
    assert len(trace.poses) == 5
    assert len(trace.lambdas) == 4
    assert len(trace.candidates) == 4
    for pose in trace.poses[1:]:
        expected_t = optimal_translation(pose.rotation, corr)
        assert np.allclose(pose.translation, expected_t)


def test_refine_deterministic():
    corr, _ = random_problem(seed=401, n=12, noise=0.02)
    init = estimate_pose_kabsch(corr)
    t1 = refine(corr, init, 3)
    t2 = refine(corr, init, 3)
    for p1, p2 in zip(t1.poses, t2.poses):
        assert np.array_equal(p1.rotation.m, p2.rotation.m)
        assert np.array_equal(p1.translation, p2.translation)


def test_refine_fallback_on_singular_geometry():
    # Collinear source makes every KKT solve singular; the loop must repeat
    # the previous pose and record NaN multipliers rather than raise.
    src = np.array([[float(i), 0.0, 0.0] for i in range(-3, 4)])
    rng = Xoshiro256PlusPlus(34)
    tgt = src + 0.01 * rng.normals(21).reshape(7, 3)
    corr = CorrespondenceSet.from_arrays(src, tgt)
    init = RigidTransform.identity()
    trace = refine(corr, init, 3)
    assert trace.fallback_count == 3
    for pose in trace.poses:
        assert np.allclose(pose.rotation.m, np.eye(3))
    for lam in trace.lambdas:
        assert np.all(np.isnan(lam))
    assert all(c is None for c in trace.candidates)


def test_refine_rejects_bad_iteration_count():
    corr, _ = random_problem(seed=402, n=8)
    init = estimate_pose_kabsch(corr)
    with pytest.raises(ValueError):
        refine(corr, init, 0)
