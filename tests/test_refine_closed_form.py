"""The closed-form refinement step that `refine` runs, against the 15x15 KKT
solve of the paper (`assemble_kkt` + `solve_kkt`) and a 40-digit mpmath solve
of the same system."""

import mpmath
import numpy as np
import pytest

from conftest import random_problem, random_rotation

from rigid_refine import (
    CandidateMatrix,
    CorrespondenceSet,
    RigidTransform,
    Rotation,
    Xoshiro256PlusPlus,
    assemble_kkt,
    assemble_rotation,
    center,
    estimate_pose_kabsch,
    kkt_residual,
    refine,
    solve_kkt,
)
from rigid_refine import refiner

CANDIDATE_ATOL = 1e-13
MULTIPLIER_RTOL = 1e-9

# Problem seed of gate 08 (loop index 25, N = 4): cond(S) = 2.7e6 while the
# 15x15 KKT matrix has cond 7.4. A closed form through S^-1 misses the
# candidate by ~1e-10 here; the tangent-space form must not.
ILL_CONDITIONED_SEED = 14_254


def step_factors(cc):
    # The step kernels take a leading trial axis; one problem is a stack of one.
    return refiner._step_factors(
        cc.source_centered.points[None], cc.target_centered.points[None], cc.weights[None]
    )


def closed_form_step(cc, r_prev):
    candidate, lambdas, ok = refiner._tangent_step(r_prev.m[None], step_factors(cc))
    assert ok[0]
    return candidate[0], lambdas[0]


def assert_step_matches(candidate, lambdas, ref_candidate, ref_lambdas):
    assert np.abs(candidate - ref_candidate).max() <= CANDIDATE_ATOL
    scale = np.abs(ref_lambdas).max()
    assert np.abs(lambdas - ref_lambdas).max() <= MULTIPLIER_RTOL * scale


@pytest.mark.parametrize("n", [4, 32, 1024])
def test_closed_form_step_matches_solve_kkt(n):
    # 200 problems per N and weighting; the linearization point alternates
    # between the Kabsch rotation (what refine sees) and a random rotation.
    rng = Xoshiro256PlusPlus(90_000 + n)
    for weighted in (False, True):
        for seed in range(200):
            corr, _ = random_problem(seed=91_000 + 7 * n + seed, n=n, noise=0.05, weighted=weighted)
            cc = center(corr)
            if seed % 2:
                r_prev = random_rotation(rng)
            else:
                r_prev = estimate_pose_kabsch(corr).rotation
            ref_candidate, ref_lambdas = solve_kkt(assemble_kkt(cc, r_prev))
            candidate, lambdas = closed_form_step(cc, r_prev)
            assert_step_matches(candidate, lambdas, ref_candidate.m, ref_lambdas)


def mpmath_kkt_solution(system):
    with mpmath.workdps(40):
        z = mpmath.lu_solve(
            mpmath.matrix(system.matrix().tolist()), mpmath.matrix(system.rhs().tolist())
        )
        z = np.array([float(x) for x in z])
    return z[:9].reshape(3, 3, order="F"), z[9:]


def test_closed_form_step_matches_mpmath_on_gate_08_problems():
    worst = 0.0
    for seed in range(50):
        for n in (4, 16, 64):
            corr, _ = random_problem(seed=14_000 + 10 * seed + n, n=n, noise=0.02, weighted=True)
            cc = center(corr)
            r_prev = estimate_pose_kabsch(corr).rotation
            ref_candidate, ref_lambdas = mpmath_kkt_solution(assemble_kkt(cc, r_prev))
            candidate, lambdas = closed_form_step(cc, r_prev)
            assert_step_matches(candidate, lambdas, ref_candidate, ref_lambdas)
            worst = max(worst, np.abs(candidate - ref_candidate).max())
    assert worst <= CANDIDATE_ATOL


def test_closed_form_step_accurate_on_ill_conditioned_source():
    corr, _ = random_problem(seed=ILL_CONDITIONED_SEED, n=4, noise=0.02, weighted=True)
    cc = center(corr)
    r_prev = estimate_pose_kabsch(corr).rotation
    system = assemble_kkt(cc, r_prev)
    assert np.linalg.cond(system.a) > 1e6  # A = kron(S, I3): cond(A) = cond(S)
    assert np.linalg.cond(system.matrix()) < 10.0
    ref_candidate, ref_lambdas = mpmath_kkt_solution(system)
    candidate, lambdas = closed_form_step(cc, r_prev)
    assert_step_matches(candidate, lambdas, ref_candidate, ref_lambdas)


def test_refine_trace_matches_the_kkt_oracle():
    for seed in range(20):
        corr, _ = random_problem(seed=92_000 + seed, n=32, noise=0.1, weighted=seed % 2 == 1)
        trace = refine(corr, estimate_pose_kabsch(corr), 5)
        assert trace.fallback_count == 0
        for k in range(5):
            system = assemble_kkt(trace.centered, trace.poses[k].rotation)
            ref_candidate, ref_lambdas = solve_kkt(system)
            assert_step_matches(
                trace.candidates[k].m, trace.lambdas[k], ref_candidate.m, ref_lambdas
            )
            assert kkt_residual(system, trace.candidates[k], trace.lambdas[k]) <= 1e-14


def collinear_problem(direction, n=9):
    rng = Xoshiro256PlusPlus(94_000)
    src = np.outer(np.linspace(-1.0, 1.0, n), direction)
    tgt = src + 0.01 * rng.normals(3 * n).reshape(n, 3)
    weights = rng.uniforms(n, 0.5, 2.0)
    return CorrespondenceSet.from_arrays(src, tgt, weights)


@pytest.mark.parametrize(
    "direction", [(1.0, 0.0, 0.0), (0.48, -0.6, 0.64)], ids=["axis", "oblique"]
)
def test_refine_falls_back_at_every_step_on_rank_one_source(direction):
    corr = collinear_problem(np.array(direction))
    factors = step_factors(center(corr))
    assert factors.finite[0] and not factors.solvable[0]
    init = RigidTransform.identity()
    trace = refine(corr, init, 5)
    assert trace.fallback_count == 5
    assert all(pose is init for pose in trace.poses)
    assert all(np.all(np.isnan(lam)) for lam in trace.lambdas)


@pytest.mark.parametrize("spread, singular", [(1e11, False), (1e13, True)])
def test_singular_system_threshold_is_the_eigenvalue_spread(spread, singular):
    # +-pairs on the axes give S = diag(2, 2 h^2, 2 h^2), so
    # d_2 / (d_0 + d_1) = 1 / (2 h^2) = spread.
    h = np.sqrt(0.5 / spread)
    src = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, h, 0], [0, -h, 0], [0, 0, h], [0, 0, -h]])
    factors = step_factors(center(CorrespondenceSet.from_arrays(src, src)))
    assert factors.solvable[0] != singular
    if not singular:
        d = np.diag(factors.diag_d[0])
        assert d[2] / (d[0] + d[1]) == pytest.approx(spread, rel=1e-6)


def numpy_assemble_rotation(c):
    # The assembler as written with np.linalg.norm and np.cross.
    r1 = c[:, 0] / np.linalg.norm(c[:, 0])
    u = c[:, 1] - r1 * (r1 @ c[:, 1])
    r2 = u / np.linalg.norm(u)
    return np.column_stack([r1, r2, np.cross(r1, r2)])


def test_assemble_rotation_bit_identical_to_numpy_norm_and_cross():
    rng = Xoshiro256PlusPlus(95_000)
    for _ in range(2000):
        r = random_rotation(rng)
        c = r.m + rng.uniforms(1, 0.0, 0.5)[0] * rng.normals(9).reshape(3, 3)
        assert np.array_equal(assemble_rotation(CandidateMatrix(c)).m, numpy_assemble_rotation(c))
    for seed in range(20):
        corr, _ = random_problem(seed=95_100 + seed, n=32, noise=0.1, weighted=True)
        for candidate in refine(corr, estimate_pose_kabsch(corr), 5).candidates:
            expected = numpy_assemble_rotation(candidate.m)
            assert np.array_equal(assemble_rotation(candidate).m, expected)
            assert isinstance(assemble_rotation(candidate), Rotation)
