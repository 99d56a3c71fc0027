"""Unconstrained predictor, divergence report, LICQ, redundancy identity."""

import warnings

import numpy as np
import pytest

from rigid_refine import (
    CorrespondenceSet,
    NearSingularG,
    PointCloud,
    RigidTransform,
    Rotation,
    Xoshiro256PlusPlus,
    ball_cloud,
    center,
    determinant_redundancy_residual,
    divergence_report,
    estimate_pose_kabsch,
    licq_check,
    normalized_det,
    refine,
    singularity_margin,
    unconstrained_solution,
)
from rigid_refine.diagnostics import _unconstrained
from rigid_refine.refiner import CandidateMatrix

from conftest import random_problem, random_rotation


def test_unconstrained_solution_hand_case():
    # Identity problem on {e_x, e_y, e_z, -(1,1,1)}: G = F = I + ones, so
    # R_u = I exactly.
    pts = np.array(
        [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, -1.0, -1.0]]
    )
    cc = center(CorrespondenceSet.from_arrays(pts, pts))
    sol = unconstrained_solution(cc)
    expected_g = np.eye(3) + np.ones((3, 3))
    assert np.allclose(sol.g, expected_g)
    assert np.allclose(sol.f, expected_g)
    assert np.allclose(sol.r_u, np.eye(3))
    assert sol.det_g == pytest.approx(np.linalg.det(expected_g))


def test_unconstrained_solution_recovers_rotation_on_exact_data():
    for seed in range(10):
        corr, gt = random_problem(seed=seed + 10, n=20, weighted=True)
        sol = unconstrained_solution(center(corr))
        # normal equations hold and the solved matrix sits in the same frame
        # as the SVD rotation
        assert np.linalg.norm(sol.g @ sol.r_u - sol.f) <= 1e-8 * np.linalg.norm(sol.f)
        assert np.linalg.norm(sol.r_u - gt.rotation.m) <= 1e-8


def test_unconstrained_solution_target_scaling():
    corr, _ = random_problem(seed=30, n=15, noise=0.05)
    cc = center(corr)
    sol = unconstrained_solution(cc)
    a = 4.0
    scaled = center(
        CorrespondenceSet.from_arrays(
            cc.source_centered.points, a * cc.target_centered.points, cc.weights
        )
    )
    sol_scaled = unconstrained_solution(scaled)
    assert np.allclose(sol_scaled.g, a**2 * sol.g)
    assert np.allclose(sol_scaled.f, a * sol.f)
    assert np.allclose(sol_scaled.r_u, sol.r_u / a)


def test_unconstrained_solution_planar_target_raises():
    rng = Xoshiro256PlusPlus(31)
    src = np.array([rng.uniform(-1, 1) for _ in range(36)]).reshape(12, 3)
    tgt = src.copy()
    tgt[:, 2] = 0.0  # squash target onto z = 0: G rank 2
    with pytest.raises(NearSingularG) as info:
        unconstrained_solution(center(CorrespondenceSet.from_arrays(src, tgt)))
    exc = info.value
    assert exc.g.shape == (3, 3)
    assert exc.f.shape == (3, 3)
    assert abs(exc.det_g) <= 1e-12


def test_unconstrained_past_the_float_range_is_unsolved_and_silent():
    # Centered targets of scale 1e200, as a translation near 1e300 can leave
    # after centering, overflow G = sum w t t^T: that lane is not solved,
    # nothing warns, and the ordinary lane beside it keeps its bytes.
    pts = ball_cloud(16, Xoshiro256PlusPlus(3)).points
    pts = pts - pts.mean(axis=0)
    clouds = np.stack([pts * 1e200, pts])
    w = np.ones((2, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = _unconstrained(clouds, clouds, w)
    assert sol.solved.tolist() == [False, True]
    alone = _unconstrained(pts[None], pts[None], w[:1])
    assert sol.r_u[1].tobytes() == alone.r_u[0].tobytes()


def test_normalized_det_hand_value():
    g = 2.0 * np.eye(3)
    # det = 8, ||G||_F = 2 sqrt(3) -> 8 / (2 sqrt 3)^3 = 1/(3 sqrt 3)
    assert normalized_det(g) == pytest.approx(1.0 / (3.0 * np.sqrt(3.0)))
    assert normalized_det(np.zeros((3, 3))) == 0.0


def test_divergence_report_exact_data():
    corr, _ = random_problem(seed=32, n=18, weighted=True)
    kabsch_pose = estimate_pose_kabsch(corr)
    trace = refine(corr, kabsch_pose, 5)
    report = divergence_report(trace)
    assert report.divergence <= 1e-7
    assert len(report.per_iteration_chordal) == 5
    assert report.max_col_distance <= 1e-8
    assert report.max_col_angle_deg <= 1e-8
    assert report.det_g_normalized > 1e-10


def test_divergence_report_sums_per_iteration():
    # The report measures against trace.poses[0], whatever refine started from.
    corr, _ = random_problem(seed=33, n=14, noise=0.1, weighted=True)
    for init in (estimate_pose_kabsch(corr), RigidTransform.identity()):
        trace = refine(corr, init, 4)
        report = divergence_report(trace)
        assert report.divergence == pytest.approx(
            sum(report.per_iteration_chordal), abs=1e-12
        )
        r_k = init.rotation.m
        manual = [float(np.linalg.norm(p.rotation.m - r_k)) for p in trace.poses[1:]]
        assert np.allclose(report.per_iteration_chordal, manual)


def test_divergence_report_zero_iff_poses_equal_kabsch():
    corr, _ = random_problem(seed=34, n=10, weighted=True)
    kabsch_pose = estimate_pose_kabsch(corr)
    trace = refine(corr, kabsch_pose, 3)
    report = divergence_report(trace)
    all_equal = all(
        np.linalg.norm(p.rotation.m - kabsch_pose.rotation.m) <= 1e-9
        for p in trace.poses[1:]
    )
    assert (report.divergence <= 3e-9) == all_equal
    assert all_equal


def test_divergence_report_near_singular_predictors_none():
    rng = Xoshiro256PlusPlus(35)
    src = np.array([rng.uniform(-1, 1) for _ in range(60)]).reshape(20, 3)
    tgt = src.copy()
    tgt[:, 2] *= 1e-14  # target nearly planar: G effectively rank 2
    corr = CorrespondenceSet.from_arrays(src, tgt)
    kabsch_pose = estimate_pose_kabsch(corr)
    trace = refine(corr, kabsch_pose, 2)
    report = divergence_report(trace)
    assert report.max_col_distance is None
    assert report.max_col_angle_deg is None
    assert report.det_g_normalized <= 1e-10
    assert report.divergence >= 0.0


def test_licq_full_rank_on_rotations():
    assert licq_check(Rotation.identity()) == 6
    rng = Xoshiro256PlusPlus(36)
    for _ in range(100):
        assert licq_check(random_rotation(rng)) == 6


def test_licq_detects_degenerate_matrix():
    rank2 = np.diag([1.0, 1.0, 0.0])
    assert licq_check(rank2) < 6
    assert licq_check(np.zeros((3, 3))) == 0


def test_determinant_redundancy_identity():
    rng = Xoshiro256PlusPlus(37)
    assert determinant_redundancy_residual(np.eye(3), Rotation.identity()) <= 1e-15
    for _ in range(1000):
        r = np.array([rng.uniform(-2, 2) for _ in range(9)]).reshape(3, 3)
        r_prev = random_rotation(rng)
        assert determinant_redundancy_residual(r, r_prev) <= 1e-12


def test_singularity_margin_hand_cases():
    norm, angle = singularity_margin(CandidateMatrix(np.eye(3)))
    assert norm == pytest.approx(1.0)
    assert angle == pytest.approx(np.pi / 2)

    near = np.array([[1.0, 1.0, 0.0], [0.0, 1e-8, 0.0], [0.0, 0.0, 1.0]])
    _, angle2 = singularity_margin(CandidateMatrix(near))
    assert angle2 == pytest.approx(1e-8, rel=1e-3)
    assert angle2 < 1e-7  # below the assembler's collinearity gate


def test_singularity_margin_on_refiner_outputs():
    for seed in range(50):
        corr, _ = random_problem(seed=seed + 900, n=8, noise=0.15, weighted=True)
        init = estimate_pose_kabsch(corr)
        trace = refine(corr, init, 3)
        for cand in trace.candidates:
            norm, angle = singularity_margin(cand)
            assert norm >= 1.0 - 1e-9
            assert angle >= 1e-7


def test_ill_conditioned_median_divergence_exceeds_well_conditioned():
    # Rank statistic: trials whose normalized det G is tiny (near-planar
    # targets) show a larger median divergence than well-conditioned trials.
    # Resampled correspondences keep the point sets disjoint so the refined
    # iterates actually move; a narrow slab footprint makes G nearly rank-2.
    from rigid_refine import ProblemSpec, ball_cloud, make_problem

    def lath_cloud(n, rng):
        pts = np.empty((n, 3))
        for i in range(n):
            pts[i, 0] = rng.uniform(-1.0, 1.0)
            pts[i, 1] = rng.uniform(-5e-4, 5e-4)
            pts[i, 2] = rng.uniform(-5e-4, 5e-4)
        return PointCloud(pts)

    def divergences(cloud_fn, n_seeds, offset):
        out = []
        for seed in range(n_seeds):
            rng = Xoshiro256PlusPlus(seed + offset)
            base = cloud_fn(64, rng)
            spec = ProblemSpec(n_points=32, independent_resample=True, seed=seed + offset)
            problem = make_problem(spec, base, rng)
            kabsch_pose = estimate_pose_kabsch(problem.correspondences)
            trace = refine(problem.correspondences, kabsch_pose, 5)
            report = divergence_report(trace)
            out.append((report.det_g_normalized, report.divergence))
        return out

    trials = divergences(ball_cloud, 30, 5000) + divergences(lath_cloud, 30, 6000)
    ill = [d for det, d in trials if det < 1e-4]
    well = [d for det, d in trials if det >= 1e-2]
    assert len(ill) >= 20 and len(well) >= 20
    assert np.median(ill) > np.median(well)
