"""Closed-form SVD rotation: cross covariance, reflection fix, degeneracy."""

import numpy as np
import pytest

from rigid_refine import (
    CorrespondenceSet,
    CrossCovariance,
    DegenerateGeometry,
    Xoshiro256PlusPlus,
    center,
    cross_covariance,
    estimate_pose_kabsch,
    kabsch_rotation,
    weighted_cost,
)
from rigid_refine.so3 import rotation_z

from conftest import random_problem, random_rotation


def centered_from(src, tgt, weights=None):
    return center(CorrespondenceSet.from_arrays(src, tgt, weights))


def iso_angle_deg(r_a, r_b):
    # Stable misalignment angle: ||dR - I||_F = 2*sqrt(2)*|sin(theta/2)|, so
    # theta = 2*asin(.). The arccos-of-trace form quantizes near zero (trace
    # rounding puts a ~1e-6 deg floor on it) and cannot resolve exact recovery.
    chord = np.linalg.norm(r_a.T @ r_b - np.eye(3))
    return np.degrees(2.0 * np.arcsin(min(1.0, chord / (2.0 * np.sqrt(2.0)))))


def test_cross_covariance_single_pair_orientation():
    # s = e_x, t = e_y: H = t s^T has its only nonzero entry at row y, col x.
    src = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    tgt = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    h = cross_covariance(centered_from(src, tgt)).h
    expected = np.zeros((3, 3))
    expected[1, 0] = 2.0  # both pairs contribute t_y * s_x = 1
    assert np.allclose(h, expected)


def test_cross_covariance_identical_clouds_psd():
    corr, _ = random_problem(seed=2, n=12)
    cc = centered_from(corr.source.points, corr.source.points)
    h = cross_covariance(cc).h
    assert np.allclose(h, h.T)
    assert np.all(np.linalg.eigvalsh(h) >= -1e-12)


def test_cross_covariance_linear_in_weights():
    corr, _ = random_problem(seed=3, n=9)
    h1 = cross_covariance(center(corr)).h
    doubled = CorrespondenceSet(corr.source, corr.target, 2.0 * corr.weights)
    h2 = cross_covariance(center(doubled)).h
    assert np.allclose(h2, 2.0 * h1)


def test_kabsch_identity_from_identity_covariance():
    r = kabsch_rotation(CrossCovariance(np.eye(3)))
    assert np.allclose(r.m, np.eye(3))


def test_kabsch_recovers_z_rotation():
    rng = Xoshiro256PlusPlus(4)
    src = np.array([rng.uniform(-1, 1) for _ in range(150)]).reshape(50, 3)
    rz = rotation_z(np.radians(30.0))
    cc = centered_from(src, src @ rz.T)
    r = kabsch_rotation(cross_covariance(cc))
    assert iso_angle_deg(r.m, rz) <= 1e-9


def test_kabsch_reflection_case_stays_proper():
    # det(H) < 0 exercises the sign correction; result must still be the best
    # proper rotation, checked against a large rotation sample.
    h = np.diag([1.0, 1.0, -1.0])
    r = kabsch_rotation(CrossCovariance(h))
    assert np.linalg.det(r.m) == pytest.approx(1.0, abs=1e-12)
    # maximizing tr(R H) over SO(3); compare against 10^4 random rotations
    best = np.trace(r.m @ h)
    rng = Xoshiro256PlusPlus(5)
    for _ in range(10_000):
        best_other = np.trace(random_rotation(rng).m @ h)
        assert best >= best_other - 1e-6


def test_kabsch_degenerate_all_points_identical():
    src = np.ones((4, 3))
    with pytest.raises(DegenerateGeometry):
        estimate_pose_kabsch(CorrespondenceSet.from_arrays(src, src))


def test_kabsch_degenerate_collinear():
    line = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometry):
        kabsch_rotation(cross_covariance(centered_from(line, line)))


def test_kabsch_planar_is_not_degenerate():
    # Rank-2 geometry still pins the rotation; only rank <= 1 raises.
    rng = Xoshiro256PlusPlus(6)
    src = np.array([rng.uniform(-1, 1) for _ in range(40)]).reshape(20, 2)
    src = np.column_stack([src, np.zeros(20)])
    rot = random_rotation(rng)
    cc = centered_from(src, src @ rot.m.T)
    r = kabsch_rotation(cross_covariance(cc))
    assert np.linalg.norm(r.m - rot.m) <= 1e-9


def test_estimate_pose_identity_on_identical_clouds():
    corr, _ = random_problem(seed=7, n=15)
    same = CorrespondenceSet(corr.source, corr.source)
    pose = estimate_pose_kabsch(same)
    assert np.linalg.norm(pose.rotation.m - np.eye(3)) <= 1e-12
    assert np.linalg.norm(pose.translation) <= 1e-12


def test_estimate_pose_exact_recovery():
    for seed in range(20):
        corr, gt = random_problem(seed=seed, n=16, weighted=True)
        pose = estimate_pose_kabsch(corr)
        assert np.linalg.norm(pose.rotation.m - gt.rotation.m) <= 1e-9
        assert np.linalg.norm(pose.translation - gt.translation) <= 1e-9


def test_rotation_invariant_to_target_scale():
    for seed in range(30):
        corr, _ = random_problem(seed=seed, n=12, noise=0.02, weighted=True)
        cc = center(corr)
        r_base = kabsch_rotation(cross_covariance(cc)).m
        for a in (0.1, 3.0, 10.0):
            scaled = centered_from(
                cc.source_centered.points,
                a * cc.target_centered.points,
                cc.weights,
            )
            r_scaled = kabsch_rotation(cross_covariance(scaled)).m
            assert np.linalg.norm(r_scaled - r_base) <= 1e-9


def test_target_scaling_inflates_correspondence_error():
    # Scaling the target by a = 10 grows the mean squared residual while the
    # rotation stays put, so correspondence error alone cannot rank poses.
    corr, _ = random_problem(seed=41, n=12, noise=0.02)
    pose = estimate_pose_kabsch(corr)
    n = corr.count
    base_mse = weighted_cost(pose.rotation, pose.translation, corr) / n
    scaled = CorrespondenceSet.from_arrays(
        corr.source.points, 10.0 * corr.target.points, corr.weights
    )
    pose_scaled = estimate_pose_kabsch(scaled)
    scaled_mse = weighted_cost(pose_scaled.rotation, pose_scaled.translation, scaled) / n
    assert np.linalg.norm(pose_scaled.rotation.m - pose.rotation.m) <= 1e-9
    assert scaled_mse > base_mse


def test_weight_scale_invariance():
    corr, _ = random_problem(seed=8, n=10, noise=0.01, weighted=True)
    pose = estimate_pose_kabsch(corr)
    scaled = CorrespondenceSet(corr.source, corr.target, 7.5 * corr.weights)
    pose2 = estimate_pose_kabsch(scaled)
    assert np.allclose(pose.rotation.m, pose2.rotation.m)
    assert np.allclose(pose.translation, pose2.translation)


def test_kabsch_optimality_small_instances():
    # Global optimality spot check at module scale (the acceptance suite runs
    # the full 200-problem version).
    rng = Xoshiro256PlusPlus(9)
    for seed in range(5):
        corr, _ = random_problem(seed=seed + 100, n=4, noise=0.1)
        pose = estimate_pose_kabsch(corr)
        cost = weighted_cost(pose.rotation, pose.translation, corr)
        from rigid_refine import optimal_translation

        for _ in range(2000):
            r = random_rotation(rng)
            t = optimal_translation(r, corr)
            assert cost <= weighted_cost(r, t, corr) + 1e-6


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n", [3, 32, 1024])
def test_estimate_pose_equals_public_chain_bitwise(n, weighted):
    # estimate_pose_kabsch runs on plain arrays; it must agree bit for bit with
    # the validated chain center -> cross_covariance -> kabsch_rotation and
    # t = target_mean - R source_mean. Every fourth target is mirrored, so
    # det(H) < 0 and the reflection guard is exercised.
    reflections = 0
    for seed in range(200):
        rng = Xoshiro256PlusPlus(10_000 * n + seed)
        src = rng.uniforms(3 * n, -1.0, 1.0).reshape(n, 3)
        mirror = np.diag([1.0, 1.0, -1.0]) if seed % 4 == 0 else np.eye(3)
        noise = 0.01 * rng.normals(3 * n).reshape(n, 3)
        tgt = src @ (random_rotation(rng).m @ mirror).T + noise + rng.uniforms(3, -0.5, 0.5)
        weights = rng.uniforms(n, 0.5, 2.0) if weighted else None
        corr = CorrespondenceSet.from_arrays(src, tgt, weights)

        centered = center(corr)
        cross_cov = cross_covariance(centered)
        rotation = kabsch_rotation(cross_cov)
        translation = centered.target_mean - rotation.m @ centered.source_mean
        pose = estimate_pose_kabsch(corr)
        assert pose.rotation.m.tobytes() == rotation.m.tobytes()
        assert pose.translation.tobytes() == translation.tobytes()
        reflections += np.linalg.det(cross_cov.h) < 0.0
    assert reflections >= 40


def test_estimate_pose_rejects_overflowing_cross_covariance():
    # Finite points near 1e200 center fine, but H = sum w t s^T overflows.
    rng = Xoshiro256PlusPlus(12)
    src = 1e200 * rng.uniforms(3 * 16, -1.0, 1.0).reshape(16, 3)
    corr = CorrespondenceSet.from_arrays(src, src[::-1].copy())
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(center(corr).source_centered.points))
        with pytest.raises(ValueError, match="cross-covariance must be finite"):
            estimate_pose_kabsch(corr)
