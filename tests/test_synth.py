"""Tests for synthetic problem generation: transform sampling, corruption
protocols (noise, crop, resample), cloud generators, and the ICP baseline."""

import warnings

import numpy as np
import pytest

from rigid_refine import (
    CropOverlapUnsatisfied,
    InsufficientPoints,
    PointCloud,
    ProblemSpec,
    RigidTransform,
    Rotation,
    ball_cloud,
    estimate_pose_kabsch,
    icp_baseline,
    make_problem,
    matching_cost,
    rotation_error,
    sample_transform,
    slab_cloud,
    sphere_cloud,
)
from rigid_refine import so3
from rigid_refine.rng import Xoshiro256PlusPlus

from conftest import stable_angle_deg


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(n_points=0)
    with pytest.raises(ValueError):
        ProblemSpec(n_points=8, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        ProblemSpec(n_points=8, noise_clamp=-0.1)
    with pytest.raises(ValueError):
        ProblemSpec(n_points=8, noise_sigma=float("nan"))
    with pytest.raises(ValueError):
        ProblemSpec(n_points=8, noise_clamp=float("nan"))
    with pytest.raises(ValueError):
        ProblemSpec(n_points=8, crop_keep_fraction=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(n_points=8, crop_keep_fraction=1.5)
    with pytest.raises(ValueError):
        ProblemSpec(n_points=8, rot_range_deg=(45.0, 0.0))
    # Finite ends whose width hi - lo overflows, and unbounded noise.
    with pytest.raises(ValueError, match="width"):
        ProblemSpec(n_points=8, rot_range_deg=(-1e308, 1e308))
    with pytest.raises(ValueError, match="width"):
        ProblemSpec(n_points=8, trans_range=[(0.0, 1.0), (-1e308, 1e308), (0.0, 1.0)])
    for sigma, clamp in ((1e308, float("inf")), (float("inf"), float("inf")), (float("inf"), 0.05)):
        with pytest.raises(ValueError, match="must be finite"):
            ProblemSpec(n_points=8, noise_sigma=sigma, noise_clamp=clamp)


def test_per_axis_ranges_forms():
    # A single (lo, hi) pair applies to all three axes; three pairs apply per axis.
    spec = ProblemSpec(n_points=8, rot_range_deg=(0.0, 45.0))
    assert spec.rot_range_deg == ((0.0, 45.0),) * 3
    spec3 = ProblemSpec(
        n_points=8, rot_range_deg=((0.0, 10.0), (5.0, 15.0), (20.0, 30.0))
    )
    assert spec3.rot_range_deg == ((0.0, 10.0), (5.0, 15.0), (20.0, 30.0))


def test_sample_transform_degenerate_intervals():
    rng = Xoshiro256PlusPlus(0)
    spec = ProblemSpec(n_points=8, rot_range_deg=(0.0, 0.0), trans_range=(0.0, 0.0))
    pose = sample_transform(spec, rng)
    assert np.allclose(pose.rotation.m, np.eye(3), atol=1e-15)
    assert np.all(pose.translation == 0.0)

    rng = Xoshiro256PlusPlus(1)
    spec = ProblemSpec(
        n_points=8,
        rot_range_deg=((30.0, 30.0), (0.0, 0.0), (0.0, 0.0)),
        trans_range=(0.0, 0.0),
    )
    pose = sample_transform(spec, rng)
    expected = so3.rotation_zyx(30.0, 0.0, 0.0, degrees=True)
    assert np.allclose(pose.rotation.m, expected, atol=1e-15)


def test_sample_transform_draw_order():
    # Exactly 6 uniforms in z, y, x, tx, ty, tz order.
    spec = ProblemSpec(
        n_points=8, rot_range_deg=(0.0, 45.0), trans_range=(-0.5, 0.5), seed=77
    )
    pose = sample_transform(spec, Xoshiro256PlusPlus(77))
    ref = Xoshiro256PlusPlus(77)
    z = ref.uniform(0.0, 45.0)
    y = ref.uniform(0.0, 45.0)
    x = ref.uniform(0.0, 45.0)
    t = np.array([ref.uniform(-0.5, 0.5) for _ in range(3)])
    assert np.allclose(pose.rotation.m, so3.rotation_zyx(z, y, x, degrees=True), atol=0.0)
    assert np.array_equal(pose.translation, t)


def test_sample_transform_angle_statistics():
    # Uniform on [0, 45] has mean 22.5; the empirical mean of 1e4 draws per
    # axis lands in [21, 24] with wide margin (3 sigma is ~0.4).
    rng = Xoshiro256PlusPlus(5)
    spec = ProblemSpec(n_points=8)
    sums = np.zeros(3)
    n = 10000
    for _ in range(n):
        z = rng.uniform(0.0, 45.0)
        y = rng.uniform(0.0, 45.0)
        x = rng.uniform(0.0, 45.0)
        sums += (z, y, x)
        for _ in range(3):
            rng.uniform(-0.5, 0.5)
    means = sums / n
    assert np.all(means >= 21.0) and np.all(means <= 24.0)


def test_make_problem_exact_when_uncorrupted():
    rng = Xoshiro256PlusPlus(10)
    base = ball_cloud(32, rng)
    spec = ProblemSpec(n_points=32, seed=10)
    problem = make_problem(spec, base, rng)
    corr = problem.correspondences
    expected = problem.gt.apply(corr.source.points)
    assert np.array_equal(corr.target.points, expected)
    assert np.all(problem.overlap_mask)
    assert np.all(corr.weights == 1.0)
    assert np.array_equal(corr.source.points, base.points)


def test_make_problem_exact_recovery():
    # Ground-truth consistency: the closed-form estimate recovers gt on
    # uncorrupted problems.
    for seed in range(20):
        rng = Xoshiro256PlusPlus(seed)
        base = ball_cloud(16, rng)
        problem = make_problem(ProblemSpec(n_points=16, seed=seed), base, rng)
        est = estimate_pose_kabsch(problem.correspondences)
        assert stable_angle_deg(est.rotation.m, problem.gt.rotation.m) <= 1e-9
        assert np.linalg.norm(est.translation - problem.gt.translation) <= 1e-9


def test_noise_is_source_only_and_clamped():
    # Corruption perturbs the source cloud; the target stays the exact
    # transform of the base points, and no coordinate moves more than the clamp.
    rng = Xoshiro256PlusPlus(11)
    base = ball_cloud(64, rng)
    spec = ProblemSpec(n_points=64, noise_sigma=0.2, noise_clamp=0.05, seed=11)
    rng_run = Xoshiro256PlusPlus(11)
    problem = make_problem(spec, base, rng_run)
    corr = problem.correspondences
    assert np.array_equal(corr.target.points, problem.gt.apply(base.points))
    # Replay the draws: the applied perturbation itself never exceeds the
    # clamp, and sigma 0.2 against clamp 0.05 saturates some coordinates.
    ref = Xoshiro256PlusPlus(11)
    sample_transform(spec, ref)
    noise = np.clip(ref.normals(3 * 64, sigma=0.2), -0.05, 0.05).reshape(64, 3)
    assert np.array_equal(corr.source.points, base.points + noise)
    assert np.max(np.abs(noise)) <= 0.05
    assert np.sum(np.abs(noise) == 0.05) > 0


def test_noise_draw_order():
    # After the 6 transform draws: 3n inverse-CDF normals, point-major.
    rng = Xoshiro256PlusPlus(12)
    base = ball_cloud(8, rng)
    spec = ProblemSpec(n_points=8, noise_sigma=0.01, noise_clamp=0.05, seed=12)
    run = Xoshiro256PlusPlus(12)
    problem = make_problem(spec, base, run)
    ref = Xoshiro256PlusPlus(12)
    sample_transform(spec, ref)
    noise = np.clip(ref.normals(24, sigma=0.01), -0.05, 0.05).reshape(8, 3)
    assert np.array_equal(
        problem.correspondences.source.points, base.points + noise
    )


def test_independent_resample_disjoint_subsets():
    rng = Xoshiro256PlusPlus(13)
    base = ball_cloud(64, rng)
    spec = ProblemSpec(n_points=32, independent_resample=True, seed=13)
    run = Xoshiro256PlusPlus(13)
    problem = make_problem(spec, base, run)
    corr = problem.correspondences

    ref = Xoshiro256PlusPlus(13)
    gt = sample_transform(spec, ref)
    chosen = ref.shuffled_prefix(64, 64)
    assert np.array_equal(corr.source.points, base.points[chosen[:32]])
    assert np.array_equal(corr.target.points, gt.apply(base.points[chosen[32:]]))
    # Disjoint index sets: a target point is (generically) not the transform
    # of its paired source point, but the clouds overlap as sets.
    assert set(chosen[:32]).isdisjoint(set(chosen[32:]))


def test_crop_keeps_exact_count_and_sorted_extremes():
    rng = Xoshiro256PlusPlus(14)
    base = ball_cloud(1000, rng)
    spec = ProblemSpec(n_points=1000, crop_keep_fraction=0.7, seed=14)
    run = Xoshiro256PlusPlus(14)
    problem = make_problem(spec, base, run)
    corr = problem.correspondences
    assert corr.count == 700

    # Replay the draws to recover the accepted crop normals, then verify the
    # kept source points are exactly the 700 most-positive signed distances.
    ref = Xoshiro256PlusPlus(14)
    gt = sample_transform(spec, ref)
    src = base.points
    tgt = gt.apply(base.points)
    normal_src = ref.unit_vector()
    normal_tgt = ref.unit_vector()

    def keep_indices(points, normal, keep):
        signed = (points - points.mean(axis=0)) @ normal
        order = np.argsort(-signed, kind="stable")
        return np.sort(order[:keep])

    keep_src = keep_indices(src, normal_src, 700)
    keep_tgt = keep_indices(tgt, normal_tgt, 700)
    assert np.intersect1d(keep_src, keep_tgt).size >= int(np.ceil(0.3 * 1000))
    assert np.array_equal(corr.source.points, src[keep_src])
    assert np.array_equal(corr.target.points, tgt[keep_tgt])

    in_target = np.zeros(1000, dtype=bool)
    in_target[keep_tgt] = True
    assert np.array_equal(problem.overlap_mask, in_target[keep_src])
    assert problem.overlap_mask.sum() == np.intersect1d(keep_src, keep_tgt).size


def test_crop_at_the_float_edge_keeps_the_points_of_the_unscaled_crop():
    # Moved off the origin and scaled by 2^1020, 64 points sum past the
    # float range, so the crop scales them back by a power of two: it keeps
    # the same points, without a warning.
    base = PointCloud(ball_cloud(64, Xoshiro256PlusPlus(17)).points + 1.0)
    spec = ProblemSpec(n_points=64, trans_range=(0.0, 0.0), crop_keep_fraction=0.7, seed=17)
    small = make_problem(spec, base, Xoshiro256PlusPlus(17))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = make_problem(spec, PointCloud(base.points * 2.0**1020), Xoshiro256PlusPlus(17))
    for cloud in ("source", "target"):
        got = getattr(big.correspondences, cloud).points
        assert np.array_equal(got, getattr(small.correspondences, cloud).points * 2.0**1020)
    assert np.array_equal(big.overlap_mask, small.overlap_mask)


def test_crop_overlap_unsatisfiable():
    # keep = floor(0.3 * 25) = 7 retained points can never share
    # ceil(0.3 * 25) = 8 indices, so the retry loop must exhaust and raise.
    rng = Xoshiro256PlusPlus(15)
    base = ball_cloud(25, rng)
    spec = ProblemSpec(n_points=25, crop_keep_fraction=0.3, seed=15)
    with pytest.raises(CropOverlapUnsatisfied):
        make_problem(spec, base, Xoshiro256PlusPlus(15))


def test_insufficient_points():
    rng = Xoshiro256PlusPlus(16)
    base = ball_cloud(10, rng)
    with pytest.raises(InsufficientPoints):
        make_problem(ProblemSpec(n_points=20, seed=16), base, Xoshiro256PlusPlus(16))
    with pytest.raises(InsufficientPoints):
        make_problem(
            ProblemSpec(n_points=6, independent_resample=True, seed=16),
            base,
            Xoshiro256PlusPlus(16),
        )
    # Crop that keeps zero points is rejected up front.
    with pytest.raises(InsufficientPoints):
        make_problem(
            ProblemSpec(n_points=2, crop_keep_fraction=0.3, seed=16),
            PointCloud(base.points[:2]),
            Xoshiro256PlusPlus(16),
        )


def test_ball_cloud_properties():
    rng = Xoshiro256PlusPlus(17)
    cloud = ball_cloud(200, rng)
    assert cloud.count == 200
    norms = np.linalg.norm(cloud.points, axis=1)
    assert np.all(norms <= 1.0)
    # Uniform in the ball: mean radius 3/4, sampled mean within a wide band.
    assert 0.7 <= norms.mean() <= 0.8
    again = ball_cloud(200, Xoshiro256PlusPlus(17))
    assert np.array_equal(cloud.points, again.points)


def test_sphere_cloud_unit_norms():
    rng = Xoshiro256PlusPlus(18)
    cloud = sphere_cloud(100, rng)
    norms = np.linalg.norm(cloud.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_slab_cloud_ranges():
    rng = Xoshiro256PlusPlus(19)
    cloud = slab_cloud(300, rng, thickness=1e-3)
    pts = cloud.points
    assert np.all(np.abs(pts[:, 0]) <= 1.0)
    assert np.all(np.abs(pts[:, 1]) <= 1.0)
    assert np.all(np.abs(pts[:, 2]) <= 5e-4)
    # Thin but genuinely three dimensional.
    assert np.ptp(pts[:, 2]) > 0.0
    with pytest.raises(ValueError):
        slab_cloud(10, rng, thickness=-1.0)


def test_matching_cost_hand_value():
    src = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    tgt = PointCloud(np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    assert abs(matching_cost(src, tgt, RigidTransform.identity()) - 1.0) <= 1e-12


def test_icp_identity_on_identical_clouds():
    rng = Xoshiro256PlusPlus(20)
    cloud = ball_cloud(32, rng)
    pose = icp_baseline(cloud, cloud, RigidTransform.identity(), max_iters=1)
    assert np.allclose(pose.rotation.m, np.eye(3), atol=1e-12)
    assert np.allclose(pose.translation, 0.0, atol=1e-12)


def test_icp_rejects_bad_iteration_cap_and_tolerance():
    # Without an iteration ICP would hand back its start pose as a result.
    cloud = ball_cloud(20, Xoshiro256PlusPlus(0))
    identity = RigidTransform.identity()
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            icp_baseline(cloud, cloud, identity, max_iters=bad)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol"):
            icp_baseline(cloud, cloud, identity, tol=bad)
    pose = icp_baseline(cloud, cloud, identity, max_iters=1, tol=0.0)
    assert np.allclose(pose.rotation.m, np.eye(3), atol=1e-12)


def test_icp_small_rotation_recovery():
    rng = Xoshiro256PlusPlus(21)
    src = ball_cloud(64, rng)
    gt_rot = Rotation(so3.rotation_zyx(5.0, 0.0, 0.0, degrees=True))
    tgt = PointCloud(src.points @ gt_rot.m.T)
    pose = icp_baseline(src, tgt, RigidTransform.identity(), max_iters=50)
    iso, _ = rotation_error(pose.rotation, gt_rot)
    assert iso <= 0.1
    assert np.linalg.norm(pose.translation) <= 1e-3


def test_icp_matching_cost_monotone_on_symmetric_cloud():
    # Near-4-fold-symmetric cloud rotated 44 degrees: ICP may settle in the
    # wrong well, but its matching cost can never increase across iterations.
    rng = Xoshiro256PlusPlus(22)
    quarter = np.array(
        [rng.unit_vector() * rng.uniform(0.3, 1.0) for _ in range(16)]
    )
    r90 = so3.rotation_zyx(90.0, 0.0, 0.0, degrees=True)
    pts = np.concatenate(
        [quarter, quarter @ r90.T, quarter @ (r90 @ r90).T, quarter @ (r90 @ r90 @ r90).T]
    )
    jitter = rng.normals(pts.size, sigma=0.01).reshape(pts.shape)
    src = PointCloud(pts + jitter)
    gt_rot = Rotation(so3.rotation_zyx(44.0, 0.0, 0.0, degrees=True))
    tgt = PointCloud(src.points @ gt_rot.m.T)

    costs = []
    for iters in range(1, 13):
        pose = icp_baseline(src, tgt, RigidTransform.identity(), max_iters=iters)
        costs.append(matching_cost(src, tgt, pose))
    for before, after in zip(costs, costs[1:]):
        assert after <= before + 1e-15


def test_labeled_problem_overlap_mask_validation():
    rng = Xoshiro256PlusPlus(23)
    base = ball_cloud(8, rng)
    problem = make_problem(ProblemSpec(n_points=8, seed=23), base, Xoshiro256PlusPlus(23))
    from rigid_refine import LabeledProblem

    with pytest.raises(ValueError):
        LabeledProblem(problem.correspondences, problem.gt, np.ones(5, dtype=bool))
