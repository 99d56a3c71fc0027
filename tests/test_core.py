"""Domain types, centering, translation extraction, weighted cost."""

import warnings

import numpy as np
import pytest

from rigid_refine import (
    CenteredCorrespondences,
    CorrespondenceSet,
    PointCloud,
    RigidTransform,
    Rotation,
    center,
    optimal_translation,
    weighted_cost,
)
from rigid_refine.so3 import rotation_z

from conftest import random_problem, random_rotation
from rigid_refine import Xoshiro256PlusPlus


def test_point_cloud_basic():
    cloud = PointCloud(np.zeros((4, 3)))
    assert cloud.count == 4
    assert cloud.points.dtype == np.float64


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[1.0, 2.0, np.nan]]))


def test_point_cloud_immutable():
    cloud = PointCloud(np.ones((2, 3)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0


def test_rotation_identity_and_apply():
    r = Rotation.identity()
    assert np.array_equal(r.m, np.eye(3))
    rz = Rotation(rotation_z(np.pi / 2))
    # Rz(90 deg) maps e_x to e_y.
    assert np.allclose(rz.apply(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0])


def test_rotation_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 1.001)
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection, det = -1
    with pytest.raises(ValueError):
        Rotation(np.full((3, 3), np.nan))


def test_rigid_transform_apply_hand_case():
    rz = Rotation(rotation_z(np.pi / 2))
    pose = RigidTransform(rz, np.array([1.0, 2.0, 3.0]))
    out = pose.apply(np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(out, [[1.0, 3.0, 3.0]])


def test_correspondence_set_validation():
    a = PointCloud(np.zeros((3, 3)))
    b = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CorrespondenceSet(a, b)
    with pytest.raises(ValueError):
        CorrespondenceSet(a, a, np.array([1.0, 0.0, 1.0]))  # zero weight
    with pytest.raises(ValueError):
        CorrespondenceSet(a, a, np.array([1.0, -1.0, 1.0]))
    corr = CorrespondenceSet(a, a)
    assert np.array_equal(corr.weights, np.ones(3))


def test_center_symmetric_pair_unchanged():
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    corr = CorrespondenceSet(PointCloud(pts), PointCloud(pts))
    cc = center(corr)
    assert np.allclose(cc.source_mean, 0.0)
    assert np.allclose(cc.target_mean, 0.0)
    assert np.allclose(cc.source_centered.points, pts)


def test_center_single_pair():
    corr = CorrespondenceSet(
        PointCloud(np.array([[2.0, 2.0, 2.0]])),
        PointCloud(np.array([[5.0, 5.0, 5.0]])),
        np.array([3.0]),
    )
    cc = center(corr)
    assert np.allclose(cc.source_mean, [2.0, 2.0, 2.0])
    assert np.allclose(cc.target_mean, [5.0, 5.0, 5.0])
    assert np.allclose(cc.source_centered.points, 0.0)


def test_center_weighted_mean_hand_value():
    # weights (1, 3) on x-coordinates (0, 4): mean x = (0*1 + 4*3)/4 = 3.
    src = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    corr = CorrespondenceSet(PointCloud(src), PointCloud(src), np.array([1.0, 3.0]))
    cc = center(corr)
    assert np.allclose(cc.source_mean, [3.0, 0.0, 0.0])


def test_center_idempotent():
    corr, _ = random_problem(seed=5, n=20, weighted=True)
    cc = center(corr)
    again = center(
        CorrespondenceSet(cc.source_centered, cc.target_centered, cc.weights)
    )
    assert np.linalg.norm(again.source_mean) <= 1e-12
    assert np.linalg.norm(again.target_mean) <= 1e-12


def test_optimal_translation_identity_cases():
    pts = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0], [0.5, -2.0, 0.0]])
    corr = CorrespondenceSet(PointCloud(pts), PointCloud(pts))
    assert np.allclose(optimal_translation(Rotation.identity(), corr), 0.0)

    shifted = CorrespondenceSet(PointCloud(pts), PointCloud(pts + [1.0, 2.0, 3.0]))
    assert np.allclose(optimal_translation(Rotation.identity(), shifted), [1.0, 2.0, 3.0])


def test_optimal_translation_recovers_forward_construction():
    rng = Xoshiro256PlusPlus(11)
    pts = np.array([rng.uniform(-1, 1) for _ in range(30)]).reshape(10, 3)
    rot = random_rotation(rng)
    t = np.array([0.3, -0.1, 0.2])
    corr = CorrespondenceSet(
        PointCloud(pts), PointCloud(pts @ rot.m.T + t)
    )
    assert np.linalg.norm(optimal_translation(rot, corr) - t) <= 1e-12


@pytest.mark.parametrize(
    "points",
    [
        # The weighted means overflow.
        [[1e308, 1e308, 1e308], [1.5e308, -1e308, 0.0], [1e308, 0.0, 1.0]],
        # The means are finite, but their difference is not.
        [[1e308, 0.0, 0.0], [1e308, 1.0, 0.0], [1e308, 0.0, 1.0]],
    ],
)
def test_optimal_translation_past_the_float_range_is_a_named_error(points):
    pts = np.array(points)
    corr = CorrespondenceSet(PointCloud(pts), PointCloud(-pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="optimal translation overflows"):
            optimal_translation(Rotation.identity(), corr)


def test_optimal_translation_is_optimal():
    # 100 random problems; cost at t* never beats cost at t* + eps * v over
    # the 26 _|_1-ball directions.
    directions = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx or dy or dz:
                    v = np.array([dx, dy, dz], dtype=float)
                    directions.append(v / np.linalg.norm(v))
    for seed in range(100):
        corr, _ = random_problem(seed=seed, n=8, noise=0.05, weighted=True)
        rot = random_rotation(Xoshiro256PlusPlus(seed + 1000))
        t_star = optimal_translation(rot, corr)
        base = weighted_cost(rot, t_star, corr)
        for v in directions:
            assert base <= weighted_cost(rot, t_star + 1e-4 * v, corr) + 1e-15


def test_weighted_cost_hand_value():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    tgt = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    corr = CorrespondenceSet(PointCloud(src), PointCloud(tgt), np.array([2.0, 3.0]))
    # second pair residual (1,-1,0): squared norm 2, weight 3 -> cost 6
    assert weighted_cost(Rotation.identity(), np.zeros(3), corr) == pytest.approx(6.0)


def test_centered_correspondences_validates_mean():
    pts = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    cloud = PointCloud(pts)
    with pytest.raises(ValueError):
        CenteredCorrespondences(
            source_centered=cloud,
            target_centered=cloud,
            source_mean=np.zeros(3),
            target_mean=np.zeros(3),
            weights=np.ones(2),
        )
