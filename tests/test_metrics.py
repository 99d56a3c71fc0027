"""Tests for evaluation metrics: rotation/translation errors, Chamfer,
mean point distance, and the multi-pose augmented loss."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rigid_refine import (
    PointCloud,
    PoseError,
    RigidTransform,
    Rotation,
    augmented_loss,
    chamfer_distance,
    euler_zyx,
    gimbal_locked,
    mean_point_distance,
    pose_error,
    rotation_error,
    translation_error,
)
from rigid_refine import metrics, so3
from rigid_refine.core import _dot
from rigid_refine.rng import Xoshiro256PlusPlus

from conftest import random_rotation


def test_rotation_error_identical():
    rng = Xoshiro256PlusPlus(900)
    for _ in range(5):
        r = random_rotation(rng)
        iso, aniso = rotation_error(r, r)
        assert iso == 0.0
        assert np.allclose(aniso, 0.0, atol=1e-7)


def test_rotation_error_single_axis_closed_form():
    # est = I, gt = Rz(30 deg): geodesic angle 30, all of it in the z Euler slot.
    est = Rotation.identity()
    gt = Rotation(so3.rotation_zyx(30.0, 0.0, 0.0, degrees=True))
    iso, aniso = rotation_error(est, gt)
    assert abs(iso - 30.0) <= 1e-9
    assert np.allclose(aniso, [30.0, 0.0, 0.0], atol=1e-9)


def test_rotation_error_three_axis_decomposition():
    # est = I, gt composed intrinsically: aniso recovers the generating angles
    # and recomposing them reproduces the relative rotation.
    est = Rotation.identity()
    gt = Rotation(so3.rotation_zyx(10.0, 20.0, 30.0, degrees=True))
    iso, aniso = rotation_error(est, gt)
    assert np.allclose(aniso, [10.0, 20.0, 30.0], atol=1e-9)
    recomposed = so3.rotation_zyx(*aniso, degrees=True)
    assert np.allclose(recomposed, gt.m, atol=1e-12)
    iso_recomposed = np.degrees(
        np.arccos(np.clip((np.trace(recomposed) - 1.0) / 2.0, -1.0, 1.0))
    )
    assert abs(iso - iso_recomposed) <= 1e-9


def test_euler_zyx_against_scipy():
    from scipy.spatial.transform import Rotation as ScipyRotation

    rng = Xoshiro256PlusPlus(901)
    for _ in range(50):
        m = random_rotation(rng).m
        ours = euler_zyx(m)
        # Uppercase "ZYX" is scipy's intrinsic z-y'-x'' convention.
        ref = ScipyRotation.from_matrix(m).as_euler("ZYX")
        assert np.allclose(ours, ref, atol=1e-10)


def test_euler_round_trip_below_gimbal():
    # Recomposing the decomposition reproduces the matrix for |pitch| <= 89 deg.
    rng = Xoshiro256PlusPlus(902)
    checked = 0
    while checked < 40:
        z = rng.uniform(-180.0, 180.0)
        y = rng.uniform(-89.0, 89.0)
        x = rng.uniform(-180.0, 180.0)
        m = so3.rotation_zyx(z, y, x, degrees=True)
        angles = euler_zyx(m)
        recomposed = so3.rotation_zyx(*np.degrees(angles), degrees=True)
        assert np.linalg.norm(recomposed - m) <= 1e-9
        checked += 1


def test_euler_gimbal_lock_convention():
    # At pitch = +-90 deg only yaw -+ roll is observable; yaw carries it all.
    for sign in (1.0, -1.0):
        m = so3.rotation_zyx(40.0, sign * 90.0, 25.0, degrees=True)
        assert gimbal_locked(m)
        z, y, x = euler_zyx(m)
        assert x == 0.0
        assert abs(np.degrees(y) - sign * 90.0) <= 1e-9
        recomposed = so3.rotation_zyx(np.degrees(z), sign * 90.0, 0.0, degrees=True)
        assert np.allclose(recomposed, m, atol=1e-12)
    assert not gimbal_locked(so3.rotation_zyx(40.0, 89.0, 25.0, degrees=True))


def test_rotation_error_symmetry():
    rng = Xoshiro256PlusPlus(903)
    for _ in range(20):
        a = random_rotation(rng)
        b = random_rotation(rng)
        iso_ab, _ = rotation_error(a, b)
        iso_ba, _ = rotation_error(b, a)
        assert abs(iso_ab - iso_ba) <= 1e-9


def test_translation_error_hand_values():
    assert translation_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert abs(translation_error([3.0, 4.0, 0.0], [0.0, 0.0, 0.0], p=2) - 5.0) <= 1e-12
    assert abs(translation_error([1.0, -2.0, 3.0], [0.0, 0.0, 0.0], p=1) - 6.0) <= 1e-12
    with pytest.raises(ValueError):
        translation_error([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], p=3)


def test_chamfer_identical_clouds():
    rng = Xoshiro256PlusPlus(904)
    pts = rng.uniforms(30, -1.0, 1.0).reshape(10, 3)
    cloud = PointCloud(pts)
    assert chamfer_distance(cloud, cloud) == 0.0


def test_chamfer_hand_values():
    a = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    b = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    # Both directed mean-squared terms are 1, so the symmetric sum is 2.
    assert abs(chamfer_distance(a, b) - 2.0) <= 1e-12

    a2 = PointCloud(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    b2 = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    # Directed a->b: (0 + 4)/2 = 2; directed b->a: 0.
    assert abs(chamfer_distance(a2, b2) - 2.0) <= 1e-12


def test_chamfer_symmetric():
    rng = Xoshiro256PlusPlus(905)
    a = PointCloud(rng.uniforms(24, -1.0, 1.0).reshape(8, 3))
    b = PointCloud(rng.uniforms(18, -1.0, 1.0).reshape(6, 3))
    assert chamfer_distance(a, b) == chamfer_distance(b, a)


def test_mean_point_distance_translation_only():
    rng = Xoshiro256PlusPlus(906)
    src = PointCloud(rng.uniforms(30, -1.0, 1.0).reshape(10, 3))
    gt = RigidTransform(random_rotation(rng), np.array([0.1, -0.2, 0.3]))
    assert mean_point_distance(src, gt, gt) == 0.0
    shifted = RigidTransform(gt.rotation, gt.translation + np.array([0.0, 0.0, 0.1]))
    assert abs(mean_point_distance(src, shifted, gt) - 0.1) <= 1e-12


def test_mean_point_distance_small_rotation_oracle():
    # Sphere cloud, est = gt composed with a small z-rotation: the value is
    # ~eps * mean in-plane radius, and matches the direct per-point sum.
    rng = Xoshiro256PlusPlus(907)
    pts = np.array([rng.unit_vector() for _ in range(64)])
    src = PointCloud(pts)
    gt_rot = random_rotation(rng)
    gt = RigidTransform(gt_rot, np.zeros(3))
    eps = 1e-4
    est_rot = Rotation(gt_rot.m @ so3.rotation_zyx(np.degrees(eps), 0.0, 0.0, degrees=True))
    est = RigidTransform(est_rot, np.zeros(3))
    got = mean_point_distance(src, est, gt)
    direct = np.mean(
        np.linalg.norm(pts @ (est_rot.m - gt_rot.m).T, axis=1)
    )
    assert abs(got - direct) <= 1e-15
    mean_inplane = np.mean(np.hypot(pts[:, 0], pts[:, 1]))
    assert abs(got - eps * mean_inplane) <= eps * eps


def test_augmented_loss_zero_at_ground_truth():
    rng = Xoshiro256PlusPlus(908)
    gt = RigidTransform(random_rotation(rng), np.array([0.4, -0.1, 0.2]))
    assert augmented_loss([gt, gt, gt], gt) <= 1e-30


def test_augmented_loss_single_pose_translation():
    rng = Xoshiro256PlusPlus(909)
    r = random_rotation(rng)
    gt = RigidTransform(r, np.array([0.1, 0.2, 0.3]))
    est = RigidTransform(r, gt.translation + np.array([1.0, 0.0, 0.0]))
    assert abs(augmented_loss([est], gt) - 1.0) <= 1e-12


def test_augmented_loss_mean_invariance():
    # The loss is a mean over poses: duplicating the sequence changes nothing.
    rng = Xoshiro256PlusPlus(910)
    gt = RigidTransform(random_rotation(rng), np.zeros(3))
    est = RigidTransform(random_rotation(rng), np.array([0.2, 0.0, -0.1]))
    one = augmented_loss([est], gt)
    two = augmented_loss([est, est], gt)
    assert abs(one - two) <= 1e-15
    with pytest.raises(ValueError):
        augmented_loss([], gt)


def test_pose_error_bundle():
    est = RigidTransform(Rotation.identity(), np.zeros(3))
    gt = RigidTransform(
        Rotation(so3.rotation_zyx(30.0, 0.0, 0.0, degrees=True)),
        np.array([3.0, 4.0, 0.0]),
    )
    err = pose_error(est, gt)
    assert abs(err.iso_rot_deg - 30.0) <= 1e-9
    assert np.allclose(err.aniso_rot_deg, [30.0, 0.0, 0.0], atol=1e-9)
    assert abs(err.trans_err - 5.0) <= 1e-12
    assert err.norm_order == 2
    assert not err.gimbal_lock
    err1 = pose_error(est, gt, p=1)
    assert abs(err1.trans_err - 7.0) <= 1e-12


def test_pose_error_validation():
    with pytest.raises(ValueError):
        PoseError(iso_rot_deg=-1.0, aniso_rot_deg=np.zeros(3), trans_err=0.0,
                  norm_order=2, gimbal_lock=False)
    with pytest.raises(ValueError):
        PoseError(iso_rot_deg=181.0, aniso_rot_deg=np.zeros(3), trans_err=0.0,
                  norm_order=2, gimbal_lock=False)
    with pytest.raises(ValueError):
        PoseError(iso_rot_deg=10.0, aniso_rot_deg=np.zeros(3), trans_err=-0.5,
                  norm_order=2, gimbal_lock=False)
    with pytest.raises(ValueError):
        PoseError(iso_rot_deg=10.0, aniso_rot_deg=np.zeros(3), trans_err=0.0,
                  norm_order=3, gimbal_lock=False)
    with pytest.raises(ValueError):
        PoseError(iso_rot_deg=10.0, aniso_rot_deg=np.zeros(2), trans_err=0.0,
                  norm_order=2, gimbal_lock=False)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.just(3)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_scaled_norms_keep_the_bytes_of_the_unscaled_formula(x):
    # Rows of any finite scale: where the unscaled squares do not overflow,
    # the translation L2 norm and the point distances keep their bytes; where
    # they do, a norm below the float range is still a number.
    eye, zero = np.eye(3)[None], np.zeros((1, 3))
    with np.errstate(over="ignore"):
        plain_l2 = np.sqrt(_dot(x, x))
        plain_points = np.sqrt((x * x).sum(axis=1))
        l2 = metrics._translation_errors(x)[1]
        # diff = x (2I - I)^T + 0 is x itself: each row's distance is its norm.
        rows = [metrics._mean_point_distances(row[None, None], 2 * eye, zero, eye, zero)[0] for row in x]
    finite = np.isfinite(plain_l2)
    assert l2[finite].tobytes() == plain_l2[finite].tobytes()
    finite = np.isfinite(plain_points)
    assert np.array(rows)[finite].tobytes() == plain_points[finite].tobytes()
    # sqrt(3) max|x| < 2^1024: the norm is in range.
    in_range = np.abs(x).max(axis=1) < 1e308
    assert np.isfinite(l2[in_range]).all() and np.isfinite(np.array(rows)[in_range]).all()
