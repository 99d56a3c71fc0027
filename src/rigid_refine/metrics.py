"""Evaluation quantities: rotation/translation errors, Chamfer distance, mean
point distance, and the multi-pose augmented loss."""

from dataclasses import dataclass

import numpy as np

from . import so3
from .neighbors import nearest

# |sin(pitch)| above 1 - this counts as gimbal lock for the Euler split.
GIMBAL_TOL = 1e-12


def euler_zyx(m):
    """Intrinsic z-y'-x'' Euler angles (radians) of a rotation matrix.

    Inverse of so3.rotation_zyx: m = Rz(z) @ Ry(y) @ Rx(x). At gimbal lock
    (|pitch| -> 90 deg) the yaw angle carries the full in-plane rotation and
    roll is set to zero; the default benchmark ranges (<= 45 deg) never get
    there, so any consistent convention works and this one is pinned by tests.

    Returns
    -------
    ndarray, shape (3,)
        Angles (z, y, x).
    """
    m = np.asarray(m, dtype=float)
    sin_pitch = -m[2, 0]
    if abs(sin_pitch) >= 1.0 - GIMBAL_TOL:
        pitch = np.pi / 2.0 if sin_pitch > 0 else -np.pi / 2.0
        # Only yaw -+ roll is determined; put it all in yaw.
        if sin_pitch > 0:
            yaw = np.arctan2(m[1, 2], m[1, 1])
        else:
            yaw = np.arctan2(-m[1, 2], m[1, 1])
        return np.array([yaw, pitch, 0.0])
    pitch = np.arcsin(np.clip(sin_pitch, -1.0, 1.0))
    yaw = np.arctan2(m[1, 0], m[0, 0])
    roll = np.arctan2(m[2, 1], m[2, 2])
    return np.array([yaw, pitch, roll])


def gimbal_locked(m):
    """True when the z-y-x Euler split of m is at (or numerically at) gimbal lock."""
    return bool(abs(np.asarray(m, dtype=float)[2, 0]) >= 1.0 - GIMBAL_TOL)


@dataclass(frozen=True, eq=False)
class PoseError:
    """Rotation and translation error of one pose estimate against ground truth."""

    iso_rot_deg: float
    aniso_rot_deg: np.ndarray
    trans_err: float
    norm_order: int
    gimbal_lock: bool

    def __post_init__(self):
        if not 0.0 <= self.iso_rot_deg <= 180.0:
            raise ValueError("iso_rot_deg must lie in [0, 180]")
        if self.trans_err < 0.0:
            raise ValueError("trans_err must be nonnegative")
        if self.norm_order not in (1, 2):
            raise ValueError("norm_order must be 1 or 2")
        v = np.array(self.aniso_rot_deg, dtype=float)
        if v.shape != (3,):
            raise ValueError("aniso_rot_deg must be a 3-vector")
        v.setflags(write=False)
        object.__setattr__(self, "aniso_rot_deg", v)


def rotation_error(est, gt):
    """Isotropic and axis-resolved rotation error, both in degrees.

    The relative rotation is dR = est^T gt. Isotropic error is its geodesic
    angle arccos((tr(dR) - 1) / 2), argument clamped to [-1, 1]; anisotropic
    error is the intrinsic z-y-x Euler decomposition of dR.

    Parameters
    ----------
    est, gt : Rotation

    Returns
    -------
    (float, ndarray shape (3,))
        (iso_deg, aniso_deg) with aniso ordered (z, y, x).
    """
    delta = est.m.T @ gt.m
    iso = np.degrees(np.arccos(np.clip((np.trace(delta) - 1.0) / 2.0, -1.0, 1.0)))
    aniso = np.degrees(euler_zyx(delta))
    return float(iso), aniso


def translation_error(est, gt, p=2):
    """||est - gt||_p for p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    return float(np.linalg.norm(np.asarray(est, dtype=float) - np.asarray(gt, dtype=float), ord=p))


def pose_error(est, gt, p=2):
    """Bundle rotation_error and translation_error for two rigid transforms."""
    iso, aniso = rotation_error(est.rotation, gt.rotation)
    return PoseError(
        iso_rot_deg=iso,
        aniso_rot_deg=aniso,
        trans_err=translation_error(est.translation, gt.translation, p),
        norm_order=p,
        gimbal_lock=gimbal_locked(est.rotation.m.T @ gt.rotation.m),
    )


def chamfer_distance(a, b):
    """Symmetric mean squared nearest-neighbor distance between two clouds.

    Sum of both directed terms: mean over a of the squared distance to the
    nearest point of b, plus the same with roles swapped. Each term uses the
    k-d tree search of neighbors.nearest, O((N + M) log(N + M)) expected time
    and O(N + M) memory; the value is bit-identical to the brute-force
    minimum over all N*M squared distances.

    Parameters
    ----------
    a, b : PointCloud

    Returns
    -------
    float
    """
    _, d2_ab = nearest(a.points, b.points)
    _, d2_ba = nearest(b.points, a.points)
    return float(d2_ab.mean() + d2_ba.mean())


def mean_point_distance(src, est, gt):
    """Mean over the cloud of ||(R - R_gt) p + t - t_gt||_2.

    Parameters
    ----------
    src : PointCloud
    est, gt : RigidTransform

    Returns
    -------
    float
    """
    diff = src.points @ (est.rotation.m - gt.rotation.m).T + (est.translation - gt.translation)
    return float(np.linalg.norm(diff, axis=1).mean())


def augmented_loss(trace_or_poses, gt):
    """Mean rotation-orthogonality and translation loss over a pose sequence.

    (1/P) sum_i ||R_i^T R_gt - I||_F^2 + (1/P) sum_i ||t_i - t_gt||_2^2 over
    all P poses (initialization included when given a refinement trace).

    Parameters
    ----------
    trace_or_poses : RefinementTrace or sequence of RigidTransform
    gt : RigidTransform

    Returns
    -------
    float
    """
    poses = getattr(trace_or_poses, "poses", trace_or_poses)
    if len(poses) == 0:
        raise ValueError("need at least one pose")
    rot_term = np.mean(
        [np.linalg.norm(p.rotation.m.T @ gt.rotation.m - np.eye(3)) ** 2 for p in poses]
    )
    trans_term = np.mean([np.sum((p.translation - gt.translation) ** 2) for p in poses])
    return float(rot_term + trans_term)
