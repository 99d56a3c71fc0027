"""Evaluation quantities: rotation/translation errors, Chamfer distance, mean
point distance, and the multi-pose augmented loss.

The pose metrics are written once, in private kernels with a leading trial
axis ((B, 3, 3) rotations, (B, 3) translations, (B, N, 3) clouds), which the
experiment harness calls on a whole chunk of trials and the public functions
call at B = 1. Chamfer is per problem: `_chamfer` takes one pair of clouds.
See core for the conventions and the matmul-dot rule that keeps each lane
bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from . import so3
from .core import _dot, _scalar_pow
from .neighbors import nearest

# |sin(pitch)| above 1 - this counts as gimbal lock for the Euler split.
GIMBAL_TOL = 1e-12


def euler_zyx(m):
    """Intrinsic z-y'-x'' Euler angles (radians) of a rotation matrix.

    Inverse of so3.rotation_zyx: m = Rz(z) @ Ry(y) @ Rx(x). At gimbal lock
    (|pitch| -> 90 deg) the yaw angle carries the full in-plane rotation and
    roll is set to zero; the default benchmark ranges (<= 45 deg) never get
    there, so any consistent convention works and this one is pinned by tests.
    A (..., 3, 3) stack gives one row of angles per matrix.

    Returns
    -------
    ndarray, shape (..., 3)
        Angles (z, y, x).
    """
    m = np.asarray(m, dtype=float)
    sin_pitch = -m[..., 2, 0]
    pitch = np.arcsin(np.clip(sin_pitch, -1.0, 1.0))
    yaw = np.arctan2(m[..., 1, 0], m[..., 0, 0])
    roll = np.arctan2(m[..., 2, 1], m[..., 2, 2])
    locked = np.abs(sin_pitch) >= 1.0 - GIMBAL_TOL
    if np.any(locked):
        # Only yaw -+ roll is determined; put it all in yaw.
        up = sin_pitch > 0
        pitch = np.where(locked, np.where(up, np.pi / 2.0, -np.pi / 2.0), pitch)
        locked_yaw = np.arctan2(np.where(up, m[..., 1, 2], -m[..., 1, 2]), m[..., 1, 1])
        yaw = np.where(locked, locked_yaw, yaw)
        roll = np.where(locked, 0.0, roll)
    return np.stack((yaw, pitch, roll), axis=-1)


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


def _rotation_errors(est, gt):
    """rotation_error per trial for (B, 3, 3) stacks: iso (B,), aniso (B, 3)."""
    delta = est.swapaxes(1, 2) @ gt
    cos = (delta.trace(axis1=1, axis2=2) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))), np.degrees(euler_zyx(delta))


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
    iso, aniso = _rotation_errors(est.m[None], gt.m[None])
    return float(iso[0]), aniso[0]


def _translation_errors(diff):
    """(L1, L2) norms over the last axis of diff = est - gt."""
    return np.abs(diff).sum(axis=-1), np.sqrt(_dot(diff, diff))


def translation_error(est, gt, p=2):
    """||est - gt||_p for p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    diff = np.asarray(est, dtype=float) - np.asarray(gt, dtype=float)
    return float(_translation_errors(diff)[p - 1])


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


def _chamfer(a, b):
    """chamfer_distance of two (N, 3) / (M, 3) point arrays."""
    _, d2_ab = nearest(a, b)
    _, d2_ba = nearest(b, a)
    return d2_ab.mean() + d2_ba.mean()


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
    return float(_chamfer(a.points, b.points))


def _mean_point_distances(src, est_r, est_t, gt_r, gt_t):
    """mean_point_distance per trial: (B, N, 3) sources, (B, 3, 3) rotations
    and (B, 3) translations -> (B,)."""
    diff = src @ (est_r - gt_r).swapaxes(1, 2) + (est_t - gt_t)[:, None, :]
    return np.sqrt((diff * diff).sum(axis=2)).mean(axis=1)


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
    distance = _mean_point_distances(
        src.points[None],
        est.rotation.m[None],
        est.translation[None],
        gt.rotation.m[None],
        gt.translation[None],
    )
    return float(distance[0])


def _augmented_losses(rotations, translations, gt_r, gt_t):
    """augmented_loss per trial for pose sequences of P poses: (B, P, 3, 3)
    rotations and (B, P, 3) translations against (B, 3, 3) / (B, 3) ground
    truths -> (B,)."""
    rel = (rotations.swapaxes(2, 3) @ gt_r[:, None] - np.eye(3)).reshape(len(rotations), -1, 9)
    rot_terms = _scalar_pow(np.sqrt(_dot(rel, rel)), 2)
    trans_terms = ((translations - gt_t[:, None, :]) ** 2).sum(axis=2)
    return rot_terms.mean(axis=1) + trans_terms.mean(axis=1)


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
    loss = _augmented_losses(
        np.array([p.rotation.m for p in poses])[None],
        np.array([p.translation for p in poses])[None],
        gt.rotation.m[None],
        gt.translation[None],
    )
    return float(loss[0])
