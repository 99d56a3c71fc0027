"""Evaluation quantities: rotation/translation errors, Chamfer distance, mean
point distance, and the multi-pose augmented loss.

The pose metrics are written once, in private kernels with a leading trial
axis ((B, 3, 3) rotations, (B, 3) translations, (B, N, 3) clouds), which the
experiment harness calls on a whole chunk of trials and the public functions
call at B = 1. So is Chamfer: `_chamfers` takes a stack of cloud pairs and
searches each direction of every pair through lane-tagged trees
(neighbors._LaneTrees); when the clouds have equal size it first settles
the rows that the triangle inequality decides without a search, and
searches the rest no farther than each pair's largest gap.
See core for the conventions and the matmul-dot rule that keeps each lane
bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .core import _dot, _frozen, _scalar_pow
from .neighbors import (
    NonFiniteDistance,
    _LaneTrees,
    _passing_distance,
    _scale_slack,
    _scan,
    _surely_below,
)

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
        aniso = _frozen(self.aniso_rot_deg, "aniso_rot_deg", (3,))
        object.__setattr__(self, "aniso_rot_deg", aniso)


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


def _norms(x, squares):
    """Norms over the last axis of x, sqrt(squares(x)), where squares sums
    the squares of each row.

    A row whose squares overflow is first divided by the power of two at or
    above its largest entry, and its norm multiplied back (np.frexp /
    np.ldexp, exact, as kabsch._kabsch_matrix scales H), so a norm in the
    float range is a number; every other row keeps the unscaled bytes.
    """
    with np.errstate(over="ignore"):
        norm = np.sqrt(squares(x))
    big = np.isinf(norm)
    if big.any():
        _, exponent = np.frexp(np.abs(x[big]).max(axis=-1))
        scaled = np.ldexp(x[big], -exponent[:, None])
        norm[big] = np.ldexp(np.sqrt(squares(scaled)), exponent)
    return norm


def _translation_errors(diff):
    """(L1, L2) norms over the last axis of diff = est - gt."""
    return np.abs(diff).sum(axis=-1), _norms(diff, lambda v: _dot(v, v))


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


def _chamfers(a, b):
    """chamfer_distance per lane of (B, N, 3) / (B, M, 3) point stacks, (B,):
    both directed means of the nearest squared distances, summed; NaN for a
    lane where a nearest squared distance is not finite.

    At N = M the clouds are paired, a_i with b_i, and the largest gap
    G = max_i g_i (g_i = ||a_i - b_i||, by the elementwise formula) bounds
    every nearest distance in both directions (an overflowed G searches
    everything; see neighbors._LaneTrees). One self-query of the targets'
    trees gives each b_i's spacing s_i (_LaneTrees.spacing), no farther than
    the spacing past which both tests below pass for every row, and by the
    triangle inequality b_i is a_i's unique nearest point where 2 g_i < s_i,
    and a_i is b_i's where g_i + G < s_i, each test with the margins of
    neighbors._surely_below. A settled row's squared distance is g_i ** 2.
    Clouds of unequal size settle no row and have no bound.

    The other rows of a direction, gathered by flat row number, go to one
    in-lane scan (neighbors._scan) when they are no more than the lanes, so
    that it scans no more points than the trees would hold, else to one
    search of every lane's tree, the targets' kept from the self-query.
    """
    targets = _LaneTrees(b)
    if a.shape[1] == b.shape[1]:
        with np.errstate(over="ignore", invalid="ignore"):
            gap2 = ((a - b) ** 2).sum(axis=2)
            bound = np.sqrt(gap2.max(axis=1))
        gap = np.sqrt(gap2)
        slack = _scale_slack(a, b)
        spacing = targets.spacing(_passing_distance(2.0 * bound, slack))
        directions = [
            (~_surely_below(near, spacing, slack[:, None]), gap2.copy())
            for near in (2.0 * gap, gap + bound[:, None])
        ]
    else:
        bound = None
        directions = [(np.ones(x.shape[:2], dtype=bool), np.empty(x.shape[:2])) for x in (a, b)]
    finite = np.ones(len(a), dtype=bool)
    terms = []
    for (unsettled, d2), query, ref, trees in zip(directions, (a, b), (b, a), (targets, None)):
        # Gathered by np.take, faster than by (lane, row) pairs.
        flat = np.flatnonzero(unsettled)
        lane, rows = flat // query.shape[1], np.take(query.reshape(-1, 3), flat, axis=0)
        if len(rows) <= len(ref):
            _, d2.flat[flat] = _scan(lane, rows, ref)
            finite[lane[~np.isfinite(d2.flat[flat])]] = False
        else:
            index, _, found = (trees or _LaneTrees(ref)).search(lane, rows, bound)
            finite &= found
            nearest = np.take(ref.reshape(-1, 3), lane * ref.shape[1] + index, axis=0)
            with np.errstate(over="ignore", invalid="ignore"):
                d2.flat[flat] = np.sum((rows - nearest) ** 2, axis=1)
        terms.append(d2)
    # A masked lane's squared distances may be inf or NaN, or overflow its sum.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = terms[0].mean(axis=1) + terms[1].mean(axis=1)
    return np.where(finite, sums, np.nan)


def chamfer_distance(a, b):
    """Symmetric mean squared nearest-neighbor distance between two clouds.

    Sum of both directed terms: mean over a of the squared distance to the
    nearest point of b, plus the same with roles swapped. Each term uses the
    k-d tree search of neighbors._LaneTrees, O((N + M) log(N + M)) expected time
    and O(N + M) memory; for clouds of equal size whose points are paired
    (a_i with b_i) and close beside the spacing of b, most rows take their
    partner without a search (see _chamfers). The value is bit-identical to
    the brute-force minimum over all N*M squared distances. It is _chamfers
    at one lane.

    Parameters
    ----------
    a, b : PointCloud

    Returns
    -------
    float

    Raises
    ------
    NonFiniteDistance
        If a nearest squared distance is not finite.
    """
    value = _chamfers(a.points[None], b.points[None])[0]
    if np.isnan(value):
        raise NonFiniteDistance("nearest squared distance overflowed to inf")
    return float(value)


def _mean_point_distances(src, est_r, est_t, gt_r, gt_t):
    """mean_point_distance per trial: (B, N, 3) sources, (B, 3, 3) rotations
    and (B, 3) translations -> (B,)."""
    diff = src @ (est_r - gt_r).swapaxes(1, 2) + (est_t - gt_t)[:, None, :]
    return _norms(diff, lambda v: (v * v).sum(axis=-1)).mean(axis=1)


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
