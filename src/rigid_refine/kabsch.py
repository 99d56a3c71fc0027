"""Closed-form weighted rotation estimate via SVD of the cross-covariance.

The returned rotation is the global minimizer of the weighted correspondence
cost over SO(3), including the reflection-corrected case where the plain
orthogonal Procrustes optimum would have determinant -1.

The private kernels take a leading trial axis, (B, N, 3) points and (B, 3, 3)
cross-covariances, and report a lane that has no rotation (non-finite or
degenerate H) in a boolean mask instead of raising; the public functions run
them at B = 1 and raise (see core for the conventions).
"""

from dataclasses import dataclass

import numpy as np

from .core import Rotation, RigidTransform, _centered, _dot, center

# Two smallest singular values of H below this (relative to ||H||_F) mean a
# rotation about the remaining axis is unobservable (e.g. collinear points).
DEGENERACY_TOL = 1e-12


class DegenerateGeometry(Exception):
    """Correspondence geometry does not determine a rotation."""


@dataclass(frozen=True, eq=False)
class CrossCovariance:
    """Weighted cross-covariance H = sum_i w_i t~_i s~_i^T, shape (3, 3)."""

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.shape != (3, 3):
            raise ValueError(f"cross-covariance must be 3x3, got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("cross-covariance must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)


def _cross_covariance(a, b, w):
    """sum_i w_i a_i b_i^T per trial: (B, N, 3) a, b and (B, N) w -> (B, 3, 3)."""
    return (a * w[:, :, None]).swapaxes(1, 2) @ b


def _kabsch_matrix(h):
    """Kabsch rotations of a stack of cross-covariances H, shape (B, 3, 3).

    Returns (r, ok). ok[b] is False where H_b is not finite or its two
    smallest singular values are both at or below 1e-12 ||H_b||_F; r_b is
    then meaningless. The other lanes hold U diag(1, 1, det(U V^T)) V^T.
    """
    flat = h.reshape(len(h), 9)
    ok = np.isfinite(flat).all(axis=1)
    if not ok.all():
        h = np.where(ok[:, None, None], h, 0.0)
        flat = h.reshape(len(h), 9)
    u, s, vt = np.linalg.svd(h)
    tol = DEGENERACY_TOL * np.sqrt(_dot(flat, flat))
    ok &= ~((s[:, 1] <= tol) & (s[:, 2] <= tol))
    # U diag(1, 1, -1) where det(U V^T) is not positive; the sign flip is
    # exact, so it is made in place on those lanes only.
    reflected = ~(np.linalg.det(u @ vt) > 0.0)
    if reflected.any():
        u[reflected, :, 2] *= -1.0
    return u @ vt, ok


def _kabsch_pose(source, target, w):
    """estimate_pose_kabsch per trial: (B, N, 3) clouds and (B, N) weights.

    Returns (r, t, ok) with r (B, 3, 3), t (B, 3) and the _kabsch_matrix mask.
    """
    source_centered, source_mean = _centered(source, w)
    target_centered, target_mean = _centered(target, w)
    r, ok = _kabsch_matrix(_cross_covariance(target_centered, source_centered, w))
    return r, target_mean - (r @ source_mean[:, :, None])[:, :, 0], ok


def cross_covariance(centered):
    """Build H = sum_i w_i target_centered_i source_centered_i^T.

    Parameters
    ----------
    centered : CenteredCorrespondences

    Returns
    -------
    CrossCovariance
    """
    s, t = centered.source_centered.points, centered.target_centered.points
    return CrossCovariance(_cross_covariance(t[None], s[None], centered.weights[None])[0])


def kabsch_rotation(cross_cov):
    """Globally optimal rotation from the cross-covariance SVD.

    With H = U S V^T, returns R = U diag(1, 1, det(U V^T)) V^T. The sign
    correction keeps det(R) = +1 when det(H) < 0 (reflection case).

    Parameters
    ----------
    cross_cov : CrossCovariance

    Returns
    -------
    Rotation

    Raises
    ------
    DegenerateGeometry
        If the two smallest singular values of H are both below
        1e-12 * ||H||_F; the caller decides the fallback.
    """
    r, ok = _kabsch_matrix(cross_cov.h[None])
    if not ok[0]:
        raise DegenerateGeometry(
            f"two smallest singular values of H at or below {DEGENERACY_TOL:.0e} ||H||_F; "
            "rotation not determined by the geometry"
        )
    return Rotation(r[0])


def estimate_pose_kabsch(correspondences):
    """Full closed-form pose: centered Kabsch rotation plus optimal translation.

    Parameters
    ----------
    correspondences : CorrespondenceSet

    Returns
    -------
    RigidTransform

    Raises
    ------
    DegenerateGeometry
        Propagated from kabsch_rotation.
    ValueError
        If the cross-covariance overflows.
    """
    corr = correspondences
    r, t, ok = _kabsch_pose(corr.source.points[None], corr.target.points[None], corr.weights[None])
    if not ok[0]:
        # Name the failure: CrossCovariance rejects an overflowed H,
        # kabsch_rotation a degenerate one.
        kabsch_rotation(cross_covariance(center(corr)))
    return RigidTransform(Rotation(r[0]), t[0])
