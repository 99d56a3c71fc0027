"""Closed-form weighted rotation estimate via SVD of the cross-covariance.

The returned rotation is the global minimizer of the weighted correspondence
cost over SO(3), including the reflection-corrected case where the plain
orthogonal Procrustes optimum would have determinant -1.
"""

from dataclasses import dataclass

import numpy as np

from .core import Rotation, RigidTransform, _centered

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
    """sum_i w_i a_i b_i^T for (N, 3) arrays a, b and weights w, shape (3, 3)."""
    return (a * w[:, None]).T @ b


def _kabsch_matrix(h):
    """kabsch_rotation on a plain 3x3 array (ValueError if H is not finite)."""
    if not np.all(np.isfinite(h)):
        raise ValueError("cross-covariance must be finite")
    u, s, vt = np.linalg.svd(h)
    tol = DEGENERACY_TOL * np.linalg.norm(h)
    if s[1] <= tol and s[2] <= tol:
        raise DegenerateGeometry(
            f"two smallest singular values of H ({s[1]:.3e}, {s[2]:.3e}) below "
            f"tolerance {tol:.3e}; rotation not determined by the geometry"
        )
    d = 1.0 if np.linalg.det(u @ vt) > 0.0 else -1.0
    return (u * np.array([1.0, 1.0, d])) @ vt


def _kabsch_pose(source, target, w):
    """estimate_pose_kabsch on plain (N, 3) arrays and weights: (R, t) arrays."""
    source_centered, source_mean = _centered(source, w)
    target_centered, target_mean = _centered(target, w)
    r = _kabsch_matrix(_cross_covariance(target_centered, source_centered, w))
    return r, target_mean - r @ source_mean


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
    return CrossCovariance(_cross_covariance(t, s, centered.weights))


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
    return Rotation(_kabsch_matrix(cross_cov.h))


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
    r, t = _kabsch_pose(corr.source.points, corr.target.points, corr.weights)
    return RigidTransform(Rotation(r), t)
