"""Foundational geometric types and centering utilities.

Points are float64 arrays of shape (N, 3), unitless, conventionally normalized
to unit-ball scale. All containers validate on construction and hold read-only
arrays afterwards, so instances are safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

# Orthogonality / determinant tolerance for valid rotations. Double-precision
# orthogonalization residuals sit near 1e-15; 1e-9 leaves margin without
# masking bugs.
ROTATION_TOL = 1e-9

# Centered clouds must have weighted mean below this, relative to cloud scale.
CENTERING_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered set of 3D points stored as a read-only (N, 3) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must have shape (N, 3), N >= 1; got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self):
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class Rotation:
    """Proper rotation matrix: ||m^T m - I||_F <= 1e-9 and det(m) = 1 +- 1e-9."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("rotation matrix must be finite")
        ortho_err = np.linalg.norm(m.T @ m - np.eye(3))
        if ortho_err > ROTATION_TOL:
            raise ValueError(f"matrix not orthogonal: ||m^T m - I||_F = {ortho_err:.3e}")
        det = np.linalg.det(m)
        if abs(det - 1.0) > ROTATION_TOL:
            raise ValueError(f"matrix not a proper rotation: det = {det!r}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls):
        return cls(np.eye(3))

    def apply(self, points):
        """Rotate points of shape (..., 3)."""
        return np.asarray(points, dtype=float) @ self.m.T


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation followed by translation: p -> R p + t."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        if not isinstance(self.rotation, Rotation):
            raise TypeError("rotation must be a Rotation")
        t = np.array(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must have shape (3,), got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls):
        return cls(Rotation.identity(), np.zeros(3))

    def apply(self, points):
        """Transform points of shape (..., 3)."""
        return np.asarray(points, dtype=float) @ self.rotation.m.T + self.translation


def _validated_weights(weights, n):
    if weights is None:
        weights = np.ones(n)
    w = np.array(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    # Strictly positive by contract; zero-weight pairs are dropped upstream.
    if not np.all(w > 0.0):
        raise ValueError("weights must be strictly positive")
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Paired source/target points with strictly positive per-pair weights."""

    source: PointCloud
    target: PointCloud
    weights: np.ndarray = None  # None = unit weights

    def __post_init__(self):
        if not isinstance(self.source, PointCloud) or not isinstance(self.target, PointCloud):
            raise TypeError("source and target must be PointCloud")
        if self.source.count != self.target.count:
            raise ValueError(
                f"source and target counts differ: {self.source.count} vs {self.target.count}"
            )
        object.__setattr__(self, "weights", _validated_weights(self.weights, self.source.count))

    @classmethod
    def from_arrays(cls, source_points, target_points, weights=None):
        return cls(PointCloud(source_points), PointCloud(target_points), weights)

    @property
    def count(self):
        return self.source.count


@dataclass(frozen=True, eq=False)
class CenteredCorrespondences:
    """Mean-subtracted correspondences plus the subtracted weighted means.

    The weighted mean of each centered cloud must vanish to 1e-12 relative to
    the cloud scale; this is what makes the closed-form translation and the
    cross-covariance formulas exact.
    """

    source_centered: PointCloud
    target_centered: PointCloud
    source_mean: np.ndarray
    target_mean: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not isinstance(self.source_centered, PointCloud) or not isinstance(
            self.target_centered, PointCloud
        ):
            raise TypeError("centered clouds must be PointCloud")
        n = self.source_centered.count
        if self.target_centered.count != n:
            raise ValueError("centered clouds must have equal counts")
        for name in ("source_mean", "target_mean"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3-vector")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        object.__setattr__(self, "weights", _validated_weights(self.weights, n))

        w = self.weights
        for cloud, mean, name in (
            (self.source_centered, self.source_mean, "source"),
            (self.target_centered, self.target_mean, "target"),
        ):
            pts = cloud.points
            _, residual_mean = _centered(pts, w)
            # Scale reference: centered radius or the subtracted mean itself,
            # whichever is larger (identical-point clouds center to ~eps*|p|).
            scale = max(np.linalg.norm(pts, axis=1).max(), np.linalg.norm(mean))
            if np.linalg.norm(residual_mean) > CENTERING_TOL * scale:
                raise ValueError(f"{name}_centered has nonzero weighted mean")

    @property
    def count(self):
        return self.source_centered.count


def _centered(points, w):
    """(points - mean, mean) with mean = sum(w_i p_i) / sum(w_i); plain arrays."""
    mean = (w @ points) / w.sum()
    return points - mean, mean


def center(correspondences):
    """Subtract weighted means from both clouds.

    Parameters
    ----------
    correspondences : CorrespondenceSet

    Returns
    -------
    CenteredCorrespondences
        Means are sum(w_i p_i) / sum(w_i); centered points are p_i - mean;
        weights pass through unchanged.
    """
    w = correspondences.weights
    source_centered, source_mean = _centered(correspondences.source.points, w)
    target_centered, target_mean = _centered(correspondences.target.points, w)
    return CenteredCorrespondences(
        PointCloud(source_centered), PointCloud(target_centered), source_mean, target_mean, w
    )


def optimal_translation(rotation, correspondences):
    """Optimal translation for a fixed rotation.

    Minimizes sum_i w_i ||R p_s,i + t - p_t,i||^2 over t; the argmin is
    t = mean_t - R mean_s with weighted means.

    Parameters
    ----------
    rotation : Rotation
    correspondences : CorrespondenceSet

    Returns
    -------
    ndarray, shape (3,)
    """
    w = correspondences.weights
    _, source_mean = _centered(correspondences.source.points, w)
    _, target_mean = _centered(correspondences.target.points, w)
    return target_mean - rotation.m @ source_mean


def weighted_cost(rotation, translation, correspondences):
    """Weighted squared correspondence cost sum_i w_i ||R p_s,i + t - p_t,i||^2."""
    moved = correspondences.source.points @ rotation.m.T + np.asarray(translation, dtype=float)
    residuals = moved - correspondences.target.points
    return float(correspondences.weights @ np.einsum("ij,ij->i", residuals, residuals))
