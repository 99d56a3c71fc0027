"""Foundational geometric types and centering utilities.

Points are float64 arrays of shape (N, 3), unitless, conventionally normalized
to unit-ball scale. All containers validate on construction and hold read-only
arrays afterwards, so instances are safe to share across threads.

Array kernels. The private `_`-prefixed functions of this package work on
plain arrays with a leading trial axis: B problems of N points each are
(B, N, 3) points and (B, N) weights, and give (B, 3) means, (B, 3, 3)
matrices and (B,) scalars. A single problem is B = 1; the public functions
validate their containers, call the kernels with B = 1 and raise where a
kernel reports a failed lane in a mask. Each lane of a stack is computed
bit for bit as it would be alone, so stacking trials never changes a result:
stacked matmul, svd, eigh, det and solve loop over the same per-matrix
routines, and the few reductions over short axes are written so that their
summation order does not depend on B. In particular a dot product over the
last axis is taken by `_dot`, a (1, k) @ (k, 1) matmul that numpy hands to
BLAS ddot as it does `x @ x` and `np.linalg.norm(x)`; an einsum or sum over
that axis rounds differently in about a third of cases. Likewise a power of a
float64 scalar is taken element by element (`_scalar_pow`).
"""

from dataclasses import dataclass

import numpy as np

# Orthogonality / determinant tolerance for valid rotations. Double-precision
# orthogonalization residuals sit near 1e-15; 1e-9 leaves margin without
# masking bugs.
ROTATION_TOL = 1e-9

# Centered clouds must have weighted mean below this, relative to cloud scale.
CENTERING_TOL = 1e-12

# The chunk runner and the finite-difference probes stack at most this many
# points per cloud (B * N) in one array-kernel call, so its arrays stay within
# a few MiB however many trials or probes there are.
CHUNK_POINTS = 1 << 15


def _frozen(value, name, shape, dtype=float):
    """A read-only copy of value as a `dtype` array of `shape`, every entry
    finite; the one validator behind every container's array fields.

    A None in shape stands for any length >= 1. Raises ValueError naming
    `name` for a wrong shape or a non-finite entry. The copy leaves the
    caller's array writable. Entries are checked as floats, before the cast
    to dtype, so that a NaN does not pass as a True of a bool mask.
    """
    a = np.array(value, dtype=float)
    if a.ndim != len(shape) or any(
        n != size and (size is not None or n < 1) for n, size in zip(a.shape, shape)
    ):
        want = str(shape).replace("None", "N")
        raise ValueError(f"{name} must have shape {want}, got {a.shape}")
    _check_finite(a, name)
    a = a.astype(dtype, copy=False)
    a.setflags(write=False)
    return a


def _check_finite(a, name):
    """Raise the ValueError of _frozen unless every entry of a is finite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")


def _check_rotations(m):
    """Raise the ValueError of Rotation for the first of the (..., 3, 3)
    finite matrices m that is not a proper rotation."""
    ortho_err = np.linalg.norm(m.swapaxes(-1, -2) @ m - np.eye(3), axis=(-2, -1))
    bad = ortho_err > ROTATION_TOL
    if bad.any():
        raise ValueError(f"matrix not orthogonal: ||m^T m - I||_F = {ortho_err[bad].flat[0]:.3e}")
    det = np.linalg.det(m)
    bad = np.abs(det - 1.0) > ROTATION_TOL
    if bad.any():
        raise ValueError(f"matrix not a proper rotation: det = {det[bad].flat[0]!r}")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered set of 3D points stored as a read-only (N, 3) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points, "points", (None, 3)))

    @property
    def count(self):
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class Rotation:
    """Proper rotation matrix: ||m^T m - I||_F <= 1e-9 and det(m) = 1 +- 1e-9."""

    m: np.ndarray

    def __post_init__(self):
        m = _frozen(self.m, "rotation matrix", (3, 3))
        _check_rotations(m)
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
        object.__setattr__(self, "translation", _frozen(self.translation, "translation", (3,)))

    @classmethod
    def identity(cls):
        return cls(Rotation.identity(), np.zeros(3))

    def apply(self, points):
        """Transform points of shape (..., 3)."""
        return np.asarray(points, dtype=float) @ self.rotation.m.T + self.translation


def _validated_weights(weights, n):
    if weights is None:
        weights = np.ones(n)
    w = _frozen(weights, "weights", (n,))
    # Strictly positive by contract; zero-weight pairs are dropped upstream.
    if not np.all(w > 0.0):
        raise ValueError("weights must be strictly positive")
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
            object.__setattr__(self, name, _frozen(getattr(self, name), name, (3,)))
        object.__setattr__(self, "weights", _validated_weights(self.weights, n))

        w = self.weights
        for cloud, mean, name in (
            (self.source_centered, self.source_mean, "source"),
            (self.target_centered, self.target_mean, "target"),
        ):
            pts = cloud.points
            _, residual_mean = _centered(pts[None], w[None])
            # Scale reference: centered radius or the subtracted mean itself,
            # whichever is larger (identical-point clouds center to ~eps*|p|).
            scale = max(np.linalg.norm(pts, axis=1).max(), np.linalg.norm(mean))
            if np.linalg.norm(residual_mean[0]) > CENTERING_TOL * scale:
                raise ValueError(f"{name}_centered has nonzero weighted mean")

    @property
    def count(self):
        return self.source_centered.count


def _dot(x, y):
    """Dot products over the last axis: (..., k) and (..., k) -> (...).

    A (1, k) @ (k, 1) matmul per row, which numpy computes with BLAS ddot,
    bit-identical to x_b @ y_b for every row b (see the module docstring).
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _scalar_pow(x, k):
    """x ** k elementwise, as a float64 scalar computes it (libm pow).

    numpy's array power can take a SIMD pow, or a multiply for k = 2, that
    differs from the scalar result in the last bit, so the array is raised
    element by element.
    """
    return np.array([v**k for v in x.ravel().tolist()]).reshape(x.shape)


def _centered(points, w):
    """(points - mean, mean) per trial, mean = sum(w_i p_i) / sum(w_i).

    points (B, N, 3) and w (B, N) give centered points (B, N, 3) and means
    (B, 3). A mean past the float range is inf or NaN, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (w[:, None, :] @ points)[:, 0, :] / w.sum(axis=1)[:, None]
        return points - mean[:, None, :], mean


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
    source_centered, source_mean = _centered(correspondences.source.points[None], w[None])
    target_centered, target_mean = _centered(correspondences.target.points[None], w[None])
    return CenteredCorrespondences(
        PointCloud(source_centered[0]),
        PointCloud(target_centered[0]),
        source_mean[0],
        target_mean[0],
        w,
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

    Raises
    ------
    ValueError
        If the weighted means or t overflow the float range.
    """
    w = correspondences.weights[None]
    _, source_mean = _centered(correspondences.source.points[None], w)
    _, target_mean = _centered(correspondences.target.points[None], w)
    with np.errstate(over="ignore", invalid="ignore"):
        t = target_mean[0] - rotation.m @ source_mean[0]
    if not np.isfinite(t).all():
        raise ValueError("optimal translation overflows the float range")
    return t


def weighted_cost(rotation, translation, correspondences):
    """Weighted squared correspondence cost sum_i w_i ||R p_s,i + t - p_t,i||^2."""
    moved = correspondences.source.points @ rotation.m.T + np.asarray(translation, dtype=float)
    residuals = moved - correspondences.target.points
    return float(correspondences.weights @ np.einsum("ij,ij->i", residuals, residuals))
