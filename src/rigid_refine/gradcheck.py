"""Jacobians of the refinement step and the SVD estimator, with finite
differences as the ground truth.

The refinement-step Jacobian is analytic: implicit differentiation of the
15x15 saddle-point system (the already-factorized matrix is reused against
one right-hand side per input), chained through the closed-form Gram-Schmidt
assembler and the closed-form translation. The SVD-estimator Jacobian is
finite-difference only, by design: near-equal singular values make the SVD
derivative blow up, and this module's job is to expose that, not hide it.

Inputs are flattened as (3N raw source coordinates, 3N raw target
coordinates, N weights), point-major; derivatives are taken with respect to
these raw (uncentered) coordinates, so mean subtraction is part of the
differentiated map. Output rows are vec R (column-major, 9), then t (3) where
applicable. The flat maps run a stack of input rows, (B, 7N), through the
array kernels at once; finite differences pass at most CHUNK_POINTS points.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import so3
from .core import CHUNK_POINTS, _centered
from .kabsch import CrossCovariance, _cross_covariance, _kabsch_matrix
from .kabsch import cross_covariance, kabsch_rotation
from .refiner import SingularSystem, _refine_steps, assemble_kkt, assemble_rotation, solve_kkt

# Minimum gap between adjacent singular values of the cross-covariance for
# the SVD-estimator finite differences to be meaningful (data is unit-ball
# scale by convention, so an absolute gate).
SVD_GAP_TOL = 1e-6

FD_STEP = 1e-6


class IllConditioned(Exception):
    """Cross-covariance spectrum too clustered for a stable SVD derivative."""


@dataclass(frozen=True, eq=False)
class Jacobian:
    """Dense matrix of partials: output rows by flattened-input columns."""

    matrix: np.ndarray
    n_points: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != 7 * self.n_points or m.shape[0] not in (9, 12):
            raise ValueError(f"expected (9 or 12, {7 * self.n_points}) matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("jacobian entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def rotation_rows(self):
        return self.matrix[:9]

    @property
    def translation_rows(self):
        if self.matrix.shape[0] < 12:
            raise ValueError("this jacobian has no translation rows")
        return self.matrix[9:12]

    @property
    def source_cols(self):
        return self.matrix[:, : 3 * self.n_points]

    @property
    def target_cols(self):
        return self.matrix[:, 3 * self.n_points : 6 * self.n_points]

    @property
    def weight_cols(self):
        return self.matrix[:, 6 * self.n_points :]


def flatten_inputs(centered):
    """Raw inputs of a centered problem as one flat vector (plus the count).

    Reconstructs the uncentered coordinates (centered + mean) so finite
    differences can perturb them freely without violating the centering
    invariant; re-centering happens inside the differentiated map.
    """
    src = centered.source_centered.points + centered.source_mean
    tgt = centered.target_centered.points + centered.target_mean
    return np.concatenate([src.ravel(), tgt.ravel(), centered.weights]), centered.count


def _split_rows(x, n):
    """Input rows (B, 7n) -> centered source, target (B, n, 3), weights, means."""
    x = np.asarray(x, dtype=float)
    w = x[:, 6 * n :]
    source, source_mean = _centered(x[:, : 3 * n].reshape(len(x), n, 3), w)
    target, target_mean = _centered(x[:, 3 * n : 6 * n].reshape(len(x), n, 3), w)
    return source, target, w, source_mean, target_mean


def refine_step_outputs(x, n, r_prev):
    """One refinement step as a row map, raw inputs (B, 7n) -> (vec R, t) (B, 12):
    the closed-form step `refine` runs, so its finite differences check the
    implicit-differentiation Jacobian of the 15x15 system independently."""
    r0, t0 = np.tile(r_prev.m, (len(x), 1, 1)), np.zeros((len(x), 3))
    steps = _refine_steps(*_split_rows(x, n), r0, t0, 1)
    if not steps.finite.all():
        raise ValueError("second-moment matrices S and F must be finite")
    if not steps.stepped.all():
        raise SingularSystem("the refinement step is singular at these inputs")
    r, t = steps.rotations[:, 1], steps.translations[:, 1]
    return np.concatenate([r.swapaxes(1, 2).reshape(-1, 9), t], axis=1)


def kabsch_outputs(x, n):
    """The SVD rotation as a row map: raw inputs (B, 7n) -> vec R, (B, 9)."""
    source, target, w, _, _ = _split_rows(x, n)
    h = _cross_covariance(target, source, w)
    r, ok = _kabsch_matrix(h)
    if not ok.all():
        kabsch_rotation(CrossCovariance(h[np.argmin(ok)]))  # names the first failed row
    return r.swapaxes(1, 2).reshape(-1, 9)


def finite_difference_jacobian(fn, x0, step=FD_STEP):
    """Central differences, one probe pair per input, fixed input ordering:
    fn maps (B, m) input rows to (B, k) outputs, and the probes x0 +- step e_i
    go to it as rows, at most 7 CHUNK_POINTS inputs (CHUNK_POINTS points) a call."""
    x0 = np.asarray(x0, dtype=float)
    per_slice = max(1, 7 * CHUNK_POINTS // (2 * x0.size))
    columns = []
    for lo in range(0, x0.size, per_slice):
        i = np.arange(lo, min(lo + per_slice, x0.size))
        probes = np.tile(x0, (2, i.size, 1))
        probes[:, i - lo, i] += [[step], [-step]]  # x - step is x + (-step), exactly
        y = np.asarray(fn(probes.reshape(2 * i.size, -1)), dtype=float)
        columns.append((y[: i.size] - y[i.size :]) / (2.0 * step))
    return np.concatenate(columns).T.copy()


def _assembler_jacobian(c):
    """9x9 derivative of vec(Gram-Schmidt output) w.r.t. vec(candidate).

    The block column for candidate column 3 is zero (the assembler ignores
    it). Denominators are >= 1 - 1e-9 on solver outputs, so no smoothing is
    needed.
    """
    v1, v2 = c[:, 0], c[:, 1]
    n1 = np.linalg.norm(v1)
    r1 = v1 / n1
    p1 = np.eye(3) - np.outer(r1, r1)
    u = p1 @ v2
    nu = np.linalg.norm(u)
    r2 = u / nu

    d_r1_v1 = p1 / n1
    d_u_r1 = -((r1 @ v2) * np.eye(3) + np.outer(r1, v2))
    d_r2_u = (np.eye(3) - np.outer(r2, r2)) / nu
    d_r2_v1 = d_r2_u @ d_u_r1 @ d_r1_v1
    d_r2_v2 = d_r2_u @ p1
    d_r3_v1 = -so3.skew(r2) @ d_r1_v1 + so3.skew(r1) @ d_r2_v1
    d_r3_v2 = so3.skew(r1) @ d_r2_v2

    zero = np.zeros((3, 3))
    return np.block([[d_r1_v1, zero, zero], [d_r2_v1, d_r2_v2, zero], [d_r3_v1, d_r3_v2, zero]])


def jacobian_refine_step(centered, r_prev):
    """Analytic Jacobian of one refinement step w.r.t. points and weights.

    Differentiates candidate and multipliers through the saddle-point system
    by the implicit function theorem (d z = K^{-1} d rhs with the system
    matrix K factorized once; only the cost blocks depend on the inputs,
    the constraint blocks are functions of r_prev alone), then chains
    through the assembler and the closed-form translation.

    Parameters
    ----------
    centered : CenteredCorrespondences
    r_prev : Rotation

    Returns
    -------
    Jacobian
        Shape (12, 7N): 9 rotation rows (column-major) plus 3 translation
        rows, against 3N source, 3N target, N weight columns.

    Raises
    ------
    SingularSystem
        Propagated from the underlying solve.
    """
    n = centered.count
    s_pts = centered.source_centered.points
    t_pts = centered.target_centered.points
    w = centered.weights
    total_w = w.sum()
    source_mean = centered.source_mean

    system = assemble_kkt(centered, r_prev)
    candidate, _ = solve_kkt(system)
    cand = candidate.m
    rotation = assemble_rotation(candidate)

    m = 7 * n
    eye = np.eye(3)
    # d(rhs)/d(input), one column per input. Thanks to the weighted centered
    # sums vanishing, mean-shift terms cancel and each input touches only its
    # own point's outer products:
    #   source (j,a): dS = w_j (e_a s_j^T + s_j e_a^T), dF = w_j t_j e_a^T
    #   target (j,a): dS = 0,                            dF = w_j e_a s_j^T
    #   weight  j   : dS = s_j s_j^T,                    dF = t_j s_j^T
    # and the stationarity rows get vec(dF - R' dS). With r_j = t_j - R' s_j
    # these are w_j (r_j e_a^T - R'[:, a] s_j^T), w_j e_a s_j^T and r_j s_j^T.
    # Blocks are indexed [point, input axis, column p, row q] so that the
    # trailing (p, q) flattens to the column-major vec index 3p + q.
    r_pts = t_pts - s_pts @ cand.T
    d_source = np.einsum("j,pa,jq->japq", w, eye, r_pts) - np.einsum(
        "j,qa,jp->japq", w, cand, s_pts
    )
    d_target = np.einsum("j,qa,jp->japq", w, eye, s_pts)
    d_weight = np.einsum("jq,jp->jpq", r_pts, s_pts)
    rhs = np.zeros((15, m))
    rhs[:9, : 3 * n] = d_source.reshape(3 * n, 9).T
    rhs[:9, 3 * n : 6 * n] = d_target.reshape(3 * n, 9).T
    rhs[:9, 6 * n :] = d_weight.reshape(n, 9).T

    factor = lu_factor(system.matrix())
    d_z = lu_solve(factor, rhs)
    d_vec_candidate = d_z[:9]

    d_vec_rotation = _assembler_jacobian(cand) @ d_vec_candidate

    # Translation rows: t = mean_t - R mean_s.
    d_source_mean = np.zeros((3, m))
    d_target_mean = np.zeros((3, m))
    mean_weights = np.einsum("j,ab->ajb", w / total_w, eye).reshape(3, 3 * n)
    d_source_mean[:, : 3 * n] = mean_weights
    d_target_mean[:, 3 * n : 6 * n] = mean_weights
    d_source_mean[:, 6 * n :] = s_pts.T / total_w
    d_target_mean[:, 6 * n :] = t_pts.T / total_w

    # (dR) mean_s, exploiting column-major layout: rows 3c..3c+2 hold dR[:, c].
    d_rot_mean = (
        d_vec_rotation[0:3] * source_mean[0]
        + d_vec_rotation[3:6] * source_mean[1]
        + d_vec_rotation[6:9] * source_mean[2]
    )
    d_translation = d_target_mean - d_rot_mean - rotation.m @ d_source_mean

    return Jacobian(np.vstack([d_vec_rotation, d_translation]), n)


def jacobian_kabsch(centered, step=FD_STEP):
    """Finite-difference Jacobian of the SVD rotation w.r.t. points and weights.

    Deliberately not analytic: when the cross-covariance has well-separated
    singular values the central differences are stable (step-halving changes
    them by <= 1e-3 relative), and when the spectrum clusters the derivative
    genuinely degrades, which the gate reports rather than hides.

    Parameters
    ----------
    centered : CenteredCorrespondences
    step : float
        Central-difference step on unit-ball-normalized data.

    Returns
    -------
    Jacobian
        Shape (9, 7N); rotation rows only.

    Raises
    ------
    IllConditioned
        If either adjacent singular-value gap of the cross-covariance is
        below 1e-6.
    DegenerateGeometry
        Propagated when the geometry does not determine a rotation.
    """
    cross_cov = cross_covariance(centered)
    s = np.linalg.svd(cross_cov.h, compute_uv=False)
    gap = min(s[0] - s[1], s[1] - s[2])
    if gap < SVD_GAP_TOL:
        raise IllConditioned(
            f"cross-covariance singular-value gap {gap:.3e} below {SVD_GAP_TOL:.0e}; "
            "SVD derivative is unreliable here"
        )
    kabsch_rotation(cross_cov)  # propagate degeneracy before probing
    x0, n = flatten_inputs(centered)
    return Jacobian(finite_difference_jacobian(lambda x: kabsch_outputs(x, n), x0, step), n)


def max_relative_error(j_test, j_ref, rel=1e-5, floor=1e-8):
    """Scaled worst-case disagreement between two Jacobians.

    Returns max |a - b| / (|b| + floor/rel); a value <= rel is equivalent to
    |a - b| <= rel |b| + floor elementwise (relative tolerance with an
    absolute floor for near-zero entries).
    """
    a = np.asarray(getattr(j_test, "matrix", j_test), dtype=float)
    b = np.asarray(getattr(j_ref, "matrix", j_ref), dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b) / (np.abs(b) + floor / rel)))
