"""Failure-mode analysis: unconstrained comparison solution, divergence
summaries and their geometric predictors, constraint-qualification checks, and
assembler singularity margins.

The divergence and predictor math (G, F, r_u, det(G), column distances and
angles) is written once, in private kernels with a leading trial axis; a
near-singular G is a False lane of a mask there. `unconstrained_solution`,
`normalized_det` and `divergence_report` run them at B = 1. See core for the
conventions and the matmul-dot rule that keeps each lane bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .core import _dot, _scalar_pow
from .kabsch import _cross_covariance
from .refiner import constraint_jacobian

# det(G) / ||G||_F^3 at or below this means the unconstrained normal equations
# are too close to singular to solve meaningfully.
NEAR_SINGULAR_TOL = 1e-10

# Numerical-rank tolerance for the constraint-gradient stack, relative to the
# largest singular value.
RANK_TOL = 1e-9

# Frozen calibration constants for the divergence envelope, generated by
# tools/calibrate_divergence.py (seed and raw statistics recorded there).
# Every well-conditioned trial must satisfy
#   divergence <= ALPHA * max_col_distance + BETA
# and the sweep's 95th-percentile divergence must stay under P95_BASELINE.
DIVERGENCE_ENVELOPE_ALPHA = 1e-12
DIVERGENCE_ENVELOPE_BETA = 1e-13
DIVERGENCE_P95_BASELINE = 1e-13


class NearSingularG(Exception):
    """Unconstrained Gram matrix numerically singular; carries the facts."""

    def __init__(self, message, g, f, det_g):
        super().__init__(message)
        self.g = g
        self.f = f
        self.det_g = det_g


def _normalized_dets(g):
    """(det(G) / ||G||_F^3, det(G)) per trial for a (B, 3, 3) stack; the
    ratio is 0 where G = 0."""
    flat = g.reshape(len(g), -1)
    norm = np.sqrt(_dot(flat, flat))
    cubes = _scalar_pow(norm, 3)
    det = np.linalg.det(g)
    return np.divide(det, cubes, out=np.zeros(len(g)), where=norm != 0.0), det


def normalized_det(g):
    """Scale-free conditioning measure det(G) / ||G||_F^3."""
    ratio, _ = _normalized_dets(np.asarray(g, dtype=float)[None])
    return float(ratio[0])


@dataclass(frozen=True, eq=False)
class UnconstrainedSolution:
    """Minimizer of the correspondence cost with no rotation constraints.

    r_u solves G r_u = F columnwise, with G = sum w t~ t~^T (symmetric) and
    F = sum w t~ s~^T; its columns live in the same frame as the closed-form
    SVD rotation's columns, so the two are directly comparable.
    """

    r_u: np.ndarray
    g: np.ndarray
    f: np.ndarray
    det_g: float

    def __post_init__(self):
        for name in ("r_u", "g", "f"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3, 3) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3x3 matrix")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if np.abs(self.g - self.g.T).max() > 1e-12 * max(np.linalg.norm(self.g), 1.0):
            raise ValueError("g must be symmetric")


@dataclass(frozen=True, eq=False)
class _Unconstrained:
    """The unconstrained solution per trial: r_u, g, f (B, 3, 3), det_g and
    det_g_normalized (B,), and solved (B,), False where G is near singular
    (r_u is then a placeholder)."""

    r_u: np.ndarray
    g: np.ndarray
    f: np.ndarray
    det_g: np.ndarray
    det_g_normalized: np.ndarray
    solved: np.ndarray


def _unconstrained(target, source, w):
    """unconstrained_solution for centered (B, N, 3) clouds and (B, N) weights."""
    g = _cross_covariance(target, target, w)
    g = (g + g.swapaxes(1, 2)) / 2.0  # symmetrize away accumulation-order rounding
    f = _cross_covariance(target, source, w)
    det_g_normalized, det_g = _normalized_dets(g)
    solved = det_g_normalized > NEAR_SINGULAR_TOL
    safe_g = g if solved.all() else np.where(solved[:, None, None], g, np.eye(3))
    return _Unconstrained(np.linalg.solve(safe_g, f), g, f, det_g, det_g_normalized, solved)


def unconstrained_solution(centered):
    """Solve the unconstrained normal equations G r_u = F.

    Parameters
    ----------
    centered : CenteredCorrespondences

    Returns
    -------
    UnconstrainedSolution

    Raises
    ------
    NearSingularG
        When det(G) / ||G||_F^3 <= 1e-10; r_u is omitted but the exception
        carries g, f, det_g so conditioning can still be reported.
    """
    sol = _unconstrained(
        centered.target_centered.points[None],
        centered.source_centered.points[None],
        centered.weights[None],
    )
    g, f, det_g = sol.g[0], sol.f[0], float(sol.det_g[0])
    if not sol.solved[0]:
        raise NearSingularG(
            f"normalized det(G) = {sol.det_g_normalized[0]:.3e} "
            f"at or below {NEAR_SINGULAR_TOL:.0e}",
            g=g,
            f=f,
            det_g=det_g,
        )
    return UnconstrainedSolution(sol.r_u[0], g, f, det_g)


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    """Cumulative chordal distance from the SVD estimate, plus predictors.

    max_col_distance / max_col_angle_deg compare the unconstrained solution's
    columns to the SVD rotation's columns; both are None when G was near
    singular (divergence itself is still computed).
    """

    divergence: float
    per_iteration_chordal: tuple
    max_col_distance: object
    max_col_angle_deg: object
    det_g: float
    det_g_normalized: float

    def __post_init__(self):
        if self.divergence < 0.0:
            raise ValueError("divergence must be nonnegative")
        if abs(self.divergence - sum(self.per_iteration_chordal)) > 1e-12:
            raise ValueError("divergence must equal the sum of per-iteration entries")


def _divergence(rotations, target, source, w):
    """divergence_report per trial, as a dict of DivergenceReport fields.

    rotations (B, n + 1, 3, 3) hold R_K at index 0 and the refinement outputs
    after it; target and source are the centered (B, N, 3) clouds the steps
    were solved on, w their (B, N) weights. Every value is an array with the
    trial axis first; the column predictors are NaN where G is near singular.
    """
    r_k = rotations[:, 0]
    diff = rotations[:, 1:] - r_k[:, None]
    flat = diff.reshape(len(diff), -1, 9)
    per_iteration = np.sqrt(_dot(flat, flat))
    # Summed step by step, as Python's sum() adds the per-step floats.
    divergence = per_iteration[:, 0]
    for k in range(1, per_iteration.shape[1]):
        divergence = divergence + per_iteration[:, k]

    sol = _unconstrained(target, source, w)
    # A near-singular lane compares R_K with itself, so no placeholder
    # reaches the divisions; its predictors are NaN below.
    r_u = np.where(sol.solved[:, None, None], sol.r_u, r_k)
    col_diff = r_u - r_k
    col_dist = np.sqrt((col_diff * col_diff).sum(axis=1)).max(axis=1)
    # Rows of the transposes are the columns compared.
    col_angle = np.degrees(_folded_angle(r_u.swapaxes(1, 2), r_k.swapaxes(1, 2)).max(axis=1))
    return {
        "divergence": divergence,
        "per_iteration_chordal": per_iteration,
        "max_col_distance": np.where(sol.solved, col_dist, np.nan),
        "max_col_angle_deg": np.where(sol.solved, col_angle, np.nan),
        "det_g": sol.det_g,
        "det_g_normalized": sol.det_g_normalized,
    }


def divergence_report(trace):
    """Summarize how far refinement drifted from the pose it started from.

    Divergence is sum_i ||R_i - R_K||_F over the refinement outputs (trace
    poses after index 0), with R_K the rotation of trace.poses[0], the
    closed-form SVD pose when refine was started from it. The predictors
    come from trace.centered, the problem the trace was refined on.

    Parameters
    ----------
    trace : RefinementTrace

    Returns
    -------
    DivergenceReport
    """
    cc = trace.centered
    stats = _divergence(
        np.array([pose.rotation.m for pose in trace.poses])[None],
        cc.target_centered.points[None],
        cc.source_centered.points[None],
        cc.weights[None],
    )
    lane = {name: value[0].tolist() for name, value in stats.items()}
    for name in ("max_col_distance", "max_col_angle_deg"):
        if np.isnan(lane[name]):
            lane[name] = None
    lane["per_iteration_chordal"] = tuple(lane["per_iteration_chordal"])
    return DivergenceReport(**lane)


def licq_check(r_prev):
    """Numerical rank of the 9x6 stacked constraint-gradient matrix.

    Returns 6 for every valid rotation (the six orthonormality constraint
    gradients are linearly independent there). Accepts a Rotation or a raw
    3x3 array so degenerate matrices can be probed too.

    Parameters
    ----------
    r_prev : Rotation or ndarray (3, 3)

    Returns
    -------
    int
        Count of singular values above 1e-9 relative to the largest.
    """
    m = np.asarray(getattr(r_prev, "m", r_prev), dtype=float)
    stack = constraint_jacobian(m)
    s = np.linalg.svd(stack, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def determinant_redundancy_residual(r, r_prev):
    """Gap between the linearized determinant constraint and the constraint
    combination it is redundant with.

    The determinant constraint linearized at r_prev (triple-product expansion:
    gradients are the cross products of r_prev's other two columns, constant
    term det(r_prev) - 1) equals half the sum of the three linearized
    column-norm constraints whenever r_prev is a rotation. Returns the
    absolute difference of the two sides evaluated at r.

    Parameters
    ----------
    r : Rotation or ndarray (3, 3)
        Evaluation point.
    r_prev : Rotation or ndarray (3, 3)
        Linearization point.

    Returns
    -------
    float
    """
    b = np.asarray(getattr(r, "m", r), dtype=float)
    a = np.asarray(getattr(r_prev, "m", r_prev), dtype=float)
    a1, a2, a3 = a[:, 0], a[:, 1], a[:, 2]
    b1, b2, b3 = b[:, 0], b[:, 1], b[:, 2]

    det_prev = float(a1 @ np.cross(a2, a3))
    det_lin = (
        det_prev
        - 1.0
        + np.cross(a2, a3) @ (b1 - a1)
        + np.cross(a3, a1) @ (b2 - a2)
        + np.cross(a1, a2) @ (b3 - a3)
    )
    norm_lin_sum = sum(
        (a[:, i] @ a[:, i] - 1.0) + 2.0 * (a[:, i] @ (b[:, i] - a[:, i])) for i in range(3)
    )
    return float(abs(det_lin - 0.5 * norm_lin_sum))


def _folded_angle(u, v):
    """Angle between the lines spanned by u and v, in [0, pi/2] radians, over
    the last axis of (..., 3) arrays.

    Same value as arccos(|u.v|/(||u|| ||v||)) but evaluated in atan2 form,
    which resolves angles below ~1e-8 where arccos quantizes to 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.sqrt(_dot(u, u))[..., None]
    v = v / np.sqrt(_dot(v, v))[..., None]
    v = np.where((_dot(u, v) < 0.0)[..., None], -v, v)
    minus, plus = u - v, u + v
    return 2.0 * np.arctan2(np.sqrt(_dot(minus, minus)), np.sqrt(_dot(plus, plus)))


def singularity_margin(candidate):
    """Assembler safety margins of a candidate matrix.

    Returns (min column norm, angle in radians between columns 1 and 2).
    Both are proved bounded away from zero for solver outputs; this reports
    the measured margins so runtime assertions and tests can consume them.

    Parameters
    ----------
    candidate : CandidateMatrix

    Returns
    -------
    (float, float)
    """
    c = candidate.m
    norms = np.linalg.norm(c, axis=0)
    n1, n2 = norms[0], norms[1]
    if n1 < np.finfo(float).tiny or n2 < np.finfo(float).tiny:
        return float(norms.min()), 0.0  # a zero column is maximally collinear
    return float(norms.min()), float(_folded_angle(c[:, 0], c[:, 1]))
