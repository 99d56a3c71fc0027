"""Failure-mode analysis: unconstrained comparison solution, divergence
summaries and their geometric predictors, constraint-qualification checks, and
assembler singularity margins."""

from dataclasses import dataclass

import numpy as np

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


def normalized_det(g):
    """Scale-free conditioning measure det(G) / ||G||_F^3."""
    norm = np.linalg.norm(g)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.det(g) / norm**3)


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
    t = centered.target_centered.points
    w = centered.weights
    g = _cross_covariance(t, t, w)
    g = (g + g.T) / 2.0  # symmetrize away accumulation-order rounding
    f = _cross_covariance(t, centered.source_centered.points, w)
    det_g = float(np.linalg.det(g))
    if normalized_det(g) <= NEAR_SINGULAR_TOL:
        raise NearSingularG(
            f"normalized det(G) = {normalized_det(g):.3e} at or below {NEAR_SINGULAR_TOL:.0e}",
            g=g,
            f=f,
            det_g=det_g,
        )
    r_u = np.linalg.solve(g, f)
    return UnconstrainedSolution(r_u, g, f, det_g)


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
    r_k = trace.poses[0].rotation.m
    per_iteration = tuple(
        float(np.linalg.norm(p.rotation.m - r_k)) for p in trace.poses[1:]
    )
    divergence = sum(per_iteration)

    try:
        sol = unconstrained_solution(trace.centered)
        col_dist = float(np.linalg.norm(sol.r_u - r_k, axis=0).max())
        col_angle = float(
            np.degrees(
                max(_folded_angle(sol.r_u[:, j], r_k[:, j]) for j in range(3))
            )
        )
        g = sol.g
        det_g = sol.det_g
    except NearSingularG as exc:
        col_dist = None
        col_angle = None
        g = exc.g
        det_g = exc.det_g

    return DivergenceReport(
        divergence=divergence,
        per_iteration_chordal=per_iteration,
        max_col_distance=col_dist,
        max_col_angle_deg=col_angle,
        det_g=det_g,
        det_g_normalized=normalized_det(g),
    )


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
    """Angle between the lines spanned by u and v, in [0, pi/2] radians.

    Same value as arccos(|u.v|/(||u|| ||v||)) but evaluated in atan2 form,
    which resolves angles below ~1e-8 where arccos quantizes to 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    if u @ v < 0.0:
        v = -v
    return float(2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v)))


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
    return float(norms.min()), _folded_angle(c[:, 0], c[:, 1])
