"""Iterative pose refinement via linearized orthogonality constraints.

Each refinement step minimizes the weighted correspondence cost over all 3x3
matrices subject to the six orthonormality constraints linearized at the
previous rotation estimate. The stationarity conditions form a 15x15
saddle-point (KKT) system in (vec R', lambda); the solved candidate matrix is
re-projected onto SO(3) by a Gram-Schmidt assembler and the translation is
recomputed in closed form.

`refine` solves that system in closed form, in the tangent space of the
previous rotation. With S = sum_i w_i s~_i s~_i^T = V diag(d) V^T (eigenvalues
ascending) and F = sum_i w_i t~_i s~_i^T, the linearized constraints force
R' = R_prev (I + A) with A antisymmetric, and stationarity
R' S + R_prev Lambda = F (Lambda symmetric) splits, with
M' = V^T R_prev^T F V, into

- A' = V^T A V with A'_ij = (M'_ij - M'_ji) / (d_i + d_j), and
- Lambda' = V^T Lambda V = sym(M') - diag(d) - (A' diag(d) - diag(d) A') / 2.

The multipliers are lambda_k = Lambda_ij for i != j and Lambda_ii / 2 for
i == j, at the k-th pair of CONSTRAINT_PAIRS. S, F and the eigenbasis do not
depend on R_prev, so a step costs a few 3x3 products. The closed form divides
by d_i + d_j, never by d_i alone, so it stays accurate when S is nearly rank
2 (thin or planar sources); the equivalent Sylvester form in S^-1 does not.
This is the only solver for the step: the 15x15 system is assembled and
LU-solved literally only in tests/kkt_oracle.py, the oracle the closed form is
tested against, and the step Jacobian (gradcheck) differentiates the closed
form through `_tangent_increment`.

The step kernels (`_step_factors`, `_tangent_step`, `_gram_schmidt`,
`_refine_steps`) carry a leading trial axis, so one call refines a whole
stack of trials; a step that falls back is a False entry in a mask, not an
exception (see core for the conventions and the matmul-dot rule that keeps
each lane bit-identical to a lone run). `refine` and `assemble_rotation` run
them at B = 1 and build the trace containers.

Conventions (fixed across the package):

- vec() is column-major: vec(M)[3*n + m] = M[m, n].
- The six constraints are indexed k = 0..5 over the column-wise upper
  triangle of M^T M - I: (0,0), (0,1), (1,1), (0,2), (1,2), (2,2).
"""

from dataclasses import dataclass

import numpy as np

from .core import CenteredCorrespondences, Rotation, RigidTransform, _dot, _frozen, center
from .kabsch import _cross_covariance

# Condition estimate above this raises SingularSystem: degenerate source
# geometry interacting with the constraints. The closed form compares it with
# the spread d_2 / (d_0 + d_1) of the eigenvalue pair sums it divides by.
CONDITION_LIMIT = 1e12

# Gram-Schmidt denominators at or below this raise CollinearColumns.
ASSEMBLER_NORM_FLOOR = 1e-9

# Solver outputs must have column norms >= 1 - this (lower bound holds
# whenever the linearization point is a valid rotation).
COLUMN_NORM_SLACK = 1e-9

DEFAULT_REFINEMENTS = 5

CONSTRAINT_PAIRS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))


class SingularSystem(Exception):
    """The step is not solvable: the spread of the eigenvalues of S exceeds
    the solvable limit, or the step returned a candidate that violates the
    column-norm lower bound. The closed-form kernels report it as a False
    lane of their mask: refine falls back there and jacobian_refine_step
    raises it."""


class CollinearColumns(Exception):
    """Assembler input columns (nearly) collinear; indicates an upstream bug."""


def _symmetric_basis(i, j):
    e = np.zeros((3, 3))
    e[i, j] += 1.0
    e[j, i] += 1.0
    return _frozen(e, "basis", (3, 3))


# E^S_k = e_i e_j^T + e_j e_i^T for the k-th pair of CONSTRAINT_PAIRS, read-only.
CONSTRAINT_BASES = tuple(_symmetric_basis(i, j) for i, j in CONSTRAINT_PAIRS)

# lambda_k is entry (i, j) of the symmetric Lambda = sum_k lambda_k E^S_k
# for the k-th pair, halved on the diagonal (Lambda_ij for i != j,
# Lambda_ii / 2).
_PAIR_ROWS, _PAIR_COLS = (np.array(axis) for axis in zip(*CONSTRAINT_PAIRS))
_PAIR_SCALE = np.where(_PAIR_ROWS == _PAIR_COLS, 0.5, 1.0)
_DIAGONAL = np.arange(3)


def orthogonality_constraint(m, k):
    """c_k(M) = (M^T M - I)[i, j] for the k-th upper-triangle pair."""
    i, j = CONSTRAINT_PAIRS[k]
    return float((m.T @ m - np.eye(3))[i, j])


def linearized_constraint(m, r_prev, k):
    """First-order expansion of the k-th orthogonality constraint.

    Returns c_k(R_prev) + tr(E^S_k R_prev^T (M - R_prev)). The first term is
    zero (to rotation tolerance) whenever r_prev is a valid Rotation.

    Parameters
    ----------
    m : ndarray, shape (3, 3)
        Evaluation point (need not be a rotation).
    r_prev : Rotation
        Linearization point.
    k : int
        Constraint index in 0..5.
    """
    m = np.asarray(m, dtype=float)
    rp = r_prev.m
    return orthogonality_constraint(rp, k) + float(np.trace(CONSTRAINT_BASES[k] @ rp.T @ (m - rp)))


@dataclass(frozen=True, eq=False)
class CandidateMatrix:
    """Unconstrained-step output: a 3x3 matrix, not necessarily a rotation.

    When produced by refine's closed-form step at a valid linearization
    point, every column has norm >= 1 - 1e-9 and columns 1, 2 are not
    collinear; hand-constructed instances need not satisfy that, so it is
    checked at the solver, not here.
    """

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen(self.m, "candidate", (3, 3)))


def constraint_jacobian(m):
    """9x6 matrix whose column k is vec(M E^S_k), column-major vec.

    For M = R_prev these are the gradients of the linearized constraints with
    respect to vec(R); the same matrix doubles as the constraint-qualification
    stack checked by the diagnostics module.
    """
    m = np.asarray(m, dtype=float)
    cols = [(m @ basis).reshape(9, order="F") for basis in CONSTRAINT_BASES]
    return np.column_stack(cols)


@dataclass(frozen=True, eq=False)
class _StepFactors:
    """The parts of a refinement step that do not depend on R_prev, per
    trial, with S = V diag(d) V^T and d ascending.

    solvable[b] is False where S or F is not finite (finite[b] False too) or
    where the spectrum of S makes the step singular; such a lane falls back
    at every step and its other fields are placeholders.
    """

    v: np.ndarray
    f_v: np.ndarray  # F V
    pair_sums: np.ndarray  # d_i + d_j, with a unit diagonal
    half_gaps: np.ndarray  # (d_j - d_i) / 2
    diag_d: np.ndarray
    finite: np.ndarray
    solvable: np.ndarray


def _step_factors(source, target, w):
    """The eigendecomposition of S and F V for centered (B, N, 3) clouds and
    (B, N) weights, as _StepFactors.

    A lane is not solvable (SingularSystem in closed form) if not
    d_0 + d_1 > 0, or d_2 > CONDITION_LIMIT * (d_0 + d_1): the smallest pair
    sum the closed form divides by is zero, negative, NaN or below 1e-12 of
    the largest eigenvalue (collinear or coincident sources).
    """
    # An overflowed S or F is a lane that is not finite, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        s_mat = _cross_covariance(source, source, w)
        f_mat = _cross_covariance(target, source, w)
    finite = np.isfinite(s_mat).all(axis=(1, 2)) & np.isfinite(f_mat).all(axis=(1, 2))
    if not finite.all():
        s_mat = np.where(finite[:, None, None], s_mat, np.eye(3))
        f_mat = np.where(finite[:, None, None], f_mat, 0.0)
    d, v = np.linalg.eigh(s_mat)
    smallest_pair = d[:, 0] + d[:, 1]
    # Divided, not multiplied: CONDITION_LIMIT * (d_0 + d_1) overflows at
    # huge input scales.
    solvable = finite & (smallest_pair > 0.0) & ~(d[:, 2] / CONDITION_LIMIT > smallest_pair)
    pair_sums = d[:, :, None] + d[:, None, :]
    pair_sums[:, _DIAGONAL, _DIAGONAL] = 1.0
    if not solvable.all():
        pair_sums[~solvable] = 1.0
    half_gaps = 0.5 * (d[:, None, :] - d[:, :, None])
    diag_d = np.zeros_like(v)
    diag_d[:, _DIAGONAL, _DIAGONAL] = d
    return _StepFactors(v, f_mat @ v, pair_sums, half_gaps, diag_d, finite, solvable)


def _tangent_increment(r_prev, f_v, factors):
    """(R_prev V A' V^T, M', A') for a stack of F-like matrices given as F V
    (see the module docstring): refine's step passes F, the step Jacobian
    F~ = dF - R' dS."""
    v = factors.v
    v_t = v.swapaxes(-1, -2)
    m = v_t @ (r_prev.swapaxes(-1, -2) @ f_v)
    a_prime = (m - m.swapaxes(-1, -2)) / factors.pair_sums
    return r_prev @ (v @ a_prime @ v_t), m, a_prime


def _tangent_step(r_prev, factors):
    """One linearized-constraint step per trial, in closed form (see the
    module docstring).

    Parameters
    ----------
    r_prev : ndarray, shape (B, 3, 3)
        Linearization points, rotations.
    factors : _StepFactors

    Returns
    -------
    (ndarray, ndarray, ndarray)
        Candidates R_prev (I + A), shape (B, 3, 3); the six multipliers per
        trial in CONSTRAINT_PAIRS order, shape (B, 6); and the mask of lanes
        whose step stands. A lane fails (SingularSystem: refine falls back)
        if its factors are not solvable or a candidate column norm is below
        1 - 1e-9, NaN or infinite. The columns of I + A have norm >= 1
        because A is antisymmetric, so the bound holds by construction for
        finite inputs; the check guards the invariant, not the data.
    """
    increment, m, a_prime = _tangent_increment(r_prev, factors.f_v, factors)
    # (A' diag(d) - diag(d) A')_ij = A'_ij (d_j - d_i).
    lam_prime = 0.5 * (m + m.swapaxes(1, 2)) - factors.diag_d - a_prime * factors.half_gaps
    candidate = r_prev + increment
    norms = np.sqrt(np.einsum("bij,bij->bj", candidate, candidate))
    ok = factors.solvable & ((norms >= 1.0 - COLUMN_NORM_SLACK) & (norms < np.inf)).all(axis=1)
    v = factors.v
    lambdas = (v @ lam_prime @ v.swapaxes(1, 2))[:, _PAIR_ROWS, _PAIR_COLS] * _PAIR_SCALE
    return candidate, lambdas, ok


def _gram_schmidt(c):
    """The assembler per trial: (B, 3, 3) candidates -> (rotations, n1, nu).

    n1 is the norm of column 1 and nu that of the rejection of column 2 from
    it; a lane with either at or below ASSEMBLER_NORM_FLOOR has no rotation
    (its entry is a placeholder). Norms are sqrt(_dot), bit-identical to
    np.linalg.norm, and the cross product is written out, bit-identical to
    np.cross. Each rotation is the transpose of the row stack (r1, r2, r3),
    so it is laid out column by column: BLAS picks its matrix-vector kernel
    by layout, and the translation R s_mean must round as in the per-trial
    rows pinned in tests/data/golden_rows.csv.
    """
    c1, c2 = c[:, :, 0], c[:, :, 1]
    n1 = np.sqrt(_dot(c1, c1))
    r1 = c1 / np.where(n1 > ASSEMBLER_NORM_FLOOR, n1, 1.0)[:, None]
    u = c2 - r1 * _dot(r1, c2)[:, None]
    nu = np.sqrt(_dot(u, u))
    r2 = u / np.where(nu > ASSEMBLER_NORM_FLOOR, nu, 1.0)[:, None]
    a0, a1, a2 = r1.T
    b0, b1, b2 = r2.T
    r3 = np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=1)
    return np.stack((r1, r2, r3), axis=1).swapaxes(1, 2), n1, nu


def assemble_rotation(candidate):
    """Project a candidate matrix onto SO(3) by Gram-Schmidt on columns 1-2.

    r1 = c1 / ||c1||; r2 = normalized rejection of c2 from r1; r3 = r1 x r2.
    Column 3 of the input is intentionally ignored.

    Parameters
    ----------
    candidate : CandidateMatrix

    Returns
    -------
    Rotation

    Raises
    ------
    CollinearColumns
        If either normalization denominator is <= 1e-9. Solver outputs at a
        valid linearization point cannot trigger this; hitting it indicates an
        upstream bug, so refinement is aborted with this diagnostic.
    """
    r, n1, nu = _gram_schmidt(candidate.m[None])
    _check_assembled(n1, nu)
    return Rotation(r[0])


def _check_assembled(n1, nu):
    """Raise CollinearColumns if any lane's assembler denominator is too small."""
    if not (n1 > ASSEMBLER_NORM_FLOOR).all():
        raise CollinearColumns(f"first candidate column has norm {n1.min():.3e}")
    if not (nu > ASSEMBLER_NORM_FLOOR).all():
        raise CollinearColumns(
            f"candidate columns 1, 2 nearly collinear (rejection norm {nu.min():.3e})"
        )


@dataclass(frozen=True, eq=False)
class _Refinement:
    """refine's steps for B trials: rotations (B, n + 1, 3, 3) and
    translations (B, n + 1, 3) with the initialization at index 0, the
    candidates (B, n, 3, 3) and multipliers (B, n, 6) of each step, and
    stepped (B, n), False where a step fell back to the previous pose (its
    candidate is then a placeholder and its multipliers NaN). finite (B,) is
    False where S or F is not finite; such a lane has no refinement."""

    rotations: np.ndarray
    translations: np.ndarray
    candidates: np.ndarray
    lambdas: np.ndarray
    stepped: np.ndarray
    finite: np.ndarray


def _refine_steps(source, target, w, source_mean, target_mean, r0, t0, n_refinements):
    """refine per trial on centered (B, N, 3) clouds, (B, N) weights, their
    (B, 3) means and initial poses r0 (B, 3, 3), t0 (B, 3); a _Refinement.

    Raises
    ------
    CollinearColumns
        If a step that stands cannot be assembled (an upstream bug).
    """
    factors = _step_factors(source, target, w)
    rotations, translations = [r0], [t0]
    candidates, lambdas, stepped = [], [], []
    for _ in range(n_refinements):
        r_prev, t_prev = rotations[-1], translations[-1]
        candidate, lam, ok = _tangent_step(r_prev, factors)
        lane = ok[:, None, None]
        # A fallen-back lane is assembled from its previous rotation, so no
        # placeholder reaches the divisions, and then discarded.
        assembled, n1, nu = _gram_schmidt(np.where(lane, candidate, r_prev))
        _check_assembled(n1, nu)
        t = target_mean - (assembled @ source_mean[:, :, None])[:, :, 0]
        rotations.append(np.where(lane, assembled, r_prev))
        translations.append(np.where(ok[:, None], t, t_prev))
        candidates.append(candidate)
        lambdas.append(np.where(ok[:, None], lam, np.nan))
        stepped.append(ok)
    return _Refinement(
        np.stack(rotations, axis=1),
        np.stack(translations, axis=1),
        np.stack(candidates, axis=1),
        np.stack(lambdas, axis=1),
        np.stack(stepped, axis=1),
        factors.finite,
    )


@dataclass(frozen=True, eq=False)
class RefinementTrace:
    """Pose sequence plus per-iteration solver output, and the centered
    problem the steps were solved on.

    poses has length n_refinements + 1 with the initialization at index 0.
    Iterations that fell back to the previous pose (SingularSystem) store
    NaN multipliers and a None candidate. A step's KKT residual is not
    stored; the test oracle (tests/kkt_oracle.py) derives it from the trace
    alone, from centered, poses[k].rotation, candidates[k] and lambdas[k].
    """

    poses: tuple
    lambdas: tuple
    candidates: tuple
    centered: CenteredCorrespondences

    def __post_init__(self):
        n = len(self.poses) - 1
        if n < 0 or not all(isinstance(p, RigidTransform) for p in self.poses):
            raise ValueError("poses must be a nonempty sequence of RigidTransform")
        if not (len(self.lambdas) == len(self.candidates) == n):
            raise ValueError("per-iteration sequences must have length len(poses) - 1")
        if not isinstance(self.centered, CenteredCorrespondences):
            raise TypeError("centered must be CenteredCorrespondences")

    @property
    def n_refinements(self):
        return len(self.poses) - 1

    @property
    def fallback_count(self):
        return sum(c is None for c in self.candidates)


def refine(correspondences, init, n_refinements=DEFAULT_REFINEMENTS):
    """Run n_refinements linearized-constraint steps from an initial pose.

    Each step solves the linearized problem at the previous rotation in
    closed form (see the module docstring; S, F and the eigenbasis of S are
    computed once per call), re-projects the candidate onto SO(3), and
    recomputes the closed-form translation. A SingularSystem failure repeats
    the previous pose for that step and is recorded in the trace (refine
    itself never raises for it). SingularSystem is decided from the spectrum
    of S, so degenerate geometry (not d_0 + d_1 > 0, or
    d_2 > CONDITION_LIMIT * (d_0 + d_1)) falls back at every step; a
    candidate column norm below 1 - 1e-9 falls back at its own step.

    Parameters
    ----------
    correspondences : CorrespondenceSet
    init : RigidTransform
        Typically the closed-form SVD estimate.
    n_refinements : int
        Number of steps, >= 1.

    Returns
    -------
    RefinementTrace
        Its centered field holds the centered correspondences the steps were
        solved on, so diagnostics need no second centering.

    Raises
    ------
    ValueError
        If the second-moment matrices S and F are not finite.
    """
    if n_refinements < 1:
        raise ValueError("n_refinements must be >= 1")
    centered = center(correspondences)
    steps = _refine_steps(
        centered.source_centered.points[None],
        centered.target_centered.points[None],
        centered.weights[None],
        centered.source_mean[None],
        centered.target_mean[None],
        init.rotation.m[None],
        init.translation[None],
        n_refinements,
    )
    if not steps.finite[0]:
        raise ValueError("second-moment matrices S and F must be finite")
    poses = [init]
    candidates = []
    for k, stepped in enumerate(steps.stepped[0]):
        if stepped:
            rotation = Rotation(steps.rotations[0, k + 1])
            poses.append(RigidTransform(rotation, steps.translations[0, k + 1]))
            candidates.append(CandidateMatrix(steps.candidates[0, k]))
        else:
            poses.append(poses[-1])
            candidates.append(None)
    return RefinementTrace(tuple(poses), tuple(steps.lambdas[0]), tuple(candidates), centered)
