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
`assemble_kkt` / `solve_kkt` / `kkt_residual` build and solve the 15x15
system of the paper literally and are kept as the reference the closed form
is tested against; `refine` stores no residual, but its trace carries the
centered problem they need (see RefinementTrace).

Conventions (fixed across the package):

- vec() is column-major: vec(M)[3*n + m] = M[m, n].
- The six constraints are indexed k = 0..5 over the column-wise upper
  triangle of M^T M - I: (0,0), (0,1), (1,1), (0,2), (1,2), (2,2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import CenteredCorrespondences, Rotation, RigidTransform, center
from .kabsch import _cross_covariance

# Condition estimate above this raises SingularSystem: degenerate source
# geometry interacting with the constraints. The 15x15 solve compares it with
# the KKT matrix's 2-norm condition number; the closed form with the spread
# d_2 / (d_0 + d_1) of the eigenvalue pair sums it divides by.
CONDITION_LIMIT = 1e12

# Gram-Schmidt denominators at or below this raise CollinearColumns.
ASSEMBLER_NORM_FLOOR = 1e-9

# Solver outputs must have column norms >= 1 - this (lower bound holds
# whenever the linearization point is a valid rotation).
COLUMN_NORM_SLACK = 1e-9

DEFAULT_REFINEMENTS = 5

CONSTRAINT_PAIRS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))


class SingularSystem(Exception):
    """The step is not solvable: the KKT matrix condition estimate (or, in
    closed form, the spread of the eigenvalues of S) exceeds the solvable
    limit, or the solve returned a candidate that violates the column-norm
    lower bound."""


class CollinearColumns(Exception):
    """Assembler input columns (nearly) collinear; indicates an upstream bug."""


def _symmetric_basis(i, j):
    e = np.zeros((3, 3))
    e[i, j] += 1.0
    e[j, i] += 1.0
    e.setflags(write=False)
    return e


# E^S_k = e_i e_j^T + e_j e_i^T for the k-th pair of CONSTRAINT_PAIRS, read-only.
CONSTRAINT_BASES = tuple(_symmetric_basis(i, j) for i, j in CONSTRAINT_PAIRS)

# Row k picks entry (i, j) of the k-th pair; _MULTIPLIER_PICK maps the
# symmetric Lambda = sum_k lambda_k E^S_k back to lambda_k (Lambda_ij for
# i != j, Lambda_ii / 2).
_PAIR_PICK = np.eye(9)[[3 * i + j for i, j in CONSTRAINT_PAIRS]]
_MULTIPLIER_PICK = _PAIR_PICK * np.array([[0.5 if i == j else 1.0] for i, j in CONSTRAINT_PAIRS])


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

    When produced by solve_kkt (or refine's closed-form step) at a valid
    linearization point, every column has norm >= 1 - 1e-9 and columns 1, 2
    are not collinear; hand-constructed instances need not satisfy that, so it
    is checked at the solver, not here.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"candidate must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("candidate must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class KktSystem:
    """Blocks of the 15x15 saddle-point system [[A, B], [B^T, 0]] z = [d_r, d_lambda]."""

    a: np.ndarray
    b: np.ndarray
    d_r: np.ndarray
    d_lambda: np.ndarray

    def __post_init__(self):
        shapes = {"a": (9, 9), "b": (9, 6), "d_r": (9,), "d_lambda": (6,)}
        for name, shape in shapes.items():
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def matrix(self):
        """Assembled 15x15 system matrix."""
        return np.block([[self.a, self.b], [self.b.T, np.zeros((6, 6))]])

    def rhs(self):
        """Assembled 15-vector right-hand side."""
        return np.concatenate([self.d_r, self.d_lambda])


def constraint_jacobian(m):
    """9x6 matrix whose column k is vec(M E^S_k), column-major vec.

    For M = R_prev these are the gradients of the linearized constraints with
    respect to vec(R); the same matrix doubles as the constraint-qualification
    stack checked by the diagnostics module.
    """
    m = np.asarray(m, dtype=float)
    cols = [(m @ basis).reshape(9, order="F") for basis in CONSTRAINT_BASES]
    return np.column_stack(cols)


def assemble_kkt(centered, r_prev):
    """Assemble the KKT blocks for one refinement step.

    With S = sum_i w_i s~_i s~_i^T and F = sum_i w_i t~_i s~_i^T:

    - A = kron(S, I3), equivalently row r (column-major r <-> (m, n)) equals
      vec(E_mn S)^T, so that A vec(R) = vec(R S);
    - B column k = vec(R_prev E^S_k);
    - d_r = vec(F);
    - d_lambda[k] = tr(E^S_k) - c_k(R_prev).

    Parameters
    ----------
    centered : CenteredCorrespondences
    r_prev : Rotation

    Returns
    -------
    KktSystem
    """
    s_pts = centered.source_centered.points
    t_pts = centered.target_centered.points
    w = centered.weights

    s_mat = (s_pts * w[:, None]).T @ s_pts
    f_mat = (t_pts * w[:, None]).T @ s_pts

    a = np.kron(s_mat, np.eye(3))
    b = constraint_jacobian(r_prev.m)
    d_r = f_mat.reshape(9, order="F")

    c_prev = r_prev.m.T @ r_prev.m - np.eye(3)
    pairs = zip(CONSTRAINT_BASES, CONSTRAINT_PAIRS)
    d_lambda = np.array([np.trace(basis) - c_prev[pair] for basis, pair in pairs])
    return KktSystem(a, b, d_r, d_lambda)


def solve_kkt(system):
    """Solve the 15x15 system by dense LU with partial pivoting.

    Parameters
    ----------
    system : KktSystem

    Returns
    -------
    (CandidateMatrix, ndarray shape (6,))
        The candidate matrix (vec unpacked column-major) and the multipliers.

    Raises
    ------
    SingularSystem
        If the 2-norm condition estimate exceeds 1e12, or a candidate column
        norm falls below 1 - 1e-9.
    """
    k_full = system.matrix()
    rhs = system.rhs()
    cond = np.linalg.cond(k_full)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularSystem(f"KKT condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    z = np.linalg.solve(k_full, rhs)
    candidate = CandidateMatrix(z[:9].reshape(3, 3, order="F"))
    lambdas = z[9:]
    # Lower bound proved for solutions at a valid linearization point; a
    # violation here means the solve itself went wrong.
    norms = np.linalg.norm(candidate.m, axis=0)
    if not np.all(norms >= 1.0 - COLUMN_NORM_SLACK):
        raise SingularSystem(f"candidate column norms {norms} below 1 - {COLUMN_NORM_SLACK:.0e}")
    return candidate, lambdas


def kkt_residual(system, candidate, lambdas):
    """Relative residual ||K z - rhs|| / ||rhs|| of a proposed solution."""
    z = np.concatenate([candidate.m.reshape(9, order="F"), lambdas])
    rhs = system.rhs()
    return float(
        np.linalg.norm(system.matrix() @ z - rhs) / max(np.linalg.norm(rhs), np.finfo(float).tiny)
    )


@dataclass(frozen=True, eq=False)
class _StepFactors:
    """The parts of a refinement step that do not depend on R_prev, with
    S = V diag(d) V^T and d ascending."""

    v: np.ndarray
    f_v: np.ndarray  # F V
    pair_sums: np.ndarray  # d_i + d_j, with a unit diagonal
    half_gaps: np.ndarray  # (d_j - d_i) / 2
    diag_d: np.ndarray


def _step_factors(centered):
    """The eigendecomposition of S and F V, as _StepFactors.

    Raises
    ------
    SingularSystem
        If not d_0 + d_1 > 0, or d_2 > CONDITION_LIMIT * (d_0 + d_1): the
        smallest pair sum the closed form divides by is zero, negative, NaN
        or below 1e-12 of the largest eigenvalue (collinear or coincident
        sources).
    ValueError
        If S or F is not finite.
    """
    s_pts = centered.source_centered.points
    s_mat = _cross_covariance(s_pts, s_pts, centered.weights)
    f_mat = _cross_covariance(centered.target_centered.points, s_pts, centered.weights)
    if not (np.all(np.isfinite(s_mat)) and np.all(np.isfinite(f_mat))):
        raise ValueError("second-moment matrices S and F must be finite")
    d, v = np.linalg.eigh(s_mat)
    smallest_pair = d[0] + d[1]
    # Divided, not multiplied: CONDITION_LIMIT * (d_0 + d_1) overflows at
    # huge input scales.
    if not smallest_pair > 0.0 or d[2] / CONDITION_LIMIT > smallest_pair:
        raise SingularSystem(
            f"eigenvalues {d} of S: d_2 / (d_0 + d_1) exceeds {CONDITION_LIMIT:.0e}"
        )
    pair_sums = d[:, None] + d
    np.fill_diagonal(pair_sums, 1.0)
    half_gaps = 0.5 * (d - d[:, None])
    return _StepFactors(v, f_mat @ v, pair_sums, half_gaps, np.diag(d))


def _tangent_step(r_prev, factors):
    """One linearized-constraint step in closed form (see the module docstring).

    Parameters
    ----------
    r_prev : ndarray, shape (3, 3)
        Linearization point, a rotation.
    factors : _StepFactors

    Returns
    -------
    (ndarray, ndarray)
        The 3x3 candidate R_prev (I + A) and the six multipliers in
        CONSTRAINT_PAIRS order.

    Raises
    ------
    SingularSystem
        If a candidate column norm is below 1 - 1e-9 (or NaN). The columns of
        I + A have norm >= 1 because A is antisymmetric, so this holds by
        construction for finite inputs; the check guards the invariant, not
        the data.
    """
    v = factors.v
    m = v.T @ (r_prev.T @ factors.f_v)
    a_prime = (m - m.T) / factors.pair_sums
    # (A' diag(d) - diag(d) A')_ij = A'_ij (d_j - d_i).
    lam_prime = 0.5 * (m + m.T) - factors.diag_d - a_prime * factors.half_gaps
    candidate = r_prev + r_prev @ (v @ a_prime @ v.T)
    norms = np.sqrt(np.einsum("ij,ij->j", candidate, candidate))
    if not norms.min() >= 1.0 - COLUMN_NORM_SLACK:
        raise SingularSystem(f"candidate column norms {norms} below 1 - {COLUMN_NORM_SLACK:.0e}")
    return candidate, _MULTIPLIER_PICK @ (v @ lam_prime @ v.T).ravel()


def assemble_rotation(candidate):
    """Project a candidate matrix onto SO(3) by Gram-Schmidt on columns 1-2.

    r1 = c1 / ||c1||; r2 = normalized rejection of c2 from r1; r3 = r1 x r2.
    Column 3 of the input is intentionally ignored. Norms are sqrt(v @ v) and
    the cross product is written out, bit-identical to np.linalg.norm and
    np.cross at a fraction of their call cost.

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
    c = candidate.m
    n1 = math.sqrt(c[:, 0] @ c[:, 0])
    if n1 <= ASSEMBLER_NORM_FLOOR:
        raise CollinearColumns(f"first candidate column has norm {n1:.3e}")
    r1 = c[:, 0] / n1
    u = c[:, 1] - r1 * (r1 @ c[:, 1])
    nu = math.sqrt(u @ u)
    if nu <= ASSEMBLER_NORM_FLOOR:
        raise CollinearColumns(f"candidate columns 1, 2 nearly collinear (rejection norm {nu:.3e})")
    r2 = u / nu
    a0, a1, a2 = r1.tolist()
    b0, b1, b2 = r2.tolist()
    r3 = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    return Rotation(np.array((r1, r2, r3)).T)


@dataclass(frozen=True, eq=False)
class RefinementTrace:
    """Pose sequence plus per-iteration solver output, and the centered
    problem the steps were solved on.

    poses has length n_refinements + 1 with the initialization at index 0.
    Iterations that fell back to the previous pose (SingularSystem) store
    NaN multipliers and a None candidate. A step's KKT residual is not
    stored; the public oracle derives it from the trace alone:
    kkt_residual(assemble_kkt(centered, poses[k].rotation), candidates[k],
    lambdas[k]).
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
        solved on, so diagnostics and the KKT oracle need no second centering.
    """
    if n_refinements < 1:
        raise ValueError("n_refinements must be >= 1")
    centered = center(correspondences)
    try:
        factors = _step_factors(centered)
    except SingularSystem:
        factors = None
    poses = [init]
    lambdas = []
    candidates = []
    for _ in range(n_refinements):
        r_prev = poses[-1].rotation.m
        try:
            if factors is None:
                raise SingularSystem("degenerate source geometry")
            candidate, lam = _tangent_step(r_prev, factors)
        except SingularSystem:
            poses.append(poses[-1])
            lambdas.append(np.full(6, np.nan))
            candidates.append(None)
            continue
        candidate = CandidateMatrix(candidate)
        rotation = assemble_rotation(candidate)  # CollinearColumns propagates: upstream bug
        translation = centered.target_mean - rotation.m @ centered.source_mean
        poses.append(RigidTransform(rotation, translation))
        lambdas.append(lam)
        candidates.append(candidate)
    return RefinementTrace(tuple(poses), tuple(lambdas), tuple(candidates), centered)
