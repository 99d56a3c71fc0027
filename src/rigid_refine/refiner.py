"""Iterative pose refinement via linearized orthogonality constraints.

Each refinement step minimizes the weighted correspondence cost over all 3x3
matrices subject to the six orthonormality constraints linearized at the
previous rotation estimate. The stationarity conditions form a 15x15
saddle-point (KKT) system in (vec R', lambda); the solved candidate matrix is
re-projected onto SO(3) by a Gram-Schmidt assembler and the translation is
recomputed in closed form.

Conventions (fixed across the package):

- vec() is column-major: vec(M)[3*n + m] = M[m, n].
- The six constraints are indexed k = 0..5 over the column-wise upper
  triangle of M^T M - I: (0,0), (0,1), (1,1), (0,2), (1,2), (2,2).
"""

from dataclasses import dataclass

import numpy as np

from .core import Rotation, RigidTransform, center

# Condition estimate above this raises SingularSystem: degenerate source
# geometry interacting with the constraints.
CONDITION_LIMIT = 1e12

# Gram-Schmidt denominators at or below this raise CollinearColumns.
ASSEMBLER_NORM_FLOOR = 1e-9

# Solver outputs must have column norms >= 1 - this (lower bound holds
# whenever the linearization point is a valid rotation).
COLUMN_NORM_SLACK = 1e-9

DEFAULT_REFINEMENTS = 5

CONSTRAINT_PAIRS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))


class SingularSystem(Exception):
    """KKT matrix condition estimate exceeds the solvable limit, or the solve
    returned a candidate that violates the column-norm lower bound."""


class CollinearColumns(Exception):
    """Assembler input columns (nearly) collinear; indicates an upstream bug."""


def _symmetric_basis(i, j):
    e = np.zeros((3, 3))
    e[i, j] += 1.0
    e[j, i] += 1.0
    return e


@dataclass(frozen=True, eq=False)
class ConstraintBasis:
    """One orthonormality constraint: index k, its (i, j) pair, and E^S_ij."""

    index: int
    pair: tuple
    matrix: np.ndarray

    def __post_init__(self):
        m = _symmetric_basis(*self.pair)
        if not np.array_equal(m, self.matrix):
            raise ValueError("matrix does not match the (i, j) symmetric basis")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


CONSTRAINT_BASES = tuple(
    ConstraintBasis(k, pair, _symmetric_basis(*pair)) for k, pair in enumerate(CONSTRAINT_PAIRS)
)


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
    basis = CONSTRAINT_BASES[k].matrix
    return orthogonality_constraint(rp, k) + float(np.trace(basis @ rp.T @ (m - rp)))


@dataclass(frozen=True, eq=False)
class CandidateMatrix:
    """Unconstrained-step output: a 3x3 matrix, not necessarily a rotation.

    When produced by solve_kkt at a valid linearization point, every column
    has norm >= 1 - 1e-9 and columns 1, 2 are not collinear; hand-constructed
    instances need not satisfy that, so it is checked at the solver, not here.
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
    cols = [(m @ basis.matrix).reshape(9, order="F") for basis in CONSTRAINT_BASES]
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
    d_lambda = np.array(
        [np.trace(basis.matrix) - c_prev[basis.pair] for basis in CONSTRAINT_BASES]
    )
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
    c = candidate.m
    n1 = np.linalg.norm(c[:, 0])
    if n1 <= ASSEMBLER_NORM_FLOOR:
        raise CollinearColumns(f"first candidate column has norm {n1:.3e}")
    r1 = c[:, 0] / n1
    u = c[:, 1] - r1 * (r1 @ c[:, 1])
    nu = np.linalg.norm(u)
    if nu <= ASSEMBLER_NORM_FLOOR:
        raise CollinearColumns(f"candidate columns 1, 2 nearly collinear (rejection norm {nu:.3e})")
    r2 = u / nu
    r3 = np.cross(r1, r2)
    return Rotation(np.column_stack([r1, r2, r3]))


@dataclass(frozen=True, eq=False)
class RefinementTrace:
    """Pose sequence plus per-iteration solver diagnostics.

    poses has length n_refinements + 1 with the initialization at index 0.
    Iterations that fell back to the previous pose (SingularSystem) store
    NaN residuals, NaN multipliers, and a None candidate.
    """

    poses: tuple
    lambdas: tuple
    kkt_residuals: tuple
    candidates: tuple

    def __post_init__(self):
        n = len(self.poses) - 1
        if n < 0 or not all(isinstance(p, RigidTransform) for p in self.poses):
            raise ValueError("poses must be a nonempty sequence of RigidTransform")
        if not (len(self.lambdas) == len(self.kkt_residuals) == len(self.candidates) == n):
            raise ValueError("per-iteration sequences must have length len(poses) - 1")

    @property
    def n_refinements(self):
        return len(self.poses) - 1

    @property
    def fallback_count(self):
        return sum(c is None for c in self.candidates)


def refine(correspondences, init, n_refinements=DEFAULT_REFINEMENTS):
    """Run n_refinements linearized-constraint steps from an initial pose.

    Each step assembles the KKT system at the previous rotation, solves it,
    re-projects the candidate onto SO(3), and recomputes the closed-form
    translation. A SingularSystem failure repeats the previous pose for that
    step and is recorded in the trace (refine itself never raises for it).

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
    """
    if n_refinements < 1:
        raise ValueError("n_refinements must be >= 1")
    centered = center(correspondences)
    poses = [init]
    lambdas = []
    residuals = []
    candidates = []
    for _ in range(n_refinements):
        system = assemble_kkt(centered, poses[-1].rotation)
        try:
            candidate, lam = solve_kkt(system)
        except SingularSystem:
            poses.append(poses[-1])
            lambdas.append(np.full(6, np.nan))
            residuals.append(np.nan)
            candidates.append(None)
            continue
        rotation = assemble_rotation(candidate)  # CollinearColumns propagates: upstream bug
        translation = centered.target_mean - rotation.m @ centered.source_mean
        poses.append(RigidTransform(rotation, translation))
        lambdas.append(lam)
        residuals.append(kkt_residual(system, candidate, lam))
        candidates.append(candidate)
    return RefinementTrace(tuple(poses), tuple(lambdas), tuple(residuals), tuple(candidates))
