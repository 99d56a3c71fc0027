"""The paper's 15x15 saddle-point (KKT) system for one refinement step,
assembled and solved literally by dense LU.

`rigid_refine.refiner` solves the same linearized problem in closed form, in
the tangent space of the previous rotation; this is the oracle it is tested
against. `STEP_SOLVERS` maps a name to each of the two ways of taking one
step, `(centered, r_prev) -> (CandidateMatrix, multipliers)`, so that a test
can pin the paper's step properties on both.
"""

from dataclasses import dataclass

import numpy as np

from rigid_refine import refiner
from rigid_refine.core import _frozen
from rigid_refine.refiner import (
    COLUMN_NORM_SLACK,
    CONDITION_LIMIT,
    CONSTRAINT_BASES,
    CONSTRAINT_PAIRS,
    CandidateMatrix,
    SingularSystem,
    constraint_jacobian,
)


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
            object.__setattr__(self, name, _frozen(getattr(self, name), name, shape))

    def matrix(self):
        """Assembled 15x15 system matrix."""
        return np.block([[self.a, self.b], [self.b.T, np.zeros((6, 6))]])

    def rhs(self):
        """Assembled 15-vector right-hand side."""
        return np.concatenate([self.d_r, self.d_lambda])


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


def lu_step(centered, r_prev):
    """The step solved through the assembled 15x15 system."""
    return solve_kkt(assemble_kkt(centered, r_prev))


def step_factors(centered):
    """`refiner._step_factors` of one problem, a stack of one trial."""
    return refiner._step_factors(
        centered.source_centered.points[None],
        centered.target_centered.points[None],
        centered.weights[None],
    )


def closed_form_step(centered, r_prev):
    """The step `refine` takes (`refiner._step_factors` and `_tangent_step`
    at one trial), raising SingularSystem where `refine` falls back."""
    candidate, lambdas, ok = refiner._tangent_step(r_prev.m[None], step_factors(centered))
    if not ok[0]:
        raise SingularSystem("the closed-form step falls back")
    return CandidateMatrix(candidate[0]), lambdas[0]


STEP_SOLVERS = {"lu_oracle": lu_step, "closed_form": closed_form_step}
