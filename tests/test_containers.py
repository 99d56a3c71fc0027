"""The input contract every container's array fields share (core._frozen):
a read-only float copy of the declared shape, every entry finite."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import designed_spectrum
from kkt_oracle import KktSystem

from rigid_refine import (
    CandidateMatrix,
    CorrespondenceSet,
    CrossCovariance,
    Jacobian,
    LabeledProblem,
    PointCloud,
    PoseError,
    RigidTransform,
    Rotation,
    UnconstrainedSolution,
)
from rigid_refine.core import _frozen

CLOUD = PointCloud(np.arange(12.0).reshape(4, 3))
CORRESPONDENCES = CorrespondenceSet(CLOUD, CLOUD)
CENTERED = designed_spectrum(3.0, 2.0, 1.0)
UNCONSTRAINED = UnconstrainedSolution(np.eye(3), np.eye(3), np.eye(3), 1.0)
KKT = KktSystem(np.eye(9), np.ones((9, 6)), np.arange(9.0), np.arange(6.0))

# container.field -> (valid value, build(value) -> container holding it)
CASES = {
    "PointCloud.points": (np.arange(12.0).reshape(4, 3), PointCloud),
    "Rotation.m": (np.eye(3), Rotation),
    "RigidTransform.translation": (
        np.arange(3.0),
        lambda v: RigidTransform(Rotation.identity(), v),
    ),
    "CorrespondenceSet.weights": (np.ones(4), lambda v: CorrespondenceSet(CLOUD, CLOUD, v)),
    "CenteredCorrespondences.weights": (np.ones(6), lambda v: replace(CENTERED, weights=v)),
    "CenteredCorrespondences.source_mean": (
        np.arange(3.0),
        lambda v: replace(CENTERED, source_mean=v),
    ),
    "CenteredCorrespondences.target_mean": (
        np.arange(3.0),
        lambda v: replace(CENTERED, target_mean=v),
    ),
    "CandidateMatrix.m": (np.eye(3), CandidateMatrix),
    "CrossCovariance.h": (np.eye(3), CrossCovariance),
    "UnconstrainedSolution.r_u": (np.eye(3), lambda v: replace(UNCONSTRAINED, r_u=v)),
    "UnconstrainedSolution.g": (np.eye(3), lambda v: replace(UNCONSTRAINED, g=v)),
    "UnconstrainedSolution.f": (np.eye(3), lambda v: replace(UNCONSTRAINED, f=v)),
    "Jacobian.matrix": (np.zeros((9, 14)), lambda v: Jacobian(v, 2)),
    "LabeledProblem.overlap_mask": (
        np.ones(4, dtype=bool),
        lambda v: LabeledProblem(CORRESPONDENCES, RigidTransform.identity(), v),
    ),
    "PoseError.aniso_rot_deg": (np.arange(3.0), lambda v: PoseError(1.0, v, 0.0, 2, False)),
    # The test oracle's container keeps the same contract.
    "KktSystem.a": (np.eye(9), lambda v: replace(KKT, a=v)),
    "KktSystem.b": (np.ones((9, 6)), lambda v: replace(KKT, b=v)),
    "KktSystem.d_r": (np.arange(9.0), lambda v: replace(KKT, d_r=v)),
    "KktSystem.d_lambda": (np.arange(6.0), lambda v: replace(KKT, d_lambda=v)),
}


@pytest.mark.parametrize("case", CASES)
def test_container_copies_checks_and_freezes_its_array(case):
    valid, build = CASES[case]
    field = case.split(".")[1]
    for bad in (np.nan, np.inf):
        value = valid.astype(float)
        value.flat[0] = bad
        with pytest.raises(ValueError):
            build(value)
    wrong_shapes = (
        np.concatenate([valid, valid[..., :1]], axis=-1),  # one entry too many
        valid[:0],  # an empty leading axis
        valid.flat[0],  # a 0-d scalar
    )
    for value in wrong_shapes:
        with pytest.raises(ValueError):
            build(value)

    passed = valid.copy()
    stored = getattr(build(passed), field)
    assert stored.dtype == valid.dtype and np.array_equal(stored, valid)
    with pytest.raises(ValueError):
        stored.flat[0] = stored.flat[0]
    assert passed.flags.writeable and not np.shares_memory(passed, stored)
    passed.flat[0] = passed.flat[0]


def test_frozen_names_the_field_and_the_rule_it_breaks():
    with pytest.raises(ValueError, match=r"^points must have shape \(N, 3\), got \(\)$"):
        _frozen(1.0, "points", (None, 3))
    with pytest.raises(ValueError, match=r"^points must have shape \(N, 3\), got \(0, 3\)$"):
        _frozen(np.zeros((0, 3)), "points", (None, 3))
    with pytest.raises(ValueError, match=r"^weights must have shape \(4,\), got \(3,\)$"):
        _frozen(np.ones(3), "weights", (4,))
    with pytest.raises(ValueError, match="^cross-covariance must be finite$"):
        _frozen(np.full((3, 3), np.inf), "cross-covariance", (3, 3))
    # A NaN is checked before the cast, so it does not pass as a True.
    with pytest.raises(ValueError, match="^overlap_mask must be finite$"):
        _frozen([1.0, np.nan], "overlap_mask", (2,), dtype=bool)


def test_kkt_oracle_names_the_block_and_the_rule_it_breaks():
    with pytest.raises(ValueError, match=r"^a must have shape \(9, 9\), got \(8, 8\)$"):
        replace(KKT, a=np.eye(8))
    with pytest.raises(ValueError, match="^d_lambda must be finite$"):
        replace(KKT, d_lambda=np.full(6, np.nan))
