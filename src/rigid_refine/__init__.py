"""Weighted rigid registration with a KKT-based iterative refiner.

Closed-form SVD pose estimation, an iterative linearized-constraint refiner
with per-step diagnostics, analytic Jacobians of the refine step, synthetic
problem generation with a portable RNG, and a config-driven experiment CLI.
"""

from .core import (
    CenteredCorrespondences,
    CorrespondenceSet,
    PointCloud,
    RigidTransform,
    Rotation,
    center,
    optimal_translation,
    weighted_cost,
)
from .diagnostics import (
    DivergenceReport,
    NearSingularG,
    UnconstrainedSolution,
    determinant_redundancy_residual,
    divergence_report,
    licq_check,
    normalized_det,
    singularity_margin,
    unconstrained_solution,
)
from .gradcheck import (
    IllConditioned,
    Jacobian,
    finite_difference_jacobian,
    flatten_inputs,
    jacobian_kabsch,
    jacobian_refine_step,
    kabsch_outputs,
    max_relative_error,
    refine_step_outputs,
)
from .kabsch import (
    CrossCovariance,
    DegenerateGeometry,
    cross_covariance,
    estimate_pose_kabsch,
    kabsch_rotation,
)
from .metrics import (
    PoseError,
    augmented_loss,
    chamfer_distance,
    euler_zyx,
    gimbal_locked,
    mean_point_distance,
    pose_error,
    rotation_error,
    translation_error,
)
from .cli import (
    ComparisonTable,
    ConfigError,
    ExperimentConfig,
    MismatchedSpecs,
    TrialRecord,
    compare_methods,
    config_from_entries,
    load_config,
    parse_config_text,
    records_to_csv,
    run_experiment,
    run_trial,
)
from .cloud_io import read_ply, read_xyz_csv, write_ply, write_xyz_csv
from .refiner import (
    CandidateMatrix,
    CollinearColumns,
    RefinementTrace,
    SingularSystem,
    assemble_rotation,
    constraint_jacobian,
    linearized_constraint,
    orthogonality_constraint,
    refine,
)
from .rng import Xoshiro256PlusPlus
from .so3 import rotation_x, rotation_y, rotation_z, rotation_zyx, skew
from .synth import (
    CropOverlapUnsatisfied,
    InsufficientPoints,
    LabeledProblem,
    ProblemSpec,
    ball_cloud,
    icp_baseline,
    make_problem,
    matching_cost,
    sample_transform,
    slab_cloud,
    sphere_cloud,
)

__version__ = "0.1.0"
