"""Linkage configuration spaces: constraint analysis, continuation, and
singularity classification, with a JSON/SVG command-line front end."""

from .chains import (
    ChainKind,
    ChainSpec,
    SphericalParams,
    aligned_morse_index,
    chain_work_image,
    chain_work_map,
    forward_count,
    from_spherical,
    is_aligned,
    prismatic_fiber,
    spherical_rho,
    to_spherical,
    workspace_interval,
)
from .classify import (
    ClassificationReport,
    Verdict,
    classify_configuration,
    lines_concurrent,
    platform_conditions,
    verify_platform_singularity,
)
from .decomp import (
    ChainRemoval,
    Decomposition,
    StageVerdict,
    StageVerdictKind,
    enumerate_chain_removals,
    find_nontransversive_witness,
    find_smoothness_certificate,
    stage_classify,
    transversality_check,
)
from .model import (
    Configuration,
    Linkage,
    MechanismType,
    PlatformSpec,
    SubspaceBasis,
    build_linkage,
    constraint_jacobian,
    constraint_residual,
    pointed_normalize,
    reduced_normalize,
    squared_length_map,
)
from .numeric import (
    BranchReport,
    TangentFrame,
    TraceResult,
    WorkData,
    fd_hessian,
    local_branch_count,
    numerical_rank,
    project_to_cspace,
    reduced_work_data,
    sample_cspace,
    tangent_frame,
    trace_curve,
    work_image,
)

__version__ = "0.1.0"
