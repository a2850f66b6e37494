"""Conditional density operators and channels over block-diagonal algebras.

The library represents finite-dimensional operator algebras as direct sums
of matrix blocks, density operators on them, conditional density operators
(the quantum analog of conditional probability matrices), and channels in
Kraus form, together with the correspondence between channels and
conditionals and its operational readings (teleportation with a maximally
entangled measurement, and the prepare-evolve-measure identity for joint
outcome statistics).
"""

from .algebra import AlgebraShape
from .channels import (
    Channel,
    ChannelReport,
    apply,
    apply_via_conditional,
    canonical_reduction,
    channel_from_conditional,
    choi_conditional,
    identity_channel,
    is_isometry,
    validate_channel,
)
from .conditional import (
    ConditionalState,
    bayes_invert,
    conditional_from_joint,
    joint_from_conditional,
)
from .errors import (
    BasisNotPOVM,
    CondChanError,
    DimensionMismatch,
    DocumentSyntaxError,
    InvariantViolation,
    NoConvergence,
    NotHermitian,
    NotPositive,
    NotTracePreserving,
    ShapeMismatch,
    SupportMismatch,
    SupportViolation,
)
from .matcore import (
    EigenSystem,
    gen_inv_sqrt,
    herm_eig,
    kron,
    mat_sqrt,
    partial_trace,
    support_projector,
    swap_factors,
)
from .povm import POVM, Ensemble, measure, povm_from_ensemble, prepare, sample
from .scenarios import (
    TeleportReport,
    TheoremReport,
    bell_basis,
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
    random_unitary,
    teleport,
    teleport_classical,
    verify_theorem,
)
from .states import JointState, State, reduce

__version__ = "0.1.0"
