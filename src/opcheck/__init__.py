"""opcheck: weighted higher-order isometry/selfadjointness structure of
dense complex matrices, Drazin inverses, weight-kernel computation, seeded
instance generators, and a verification harness over all of it."""

from .matcore import DEFAULT_POLICY, NumericPolicy
from .transforms import (
    TransformKind,
    defect,
    delta,
    triangle,
)
from .drazin import (
    BlockView,
    DrazinData,
    PairSelector,
    block_view,
    core_nilpotent_decompose,
    drazin_inverse,
    index_of,
    resolve_pair,
)
from .kernels import (
    ClassificationResult,
    KernelBasis,
    kernel,
    minimal_order,
)
from .generators import Family, GeneratedInstance, InstanceSpec, generate, rng_for
from .suites import SuiteConfig, SuiteReport, available_suites, run_suite

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_POLICY",
    "NumericPolicy",
    "TransformKind",
    "triangle",
    "delta",
    "defect",
    "DrazinData",
    "BlockView",
    "PairSelector",
    "index_of",
    "core_nilpotent_decompose",
    "drazin_inverse",
    "block_view",
    "resolve_pair",
    "KernelBasis",
    "ClassificationResult",
    "kernel",
    "minimal_order",
    "Family",
    "InstanceSpec",
    "GeneratedInstance",
    "generate",
    "rng_for",
    "SuiteConfig",
    "SuiteReport",
    "run_suite",
    "available_suites",
    "__version__",
]
