"""Lossy compression of binary memoryless sequences under a Hamming
distortion budget, with a parsing dictionary that grows like LZ78.

Public surface: the math kernel (rate_distortion and friends), the
matching predicates, both coders with their shared decoder, and the
Monte Carlo verification harness.
"""

from .bits import BitSequence, bernoulli, concat_bits
from .codec import (
    EncodedStream,
    EncodeResult,
    Header,
    coding_rate,
    decode,
    encode_idealized,
    encode_practical,
    lz78_decode,
    lz78_encode,
)
from .dictionary import (
    CodebookTree,
    LevelConfig,
    default_step,
    level_size,
)
from .errors import (
    BadMagic,
    CorruptStream,
    EmptyMatchSet,
    Infeasible,
    LengthMismatch,
    NotALeaf,
    UnsupportedVersion,
    ZeroRate,
)
from .harness import ExperimentConfig, LemmaReport, rate_sweep, run_checks
from .matching import (
    MatchRelation,
    ball_probability,
    ball_probability_exact,
    canonical_type_sequence,
    cycle_lemma_lower_bound,
    cycle_lemma_lower_bound_exact,
    hamming_distance,
    match_probability,
    match_probability_exact,
    matches_full,
    matches_prefixwise,
    type_of,
)
from .rd_math import (
    BinaryJoint,
    DistortionBudget,
    SourceModel,
    TypeFraction,
    binary_entropy,
    lower_mutual_info,
    lower_mutual_info_float,
    mutual_information,
    optimal_reproduction_type,
    rate_distortion,
    target_reproduction_type,
)

__version__ = "0.1.0"

__all__ = [
    "BitSequence", "bernoulli", "concat_bits",
    "EncodedStream", "EncodeResult", "Header",
    "coding_rate", "decode", "encode_idealized", "encode_practical",
    "lz78_decode", "lz78_encode",
    "CodebookTree", "LevelConfig", "default_step", "level_size",
    "target_reproduction_type",
    "BadMagic", "CorruptStream", "EmptyMatchSet", "Infeasible",
    "LengthMismatch", "NotALeaf", "UnsupportedVersion", "ZeroRate",
    "ExperimentConfig", "LemmaReport", "rate_sweep", "run_checks",
    "MatchRelation", "ball_probability", "ball_probability_exact",
    "canonical_type_sequence", "cycle_lemma_lower_bound",
    "cycle_lemma_lower_bound_exact", "hamming_distance", "match_probability",
    "match_probability_exact", "matches_full", "matches_prefixwise", "type_of",
    "BinaryJoint", "DistortionBudget", "SourceModel", "TypeFraction",
    "binary_entropy", "lower_mutual_info", "lower_mutual_info_float",
    "mutual_information", "optimal_reproduction_type", "rate_distortion",
    "__version__",
]
