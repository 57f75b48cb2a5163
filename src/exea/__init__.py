"""Explain and repair embedding-based entity alignment between knowledge graphs.

The package splits into aligned layers: triple stores and path utilities
(``kg``), embedding storage and similarity search (``embedding``), a small
translational trainer (``trainer``), matched-subgraph explanations
(``explain``), dependency graphs with confidence scores (``adg``), conflict
detection and repair (``repair``), metrics (``evaluate``), a synthetic
generator (``synth``), and the command line front end (``cli``).
"""

__version__ = "0.1.0"

from .adg import Adg, AdgConfig, EdgeClass, build_adg, sigmoid
from .embedding import (
    EmbeddingStore,
    greedy_align,
    load_embeddings,
    save_embeddings,
    similarity_matrix,
    similarity_topk,
)
from .errors import (
    ConfigError,
    DegenerateConfig,
    EmptyCandidates,
    EmptyKg,
    ExeaError,
    InvariantViolation,
    MalformedLine,
    MissingEmbedding,
    NoRelationVectors,
    NoSeedsWarning,
    NotSubset,
    TrainerFailure,
    UnknownId,
    UnknownRelation,
    ZeroVector,
)
from .evaluate import (
    EvalReport,
    ablation,
    accuracy,
    explanation_sparsity_stats,
    fidelity,
    random_matched_explanations,
    sample_correct_pairs,
    sparsity,
    strip_triples,
)
from .explain import Explanation, PathIndex, candidate_triples, explanation, match_paths
from .kg import Kg, Side, load_kg
from .repair import (
    AlignmentState,
    NotSameAsRule,
    PairAnalyzer,
    RelationAlignment,
    RepairConfig,
    RepairReport,
    RepairResult,
    mine_not_same_as_rules,
    mine_relation_alignment,
    repair,
)
from .synth import SynthConfig, SynthResult, generate_pair, write_dataset
from .trainer import TrainConfig, train

__all__ = [
    "Adg",
    "AdgConfig",
    "AlignmentState",
    "ConfigError",
    "DegenerateConfig",
    "EdgeClass",
    "EmbeddingStore",
    "EmptyCandidates",
    "EmptyKg",
    "EvalReport",
    "ExeaError",
    "Explanation",
    "InvariantViolation",
    "Kg",
    "MalformedLine",
    "MissingEmbedding",
    "NoRelationVectors",
    "NoSeedsWarning",
    "NotSameAsRule",
    "NotSubset",
    "PairAnalyzer",
    "PathIndex",
    "RelationAlignment",
    "RepairConfig",
    "RepairReport",
    "RepairResult",
    "Side",
    "SynthConfig",
    "SynthResult",
    "TrainConfig",
    "TrainerFailure",
    "UnknownId",
    "UnknownRelation",
    "ZeroVector",
    "ablation",
    "accuracy",
    "build_adg",
    "candidate_triples",
    "explanation",
    "explanation_sparsity_stats",
    "fidelity",
    "generate_pair",
    "greedy_align",
    "load_embeddings",
    "load_kg",
    "match_paths",
    "mine_not_same_as_rules",
    "mine_relation_alignment",
    "random_matched_explanations",
    "repair",
    "sample_correct_pairs",
    "save_embeddings",
    "sigmoid",
    "similarity_matrix",
    "similarity_topk",
    "sparsity",
    "strip_triples",
    "train",
    "write_dataset",
]
