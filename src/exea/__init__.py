"""Explain and repair embedding-based entity alignment between knowledge graphs.

The package splits into aligned layers: triple stores and path utilities
(``kg``), embedding storage and similarity search (``embedding``), a small
translational trainer (``trainer``), matched-subgraph explanations
(``explain``), dependency graphs with confidence scores (``adg``), conflict
detection and repair (``repair``), metrics (``evaluate``), a synthetic
generator (``synth``), and the command line front end (``cli``).

Importing the package imports none of them: each name of ``__all__`` is
resolved on first use, by importing the module that defines it, so a
command pays only for the modules it runs.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "adg": ("Adg", "AdgConfig", "EdgeClass", "build_adg", "sigmoid"),
    "embedding": ("EmbeddingStore", "greedy_align", "load_embeddings", "save_embeddings",
                  "similarity_matrix", "similarity_topk"),
    "errors": ("ConfigError", "DegenerateConfig", "EmptyCandidates", "EmptyKg", "ExeaError",
               "InvariantViolation", "MalformedLine", "MissingEmbedding", "NoRelationVectors",
               "NoSeedsWarning", "NotSubset", "TrainerFailure", "UnknownId", "UnknownRelation",
               "ZeroVector"),
    "evaluate": ("EvalReport", "ablation", "accuracy", "explanation_sparsity_stats", "fidelity",
                 "random_matched_explanations", "sample_correct_pairs", "sparsity",
                 "strip_triples"),
    "explain": ("Explanation", "PathIndex", "candidate_triples", "explanation", "match_paths"),
    "kg": ("Kg", "Side", "load_kg"),
    "repair": ("AlignmentState", "NotSameAsRule", "PairAnalyzer", "RelationAlignment",
               "RepairConfig", "RepairReport", "RepairResult", "mine_not_same_as_rules",
               "mine_relation_alignment", "repair"),
    "synth": ("SynthConfig", "SynthResult", "generate_pair", "write_dataset"),
    "trainer": ("TrainConfig", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing a submodule binds it on the package under its own name;
        # where an export has that name (the function ``repair``), the
        # export keeps it
        if (name in _MODULE_OF and isinstance(value, ModuleType)
                and value.__name__ == f"{__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
