"""Run one exea command in this process with its layers wrapped in spans.

    python3 bench/traced_exea.py SPANS.npz -- <exea arguments>

The public functions of each layer are replaced by wrappers in the module
namespaces that call them (``build_adg`` inside ``exea.repair``,
``match_paths`` inside ``exea.explain``, ``repair`` inside ``exea.cli``, the
methods of ``PairAnalyzer``, ...), then ``exea.cli.main`` runs with the given
arguments. Each wrapper records a span (name, start, end, parent) in memory;
some also add to a counter. The spans and counters are written to SPANS.npz
when the command ends, and the exit code is the command's own.

Per-path methods such as ``PathIndex.unit_embedding`` stay unwrapped: they
run hundreds of thousands of times, and a wrapper there inflates the run it
measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import exea.cli  # noqa: E402
import exea.evaluate  # noqa: E402
import exea.explain  # noqa: E402
import exea.kg  # noqa: E402
import exea.synth  # noqa: E402

# ``exea/__init__.py`` re-exports the function ``repair`` under the
# submodule's name, so the module itself is only reachable here.
repair_module = sys.modules["exea.repair"]


class Tracer:
    """Spans kept in flat lists; the stack holds the index of the open span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn):
        """Wrap ``fn`` in a span named ``name``."""
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def counted(self, counter: str, fn, amount):
        """Wrap ``fn`` so that each call adds ``amount(result, *args)`` to
        ``counter``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.count(counter, amount(out, *args, **kwargs))
            return out

        return wrapper

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            span_name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
            counts=np.array(json.dumps(self.counts)),
        )


def _one(out, *args, **kwargs) -> int:
    return 1


def _length(out, *args, **kwargs) -> int:
    return len(out)


def _mutations(result, *args, **kwargs) -> int:
    return len(result.state.mutations)


def _triple_epochs(store, kg1, kg2, seeds, cfg, *args, **kwargs) -> int:
    return (len(kg1.triple_keys) + len(kg2.triple_keys)) * cfg.epochs


def install(tracer: Tracer) -> None:
    """Replace each layer's public functions in the namespaces that call them."""

    def wrap(owner, attr, name, counter=None, amount=_one):
        fn = tracer.span(name, getattr(owner, attr))
        if counter is not None:
            fn = tracer.counted(counter, fn, amount)
        setattr(owner, attr, fn)

    analyzer = repair_module.PairAnalyzer
    # kg; PathIndex imports enumerate_paths from exea.kg when it is built
    wrap(exea.cli, "load_kg", "kg.load")
    wrap(exea.kg, "enumerate_paths", "kg.enumerate_paths", "kg.paths", _length)
    wrap(exea.explain, "neighborhood_entities", "kg.neighborhood")
    wrap(repair_module, "neighborhood_entities", "kg.neighborhood")
    # embedding
    wrap(exea.cli, "load_embeddings", "embedding.load")
    wrap(exea.cli, "save_embeddings", "embedding.save")
    wrap(exea.synth, "save_embeddings", "embedding.save")
    wrap(repair_module, "similarity_topk", "embedding.topk")
    wrap(exea.cli, "greedy_align", "embedding.greedy_align")
    wrap(exea.evaluate, "greedy_align", "embedding.greedy_align")
    wrap(exea.explain, "path_embedding", "embedding.path_embedding")
    # explain
    wrap(exea.cli, "explanation", "explain.explanation")
    wrap(repair_module, "explanation", "explain.explanation")
    wrap(exea.explain, "match_paths", "explain.match_paths")
    # adg
    wrap(exea.cli, "build_adg", "adg.build")
    wrap(repair_module, "build_adg", "adg.build")
    # repair; cross_kg_triples and PairAnalyzer.adg are counted without a span
    wrap(exea.cli, "repair", "repair.repair", "repair.mutations", _mutations)
    wrap(exea.evaluate, "repair", "repair.repair", "repair.mutations", _mutations)
    analyzer.adg = tracer.counted("repair.adg_lookups", analyzer.adg, _one)
    wrap(analyzer, "ban", "repair.ban")
    wrap(repair_module, "mine_relation_alignment", "repair.rule_mining")
    wrap(repair_module, "mine_not_same_as_rules", "repair.rule_mining")
    wrap(repair_module, "detect_relation_conflicts", "repair.conflict_detection")
    repair_module.cross_kg_triples = tracer.counted(
        "repair.cross_triples", repair_module.cross_kg_triples, _length
    )
    wrap(repair_module, "resolve_one_to_many", "repair.one_to_many")
    wrap(repair_module, "resolve_low_confidence", "repair.low_confidence")
    wrap(repair_module, "final_fill", "repair.final_fill")
    # trainer
    wrap(exea.cli, "train", "trainer.train", "trainer.triple_epochs", _triple_epochs)
    wrap(exea.evaluate, "train", "trainer.train", "trainer.triple_epochs", _triple_epochs)
    # evaluate
    wrap(exea.cli, "fidelity", "evaluate.fidelity")
    wrap(exea.cli, "explanation_sparsity_stats", "evaluate.sparsity")
    wrap(exea.evaluate, "explanation_sparsity_stats", "evaluate.sparsity")
    wrap(exea.evaluate, "candidate_triples", "evaluate.candidate_triples")
    # synth
    wrap(exea.cli, "generate_pair", "synth.generate")
    wrap(exea.cli, "write_dataset", "synth.write")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_exea.py SPANS.npz -- <exea arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli.main", exea.cli.main)(argv[2:])
    tracer.save(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
