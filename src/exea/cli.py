"""Command line front end: train, infer, explain, adg, repair, eval, synth.

Every subcommand reads an optional flat JSON config file (``--config``);
explicit flags override file values, which override built-in defaults. All
outputs are UTF-8, written atomically (temp file + rename), and each run drops
a ``manifest.json`` next to its primary output recording the resolved config
hash, input file hashes, output file hashes, and the package version, so a
run can be checked for reproducibility by comparing manifests.

Exit codes: 0 success, 1 configuration error, 2 data error (missing or
malformed files, failed training), 3 violated internal invariant.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .adg import Adg, AdgConfig, build_adg
from .embedding import (
    EmbeddingStore,
    cosine,
    greedy_align,
    load_embeddings,
    pair_cosines,
    save_embeddings,
)
from .errors import (
    ConfigError,
    DegenerateConfig,
    ExeaError,
    InvariantViolation,
    MalformedLine,
)
from .evaluate import (
    EvalReport,
    ablation,
    accuracy,
    explanation_sparsity_stats,
    fidelity,
    sample_correct_pairs,
)
from .explain import Explanation, explanation
from .kg import Kg, Side, load_kg
from .repair import RepairConfig, repair
from .synth import SynthConfig, generate_pair, write_dataset
from .trainer import TrainConfig, train

DEFAULTS = {
    "h": 2,
    "k": 10,
    "alpha": 0.5,
    "weak_weight": 0.1,
    "theta": 0.5,
    "gamma": 0.3,
    "beta": None,
    "score_lambda": 1.0,
    "triple_budget": 200,
    "candidate_cap": 50,
    "relation_vector_source": "derived",
    "deep_chaining": False,
    "dim": 32,
    "epochs": 800,
    "learning_rate": 0.02,
    "negatives": 2,
    "margin": 1.0,
    "rng_seed": 0,
    "workers": 1,
    "sample_n": 100,
    "mode": "ablation",
    "n_entities": 200,
    "n_relations": 8,
    "density": 3.0,
    "rename_noise": 0.0,
    "seed_fraction": 0.3,
    "embedding_noise": 0.05,
    "conflict_injection": 0.0,
}

_HELP = {
    "h": "neighborhood radius in hops",
    "k": "candidate list length for conflict resolution",
    "alpha": "moderate-edge weight multiplier",
    "weak_weight": "fixed weight of weak edges",
    "theta": "confidence gate for the strong aggregate",
    "gamma": "confidence gate for the moderate aggregate",
    "beta": "low-confidence floor",
    "score_lambda": "similarity weight in rematch scores",
    "triple_budget": "max triples consulted for cross-graph facts",
    "candidate_cap": "max rematch candidates per entity",
    "relation_vector_source": "relation vectors: derived, native, or name",
    "deep_chaining": "chain rules to a fixpoint instead of one round",
    "dim": "embedding dimension",
    "epochs": "training epochs",
    "learning_rate": "gradient step size",
    "negatives": "negative samples per positive",
    "margin": "ranking margin",
    "rng_seed": "random seed",
    "workers": "worker count (EXEA_WORKERS overrides)",
    "sample_n": "fidelity sample size",
    "mode": "metric to compute",
    "n_entities": "entities per side",
    "n_relations": "relation count",
    "density": "mean out-degree",
    "rename_noise": "fraction of target triples dropped",
    "seed_fraction": "fraction of gold pairs used as seeds",
    "embedding_noise": "stddev of embedding perturbation",
    "conflict_injection": "fraction of sources pushed toward a shared target",
}


def _default_label(key: str) -> str:
    if key == "beta":
        return "sigmoid(theta)"
    return str(DEFAULTS[key])


class _Parser(argparse.ArgumentParser):
    # bad flags are configuration errors and must exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _opt(sub: argparse.ArgumentParser, key: str, typ=None, **kwargs):
    flag = "--" + key.replace("_", "-")
    help_text = f"{_HELP[key]} (default: {_default_label(key)})"
    if typ is bool:
        sub.add_argument(
            flag, dest=key, action="store_true", default=argparse.SUPPRESS, help=help_text
        )
    else:
        sub.add_argument(
            flag, dest=key, type=typ, default=argparse.SUPPRESS, help=help_text, **kwargs
        )


def _path_opt(sub: argparse.ArgumentParser, key: str, help_text: str, required=False):
    flag = "--" + key.replace("_", "-")
    sub.add_argument(
        flag, dest=key, default=argparse.SUPPRESS, help=help_text, required=required
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exea", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"exea {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, *, kgs=True, emb=False):
        sub.add_argument(
            "--config", default=argparse.SUPPRESS,
            help="flat JSON config file; flags override its values",
        )
        if kgs:
            _path_opt(sub, "kg1", "source-side triples TSV")
            _path_opt(sub, "kg2", "target-side triples TSV")
            for side in ("1", "2"):
                _path_opt(sub, f"ent_ids{side}", f"entity label TSV for side {side} "
                          "(default: derived from the triples file name)")
                _path_opt(sub, f"rel_ids{side}", f"relation label TSV for side {side} "
                          "(default: derived from the triples file name)")
        if emb:
            _path_opt(sub, "emb", "embedding file")
        _opt(sub, "workers", int)

    t = subs.add_parser("train", help="fit embeddings for two graphs")
    common(t)
    _path_opt(t, "seeds", "seed alignment TSV")
    _path_opt(t, "out", "output embedding file")
    for key, typ in (("dim", int), ("epochs", int), ("learning_rate", float),
                     ("negatives", int), ("margin", float), ("rng_seed", int)):
        _opt(t, key, typ)

    i = subs.add_parser("infer", help="greedy nearest-neighbor alignment from embeddings")
    common(i, emb=True)
    _path_opt(i, "seeds", "seed alignment TSV; seed sources are skipped")
    _path_opt(i, "out", "output alignment TSV")

    e = subs.add_parser("explain", help="matched-subgraph explanation for one pair")
    common(e, emb=True)
    _path_opt(e, "alignment", "alignment TSV providing the matched context")
    e.add_argument("--pair", dest="pair", nargs=2, type=int, metavar=("SRC", "TGT"),
                   default=argparse.SUPPRESS, help="entity pair to explain")
    _path_opt(e, "out", "output JSON file")
    _opt(e, "h", int)

    a = subs.add_parser("adg", help="dependency graph and confidence for one pair")
    common(a, emb=True)
    _path_opt(a, "alignment", "alignment TSV providing the matched context")
    a.add_argument("--pair", dest="pair", nargs=2, type=int, metavar=("SRC", "TGT"),
                   default=argparse.SUPPRESS, help="entity pair to grade")
    _path_opt(a, "out", "output JSON file")
    for key, typ in (("h", int), ("alpha", float), ("weak_weight", float),
                     ("theta", float), ("gamma", float)):
        _opt(a, key, typ)

    r = subs.add_parser("repair", help="resolve conflicts in a raw alignment")
    common(r, emb=True)
    _path_opt(r, "seeds", "seed alignment TSV")
    _path_opt(r, "pred", "raw predicted alignment TSV")
    _path_opt(r, "out", "repaired alignment TSV")
    _path_opt(r, "report", "repair report JSON")
    for key, typ in (("h", int), ("k", int), ("alpha", float), ("weak_weight", float),
                     ("theta", float), ("gamma", float), ("beta", float),
                     ("score_lambda", float), ("triple_budget", int),
                     ("candidate_cap", int), ("relation_vector_source", str),
                     ("deep_chaining", bool)):
        _opt(r, key, typ)

    v = subs.add_parser("eval", help="accuracy, sparsity, fidelity, or ablation")
    common(v, emb=True)
    _opt(v, "mode", str, choices=["accuracy", "sparsity", "fidelity", "ablation"])
    _path_opt(v, "seeds", "seed alignment TSV")
    _path_opt(v, "pred", "predicted alignment TSV")
    _path_opt(v, "gold", "gold alignment TSV")
    _path_opt(v, "alignment", "alignment TSV to explain (sparsity mode)")
    _path_opt(v, "out", "report JSON file")
    _path_opt(v, "csv", "optional per-stage accuracy CSV")
    for key, typ in (("h", int), ("k", int), ("alpha", float), ("weak_weight", float),
                     ("theta", float), ("gamma", float), ("beta", float),
                     ("score_lambda", float), ("triple_budget", int),
                     ("candidate_cap", int), ("relation_vector_source", str),
                     ("deep_chaining", bool), ("sample_n", int), ("rng_seed", int),
                     ("dim", int), ("epochs", int), ("learning_rate", float),
                     ("negatives", int), ("margin", float)):
        _opt(v, key, typ)

    s = subs.add_parser("synth", help="generate a synthetic dataset directory")
    common(s, kgs=False)
    _path_opt(s, "out", "output directory")
    for key, typ in (("n_entities", int), ("n_relations", int), ("density", float),
                     ("rename_noise", float), ("seed_fraction", float),
                     ("embedding_noise", float), ("conflict_injection", float),
                     ("rng_seed", int), ("dim", int)):
        _opt(s, key, typ)

    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, then the env worker knob."""
    cfg = dict(DEFAULTS)
    given = vars(args)
    path = given.pop("config", None)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        cfg.update(loaded)
    cfg.update(given)
    env_workers = os.environ.get("EXEA_WORKERS")
    if env_workers is not None:
        try:
            cfg["workers"] = int(env_workers)
        except ValueError:
            raise ConfigError(f"EXEA_WORKERS must be an integer, got {env_workers!r}") from None
    if int(cfg.get("workers", 1)) < 1:
        raise ConfigError("workers must be at least 1")
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _check_inputs(paths: dict[str, str]) -> None:
    for name, p in paths.items():
        if not Path(p).is_file():
            raise FileNotFoundError(f"{name} file not found: {p}")


def _derive_labels(triples_path: str, kind: str, explicit: str | None) -> str:
    if explicit is not None:
        return explicit
    p = Path(triples_path)
    if "triples" not in p.name:
        raise ConfigError(
            f"cannot derive the {kind} label file from {p.name}; "
            f"pass it explicitly"
        )
    return str(p.with_name(p.name.replace("triples", kind)))


def _load_side(cfg: dict, which: str) -> tuple[Kg, dict[str, str]]:
    side = Side.SOURCE if which == "1" else Side.TARGET
    triples = cfg[f"kg{which}"]
    ents = _derive_labels(triples, "ent_ids", cfg.get(f"ent_ids{which}"))
    rels = _derive_labels(triples, "rel_ids", cfg.get(f"rel_ids{which}"))
    _check_inputs({f"kg{which} triples": triples, f"kg{which} entity labels": ents,
                   f"kg{which} relation labels": rels})
    kg = load_kg(triples, ents, rels, side)
    return kg, {f"kg{which}": triples, f"ent_ids{which}": ents, f"rel_ids{which}": rels}


def _load_pair_file(
    path: str, kg1: Kg | None = None, kg2: Kg | None = None
) -> list[tuple[int, int]]:
    """Read a two-column integer pair file. With the two graphs given, a
    source id outside ``[0, kg1.n_entities)`` or a target id outside
    ``[0, kg2.n_entities)`` is a malformed line."""
    bounds = () if kg1 is None else (("source", kg1.n_entities), ("target", kg2.n_entities))
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise MalformedLine(path, line_no, "expected two tab-separated ids")
            try:
                pair = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise MalformedLine(path, line_no, "non-integer id") from None
            for (what, n), x in zip(bounds, pair):
                if not 0 <= x < n:
                    raise MalformedLine(path, line_no, f"{what} id {x} outside [0, {n})")
            pairs.append(pair)
    return pairs


def _scored(store: EmbeddingStore, pairs: list[tuple[int, int]]) -> list[tuple[int, int, float]]:
    """Each pair with the cosine of its two entity vectors."""
    sims = pair_cosines(
        store, Side.SOURCE, [s for s, _ in pairs], Side.TARGET, [t for _, t in pairs]
    )
    return [(s, t, sim) for (s, t), sim in zip(pairs, sims.tolist())]


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: str | Path, obj) -> None:
    _atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_pairs(path: str | Path, pairs) -> None:
    _atomic_write_text(path, "".join(f"{s}\t{t}\n" for s, t in pairs))


def _write_manifest(command: str, cfg: dict, inputs: dict, outputs: dict) -> None:
    primary = next(iter(outputs.values()))
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: cfg.get(k) for k in sorted(cfg)},
        "config_hash": hashlib.sha256(_canonical(cfg).encode()).hexdigest(),
        "input_hashes": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "output_hashes": {name: _sha256(p) for name, p in sorted(outputs.items())},
    }
    _write_json(Path(primary).parent / "manifest.json", manifest)


def _adg_config(cfg: dict) -> AdgConfig:
    return AdgConfig(
        alpha=float(cfg["alpha"]),
        weak_weight=float(cfg["weak_weight"]),
        theta=float(cfg["theta"]),
        gamma=float(cfg["gamma"]),
    )


def _repair_config(cfg: dict) -> RepairConfig:
    beta = cfg["beta"]
    return RepairConfig(
        h=int(cfg["h"]),
        k=int(cfg["k"]),
        adg=_adg_config(cfg),
        beta=None if beta is None else float(beta),
        score_lambda=float(cfg["score_lambda"]),
        triple_budget=int(cfg["triple_budget"]),
        candidate_cap=int(cfg["candidate_cap"]),
        relation_vector_source=str(cfg["relation_vector_source"]),
        deep_chaining=bool(cfg["deep_chaining"]),
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        dim=int(cfg["dim"]),
        epochs=int(cfg["epochs"]),
        learning_rate=float(cfg["learning_rate"]),
        negatives_per_positive=int(cfg["negatives"]),
        margin=float(cfg["margin"]),
        seed=int(cfg["rng_seed"]),
    )


def _entity_json(ref) -> dict:
    return {"side": ref.side.value, "index": ref.index, "label": ref.label}


def _path_json(path) -> list[dict]:
    return [
        {
            "direction": step.direction.value,
            "relation": step.relation.index,
            "relation_label": step.relation.label,
            "entity": step.entity.index,
            "entity_label": step.entity.label,
        }
        for step in path.steps
    ]


def _triples_json(triples) -> dict:
    by_side = {"source": [], "target": []}
    for t in sorted(triples, key=lambda t: (t.subject.side.value, t.key())):
        by_side[t.subject.side.value].append(list(t.key()))
    return by_side


def _explanation_json(expl: Explanation, store: EmbeddingStore) -> dict:
    neighbors = []
    for a, b in expl.matched_neighbor_pairs:
        sim = float(
            cosine(store.entity_matrix(a.side)[a.index], store.entity_matrix(b.side)[b.index])
        )
        neighbors.append(
            {"source": _entity_json(a), "target": _entity_json(b), "similarity": sim}
        )
    return {
        "pair": {
            "source": _entity_json(expl.pair[0]),
            "target": _entity_json(expl.pair[1]),
        },
        "no_match": expl.no_match,
        "neighbor_pairs": neighbors,
        "path_pairs": [
            {
                "similarity": p.similarity,
                "source_path": _path_json(p.source_path),
                "target_path": _path_json(p.target_path),
            }
            for p in expl.path_pairs
        ],
        "triples": _triples_json(expl.triples),
    }


def _adg_json(adg: Adg) -> dict:
    def node(n):
        return {
            "pair": [_entity_json(n.pair[0]), _entity_json(n.pair[1])],
            "influence": n.influence,
            "is_central": n.is_central,
        }

    return {
        "central": node(adg.central),
        "neighbors": [node(n) for n in adg.neighbors],
        "edges": [
            {
                "neighbor": e.neighbor,
                "class": e.edge_class.value,
                "weight": e.weight,
                "paths": {
                    "similarity": e.paths.similarity,
                    "source_path": _path_json(e.paths.source_path),
                    "target_path": _path_json(e.paths.target_path),
                },
            }
            for e in adg.edges
        ],
        "aggregates": {"c_s": adg.c_s, "c_m": adg.c_m, "c_w": adg.c_w},
        "confidence": adg.confidence,
        "central_conflict": adg.central_conflict,
    }


def _cmd_train(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "seeds", "out")
    kg1, in1 = _load_side(cfg, "1")
    kg2, in2 = _load_side(cfg, "2")
    _check_inputs({"seeds": cfg["seeds"]})
    seeds = _load_pair_file(cfg["seeds"], kg1, kg2)
    store = train(kg1, kg2, seeds, _train_config(cfg))
    save_embeddings(cfg["out"], store)
    _write_manifest("train", cfg, {**in1, **in2, "seeds": cfg["seeds"]}, {"out": cfg["out"]})


def _cmd_infer(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "emb", "out")
    kg1, in1 = _load_side(cfg, "1")
    kg2, in2 = _load_side(cfg, "2")
    inputs = {**in1, **in2, "emb": cfg["emb"]}
    _check_inputs({"emb": cfg["emb"]})
    store = load_embeddings(cfg["emb"])
    skip = set()
    if cfg.get("seeds") is not None:
        _check_inputs({"seeds": cfg["seeds"]})
        inputs["seeds"] = cfg["seeds"]
        skip = {s for s, _ in _load_pair_file(cfg["seeds"], kg1, kg2)}
    sources = [s for s in range(kg1.n_entities) if s not in skip]
    pairs = [(s, t) for s, t, _ in greedy_align(store, sources, range(kg2.n_entities))]
    _write_pairs(cfg["out"], pairs)
    _write_manifest("infer", cfg, inputs, {"out": cfg["out"]})


def _context(cfg: dict):
    kg1, in1 = _load_side(cfg, "1")
    kg2, in2 = _load_side(cfg, "2")
    _check_inputs({"emb": cfg["emb"], "alignment": cfg["alignment"]})
    store = load_embeddings(cfg["emb"])
    alignments = _load_pair_file(cfg["alignment"], kg1, kg2)
    inputs = {**in1, **in2, "emb": cfg["emb"], "alignment": cfg["alignment"]}
    return kg1, kg2, store, alignments, inputs


def _cmd_explain(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "emb", "alignment", "pair", "out")
    kg1, kg2, store, alignments, inputs = _context(cfg)
    pair = tuple(int(x) for x in cfg["pair"])
    expl = explanation(pair, kg1, kg2, store, alignments, int(cfg["h"]))
    _write_json(cfg["out"], _explanation_json(expl, store))
    _write_manifest("explain", cfg, inputs, {"out": cfg["out"]})


def _cmd_adg(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "emb", "alignment", "pair", "out")
    kg1, kg2, store, alignments, inputs = _context(cfg)
    pair = tuple(int(x) for x in cfg["pair"])
    expl = explanation(pair, kg1, kg2, store, alignments, int(cfg["h"]))
    adg = build_adg(expl, kg1, kg2, store, _adg_config(cfg))
    _write_json(cfg["out"], _adg_json(adg))
    _write_manifest("adg", cfg, inputs, {"out": cfg["out"]})


def _cmd_repair(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "emb", "seeds", "pred", "out", "report")
    kg1, in1 = _load_side(cfg, "1")
    kg2, in2 = _load_side(cfg, "2")
    _check_inputs({"emb": cfg["emb"], "seeds": cfg["seeds"], "pred": cfg["pred"]})
    store = load_embeddings(cfg["emb"])
    seeds = _load_pair_file(cfg["seeds"], kg1, kg2)
    raw = _scored(store, _load_pair_file(cfg["pred"], kg1, kg2))
    result = repair(kg1, kg2, store, raw, seeds, _repair_config(cfg))
    _write_pairs(cfg["out"], result.pairs)
    _write_json(cfg["report"], result.report.to_json_dict())
    inputs = {**in1, **in2, "emb": cfg["emb"], "seeds": cfg["seeds"], "pred": cfg["pred"]}
    _write_manifest("repair", cfg, inputs, {"out": cfg["out"], "report": cfg["report"]})


def _eval_accuracy(cfg: dict) -> tuple[EvalReport, dict]:
    _require(cfg, "pred", "gold")
    _check_inputs({"pred": cfg["pred"], "gold": cfg["gold"]})
    pred = _load_pair_file(cfg["pred"])
    gold = _load_pair_file(cfg["gold"])
    report = EvalReport(
        accuracy=accuracy(pred, gold),
        mean_sparsity=0.0,
        fidelity=None,
        per_stage_accuracy={},
        sample_size=len(gold),
        empty_explanations=0,
        config={"mode": "accuracy"},
    )
    return report, {"pred": cfg["pred"], "gold": cfg["gold"]}


def _eval_sparsity(cfg: dict) -> tuple[EvalReport, dict]:
    _require(cfg, "kg1", "kg2", "emb", "alignment")
    kg1, kg2, store, alignments, inputs = _context(cfg)
    h = int(cfg["h"])
    expl_triples = {
        pair: explanation(pair, kg1, kg2, store, alignments, h).triples
        for pair in alignments
    }
    mean, empty = explanation_sparsity_stats(kg1, kg2, expl_triples, h)
    report = EvalReport(
        accuracy=0.0,
        mean_sparsity=mean,
        fidelity=None,
        per_stage_accuracy={},
        sample_size=len(alignments),
        empty_explanations=empty,
        config={"mode": "sparsity", "h": h},
    )
    return report, inputs


def _eval_fidelity(cfg: dict) -> tuple[EvalReport, dict]:
    _require(cfg, "kg1", "kg2", "emb", "seeds", "pred", "gold")
    kg1, in1 = _load_side(cfg, "1")
    kg2, in2 = _load_side(cfg, "2")
    _check_inputs({"emb": cfg["emb"], "seeds": cfg["seeds"],
                   "pred": cfg["pred"], "gold": cfg["gold"]})
    store = load_embeddings(cfg["emb"])
    seeds = _load_pair_file(cfg["seeds"], kg1, kg2)
    pred = _load_pair_file(cfg["pred"], kg1, kg2)
    gold = _load_pair_file(cfg["gold"], kg1, kg2)
    h = int(cfg["h"])
    sample = sample_correct_pairs(pred, gold, int(cfg["sample_n"]), int(cfg["rng_seed"]))
    if not sample:
        raise ConfigError("no correct predictions to sample for fidelity")
    context = seeds + pred
    expl = {
        pair: explanation(pair, kg1, kg2, store, context, h).triples
        for pair in sample
    }
    fid = fidelity(kg1, kg2, seeds, expl, _train_config(cfg), h)
    report = EvalReport(
        accuracy=accuracy(pred, gold),
        mean_sparsity=explanation_sparsity_stats(kg1, kg2, expl, h)[0],
        fidelity=fid,
        per_stage_accuracy={},
        sample_size=len(sample),
        empty_explanations=sum(1 for t in expl.values() if not t),
        config={"mode": "fidelity", "h": h, "sample_n": int(cfg["sample_n"]),
                "rng_seed": int(cfg["rng_seed"]), "trainer": asdict(_train_config(cfg))},
    )
    inputs = {**in1, **in2, "emb": cfg["emb"], "seeds": cfg["seeds"],
              "pred": cfg["pred"], "gold": cfg["gold"]}
    return report, inputs


def _eval_ablation(cfg: dict) -> tuple[EvalReport, dict]:
    _require(cfg, "kg1", "kg2", "emb", "seeds", "pred", "gold")
    kg1, in1 = _load_side(cfg, "1")
    kg2, in2 = _load_side(cfg, "2")
    _check_inputs({"emb": cfg["emb"], "seeds": cfg["seeds"],
                   "pred": cfg["pred"], "gold": cfg["gold"]})
    store = load_embeddings(cfg["emb"])
    seeds = _load_pair_file(cfg["seeds"], kg1, kg2)
    gold = _load_pair_file(cfg["gold"], kg1, kg2)
    raw = _scored(store, _load_pair_file(cfg["pred"], kg1, kg2))
    report = ablation(kg1, kg2, store, raw, seeds, gold, _repair_config(cfg))
    inputs = {**in1, **in2, "emb": cfg["emb"], "seeds": cfg["seeds"],
              "pred": cfg["pred"], "gold": cfg["gold"]}
    return report, inputs


def _cmd_eval(cfg: dict) -> None:
    _require(cfg, "out")
    mode = cfg["mode"]
    runners = {
        "accuracy": _eval_accuracy,
        "sparsity": _eval_sparsity,
        "fidelity": _eval_fidelity,
        "ablation": _eval_ablation,
    }
    if mode not in runners:
        raise ConfigError(f"unknown eval mode {mode!r}")
    report, inputs = runners[mode](cfg)
    _write_json(cfg["out"], report.to_json_dict())
    outputs = {"out": cfg["out"]}
    if cfg.get("csv") is not None:
        rows = ["stage,accuracy"] + [
            f"{stage},{report.per_stage_accuracy[stage]}"
            for stage in sorted(report.per_stage_accuracy)
        ]
        _atomic_write_text(cfg["csv"], "\n".join(rows) + "\n")
        outputs["csv"] = cfg["csv"]
    _write_manifest("eval", cfg, inputs, outputs)


def _cmd_synth(cfg: dict) -> None:
    _require(cfg, "out")
    scfg = SynthConfig(
        n_entities=int(cfg["n_entities"]),
        n_relations=int(cfg["n_relations"]),
        density=float(cfg["density"]),
        rename_noise=float(cfg["rename_noise"]),
        seed_fraction=float(cfg["seed_fraction"]),
        embedding_noise=float(cfg["embedding_noise"]),
        conflict_injection=float(cfg["conflict_injection"]),
        rng_seed=int(cfg["rng_seed"]),
        dim=int(cfg["dim"]),
    )
    result = generate_pair(scfg)
    paths = write_dataset(result, cfg["out"])
    outputs = {name: str(p) for name, p in sorted(paths.items())}
    _write_manifest("synth", cfg, {}, outputs)


_COMMANDS = {
    "train": _cmd_train,
    "infer": _cmd_infer,
    "explain": _cmd_explain,
    "adg": _cmd_adg,
    "repair": _cmd_repair,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help/--version exit 0; parse failures already exit 1
        return int(exc.code or 0)
    command = args.command
    del args.command
    try:
        cfg = _resolve_config(args)
        _COMMANDS[command](cfg)
    except (ConfigError, DegenerateConfig) as exc:
        print(f"exea {command}: config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(
            f"exea {command}: invariant '{exc.invariant}' violated: {exc}",
            file=sys.stderr,
        )
        return 3
    except (OSError, ExeaError) as exc:
        print(f"exea {command}: data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
