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

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from importlib import import_module
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import __version__
from .embedding import (
    EmbeddingStore,
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
    MissingEmbedding,
)
from .kg import SIDES, Kg, Side, Step, check_hops, load_kg, seed_targets, tsv_lines

# module -> the names taken from it, imported when a command first needs
# them (see ``_bind``): ``exea infer`` compiles none of these modules
_DEFERRED = {
    "adg": ("Adg", "AdgConfig", "EdgeClass", "build_adg"),
    "evaluate": ("EvalReport", "ablation", "accuracy", "explanation_sparsity_stats",
                 "fidelity", "sample_correct_pairs"),
    "explain": ("Explanation", "explain_pairs", "explanation"),
    "repair": ("AlignmentState", "RepairConfig", "repair"),
    "synth": ("SynthConfig", "generate_pair", "write_dataset"),
    "trainer": ("TrainConfig", "train"),
}
_DEFERRED_FROM = {name: module for module, names in _DEFERRED.items() for name in names}


def _bind(module: str) -> None:
    """Import ``module`` and bind its deferred names here. A name already
    bound keeps its value, so a wrapper set over one before ``main`` runs is
    the one the handlers call."""
    mod = import_module(f".{module}", __package__)
    for name in _DEFERRED[module]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    module = _DEFERRED_FROM.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


class Option(NamedTuple):
    """One key of the command line and of the config file."""

    type: type  # int, float, str, or tuple for a pair of entity ids
    default: object  # ABSENT: the key enters the config only when given
    help: str
    choices: tuple[str, ...] | None = None


ABSENT = object()
_LABELS = "label TSV (default: derived from the triples file name)"

OPTIONS: dict[str, Option] = {
    # input and output files
    "kg1": Option(str, ABSENT, "source-side triples TSV"),
    "kg2": Option(str, ABSENT, "target-side triples TSV"),
    "ent_ids1": Option(str, ABSENT, f"source-side entity {_LABELS}"),
    "rel_ids1": Option(str, ABSENT, f"source-side relation {_LABELS}"),
    "ent_ids2": Option(str, ABSENT, f"target-side entity {_LABELS}"),
    "rel_ids2": Option(str, ABSENT, f"target-side relation {_LABELS}"),
    "emb": Option(str, ABSENT, "embedding file"),
    "seeds": Option(str, ABSENT, "seed alignment TSV (infer skips seed sources)"),
    "pred": Option(str, ABSENT, "predicted alignment TSV"),
    "gold": Option(str, ABSENT, "gold alignment TSV"),
    "alignment": Option(str, ABSENT, "alignment TSV providing the matched context "
                        "(eval --mode sparsity explains each of its pairs)"),
    "pair": Option(tuple, ABSENT, "entity pair to explain or grade"),
    "out": Option(str, ABSENT, "primary output file (synth: output directory)"),
    "report": Option(str, ABSENT, "repair report JSON"),
    "csv": Option(str, ABSENT, "optional per-stage accuracy CSV"),
    # tunables
    "h": Option(int, 2, "neighborhood radius in hops"),
    "k": Option(int, 10, "candidate list length for conflict resolution"),
    "alpha": Option(float, 0.5, "moderate-edge weight multiplier"),
    "weak_weight": Option(float, 0.1, "fixed weight of weak edges"),
    "theta": Option(float, 0.5, "confidence gate for the strong aggregate"),
    "gamma": Option(float, 0.3, "confidence gate for the moderate aggregate"),
    "beta": Option(float, None, "low-confidence floor"),
    "score_lambda": Option(float, 1.0, "similarity weight in rematch scores"),
    "triple_budget": Option(int, 200, "max triples consulted for cross-graph facts"),
    "candidate_cap": Option(int, 50, "max rematch candidates per entity"),
    "relation_vector_source": Option(str, "derived",
                                     "relation vectors: derived, native, or name"),
    "dim": Option(int, 32, "embedding dimension"),
    "epochs": Option(int, 800, "training epochs"),
    "learning_rate": Option(float, 0.02, "gradient step size"),
    "negatives": Option(int, 2, "negative samples per positive"),
    "margin": Option(float, 1.0, "ranking margin"),
    "rng_seed": Option(int, 0, "random seed"),
    "sample_n": Option(int, 100, "fidelity sample size"),
    "mode": Option(str, "ablation", "metric to compute",
                   ("accuracy", "sparsity", "fidelity", "ablation")),
    "n_entities": Option(int, 200, "entities per side"),
    "n_relations": Option(int, 8, "relation count"),
    "density": Option(float, 3.0, "mean out-degree"),
    "rename_noise": Option(float, 0.0, "fraction of target triples dropped"),
    "seed_fraction": Option(float, 0.3, "fraction of gold pairs used as seeds"),
    "embedding_noise": Option(float, 0.05, "stddev of embedding perturbation"),
    "conflict_injection": Option(float, 0.0,
                                 "fraction of sources pushed toward a shared target"),
}

# every run starts from these; the manifest records them with the given keys
DEFAULTS = {key: opt.default for key, opt in OPTIONS.items() if opt.default is not ABSENT}


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


def _add_option(sub: argparse.ArgumentParser, key: str) -> None:
    opt = OPTIONS[key]
    help_text = opt.help
    if opt.default is not ABSENT:
        help_text += f" (default: {_default_label(key)})"
    if opt.type is tuple:
        kwargs = {"nargs": 2, "type": int, "metavar": ("SRC", "TGT")}
    else:
        kwargs = {"type": opt.type, "choices": opt.choices}
    sub.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                     help=help_text, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exea", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"exea {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys, *_) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument(
            "--config", default=argparse.SUPPRESS,
            help="flat JSON config file; flags override its values",
        )
        for key in keys:
            _add_option(sub, key)
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_config_value(path: str, key: str, value) -> None:
    """A config-file value must be of its key's type (null where the default
    is null); an unknown key is an error."""
    opt = OPTIONS.get(key)
    if opt is None:
        raise ConfigError(f"config file {path}: unknown key {key!r}")
    if value is None and opt.default is None:
        return
    if opt.type is tuple:
        ok, want = (isinstance(value, list) and len(value) == 2
                    and all(map(_is_int, value))), "a list of two integers"
    elif opt.type is int:
        ok, want = _is_int(value), "an integer"
    elif opt.type is float:
        ok, want = _is_int(value) or isinstance(value, float), "a number"
    elif opt.choices:
        ok, want = value in opt.choices, f"one of {', '.join(opt.choices)}"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config file {path}: {key!r} must be {want}, got {value!r}")


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
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
        for key, value in loaded.items():
            _check_config_value(path, key, value)
        cfg.update(loaded)
    cfg.update(given)
    return cfg


def _check_outputs(command: str, cfg: dict) -> None:
    """No output of a command may resolve to the file of another of its
    outputs or of one of its inputs: writing it would destroy that file.
    The inputs include the label files derived from --kg1 and --kg2, and
    the outputs the manifest written beside --out."""
    keys = _COMMANDS[command][1]
    # what each file is called in messages -> (path, whether it is written)
    files = {
        "--" + k.replace("_", "-"): (cfg[k], k in _OUTPUTS)
        for k in _INPUTS + _OUTPUTS
        if k in keys and cfg.get(k) is not None
    }
    for which in "12":
        triples = cfg.get(f"kg{which}")
        if f"kg{which}" not in keys or triples is None or "triples" not in Path(triples).name:
            continue
        for kind, what in (("ent_ids", "entity"), ("rel_ids", "relation")):
            if cfg.get(f"{kind}{which}") is None:
                derived = _derive_labels(triples, kind, None)
                files[f"the {what} labels derived from --kg{which}"] = (derived, False)
    if cfg.get("out") is not None:
        files["the manifest written beside --out"] = (_manifest_path(command, cfg), True)
    seen: dict[Path, tuple[str, bool]] = {}
    for name, (p, written) in files.items():
        path = Path(p).resolve()
        first, first_written = seen.setdefault(path, (name, written))
        if first != name and (written or first_written):
            raise ConfigError(f"{first} and {name} both name {path}")


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


def _pair_lines(
    path: str, kg1: Kg | None = None, kg2: Kg | None = None
) -> Iterator[tuple[int, tuple[int, int]]]:
    """Each line number and pair of a two-column integer pair file. With the
    two graphs given, a source id outside ``[0, kg1.n_entities)`` or a target
    id outside ``[0, kg2.n_entities)`` is a malformed line."""
    bounds = () if kg1 is None else (("source", kg1.n_entities), ("target", kg2.n_entities))
    for line_no, parts in tsv_lines(path):
        if len(parts) < 2:
            raise MalformedLine(path, line_no, "expected two tab-separated ids")
        try:
            pair = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise MalformedLine(path, line_no, "non-integer id") from None
        for (what, n), x in zip(bounds, pair):
            if not 0 <= x < n:
                raise MalformedLine(path, line_no, f"{what} id {x} outside [0, {n})")
        yield line_no, pair


def _load_pair_file(
    path: str, kg1: Kg | None = None, kg2: Kg | None = None
) -> list[tuple[int, int]]:
    """The pairs of a pair file, in file order (see ``_pair_lines``)."""
    return [pair for _, pair in _pair_lines(path, kg1, kg2)]


def _context(path: str, pairs: list[tuple[int, int]]) -> dict[int, int]:
    """The pairs of the ``--alignment`` file ``path`` as the matched context,
    source -> target. The context holds one target per source, so a source
    listed twice is a malformed line rather than a silent overwrite."""
    context = dict(pairs)
    if len(context) < len(pairs):
        first: dict[int, int] = {}
        for line_no, (s, _) in _pair_lines(path):
            if s in first:
                reason = f"source {s} is already aligned on line {first[s]}"
                raise MalformedLine(path, line_no, reason)
            first[s] = line_no
    return context


class _Inputs(NamedTuple):
    kg1: Kg
    kg2: Kg
    store: EmbeddingStore | None
    pairs: dict[str, list[tuple[int, int]]]  # by key, for each pair file read
    paths: dict[str, str]  # every file read, by key, for the manifest


def _load_inputs(cfg: dict, pair_keys: tuple[str, ...] = (), emb: bool = True) -> _Inputs:
    """Both graphs, the embedding file (with ``emb``) and each pair file of
    ``pair_keys`` that the config names, every pair range-checked against the
    two graphs and every entity of both graphs given a vector."""
    kg1, in1 = _load_side(cfg, "1")
    kg2, in2 = _load_side(cfg, "2")
    named = {key: cfg[key] for key in (("emb",) if emb else ()) + pair_keys
             if cfg.get(key) is not None}
    _check_inputs(named)
    store = None
    if emb:
        store = load_embeddings(cfg["emb"])
        for kg in (kg1, kg2):
            rows = store.n_entities(kg.side) if kg.side in store.sides() else 0
            if rows < kg.n_entities:
                raise MissingEmbedding(
                    f"{cfg['emb']}: {rows} entity vectors on side {kg.side.value}, "
                    f"the graph has {kg.n_entities} entities"
                )
    pairs = {key: _load_pair_file(cfg[key], kg1, kg2) for key in pair_keys if key in named}
    return _Inputs(kg1, kg2, store, pairs, {**in1, **in2, **named})


# the interpreter's built-in SHA-256: hashlib's own maps OpenSSL's
# libcrypto, several MB resident, into a process that needs nothing else of
# it, so hashlib serves only where the built-in module is not built
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


def _sha256(data: bytes = b""):
    """A SHA-256 hash object over ``data``."""
    try:
        module = import_module(_BUILTIN_SHA256)
    except ImportError:
        module = import_module("hashlib")
    return module.sha256(data)


def _file_sha256(path: str | Path) -> str:
    digest = _sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _atomic_write(path: str | Path, write: Callable[[Path], None]) -> None:
    """Let ``write`` fill a temp file next to ``path``, then rename it there."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_json(path: str | Path, obj) -> None:
    def write(tmp: Path) -> None:
        # streamed, so the whole text is never held
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")

    _atomic_write(path, write)


def _write_pairs(path: str | Path, pairs) -> None:
    _atomic_write_text(path, "".join(f"{s}\t{t}\n" for s, t in pairs))


def _manifest_path(command: str, cfg: dict) -> Path:
    """Where a command writes its manifest: beside --out, or inside it for
    synth, whose --out is a directory."""
    out = Path(cfg["out"])
    return out / "manifest.json" if command == "synth" else out.parent / "manifest.json"


def _write_manifest(command: str, cfg: dict, inputs: dict, outputs: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: cfg.get(k) for k in sorted(cfg)},
        "config_hash": _sha256(_canonical(cfg).encode()).hexdigest(),
        "input_hashes": {name: _file_sha256(p) for name, p in sorted(inputs.items())},
        "output_hashes": {name: _file_sha256(p) for name, p in sorted(outputs.items())},
    }
    _write_json(_manifest_path(command, cfg), manifest)


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


def _entity_json(kg: Kg, index: int) -> dict:
    return {"side": kg.side.value, "index": index, "label": kg.entity_labels[index]}


def _path_json(kg: Kg, steps: tuple[Step, ...]) -> list[dict]:
    return [
        {
            "direction": ("out", "in")[rank],
            "relation": r,
            "relation_label": kg.relation_labels[r],
            "entity": u,
            "entity_label": kg.entity_labels[u],
        }
        for rank, r, u in steps
    ]


def _path_pairs_json(expl: Explanation, kg1: Kg, kg2: Kg) -> list[dict]:
    return [
        {
            "similarity": sim,
            "source_path": _path_json(kg1, path1),
            "target_path": _path_json(kg2, path2),
        }
        for path1, path2, sim in expl.path_matches()
    ]


def _triples_json(triple_keys) -> dict:
    by_side = {"source": [], "target": []}
    for side, s, r, o in sorted(triple_keys):
        by_side[SIDES[side].value].append([s, r, o])
    return by_side


def _explanation_json(expl: Explanation, kg1: Kg, kg2: Kg, store: EmbeddingStore) -> dict:
    pairs = expl.matched_neighbor_pairs
    sims = pair_cosines(store, kg1.side, [a for a, _ in pairs], kg2.side, [b for _, b in pairs])
    neighbors = [
        {"source": _entity_json(kg1, a), "target": _entity_json(kg2, b), "similarity": sim}
        for (a, b), sim in zip(pairs, sims.tolist())
    ]
    e1, e2 = expl.pair
    return {
        "pair": {"source": _entity_json(kg1, e1), "target": _entity_json(kg2, e2)},
        "no_match": expl.no_match,
        "neighbor_pairs": neighbors,
        "path_pairs": _path_pairs_json(expl, kg1, kg2),
        "triples": _triples_json(expl.triple_keys),
    }


def _adg_json(adg: Adg, kg1: Kg, kg2: Kg) -> dict:
    # node 0 is the central pair, then one node per matched neighbor pair
    pairs = [adg.explanation.pair] + adg.explanation.matched_neighbor_pairs
    nodes = [
        {
            "pair": [_entity_json(kg1, a), _entity_json(kg2, b)],
            "influence": x,
            "is_central": i == 0,
        }
        for i, ((a, b), x) in enumerate(zip(pairs, adg.influence))
    ]

    classes = tuple(EdgeClass)
    edges = zip(
        adg.edge_neighbor.tolist(),
        adg.edge_class.tolist(),
        adg.edge_weight.tolist(),
        _path_pairs_json(adg.explanation, kg1, kg2),
    )
    return {
        "central": nodes[0],
        "neighbors": nodes[1:],
        "edges": [
            {"neighbor": n, "class": classes[c].value, "weight": w, "paths": paths}
            for n, c, w, paths in edges
        ],
        "aggregates": {"c_s": adg.c_s, "c_m": adg.c_m, "c_w": adg.c_w},
        "confidence": adg.confidence,
    }


def _cmd_train(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "seeds", "out")
    data = _load_inputs(cfg, ("seeds",), emb=False)
    # seeds that are not one-to-one fail here as in repair and fidelity,
    # before any training; the library train() accepts them
    seed_targets(data.pairs["seeds"], data.kg1.n_entities, data.kg2.n_entities)
    store = train(data.kg1, data.kg2, data.pairs["seeds"], _train_config(cfg))
    _atomic_write(cfg["out"], lambda tmp: save_embeddings(tmp, store))
    _write_manifest("train", cfg, data.paths, {"out": cfg["out"]})


def _cmd_infer(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "emb", "out")
    data = _load_inputs(cfg, ("seeds",))
    skip = {s for s, _ in data.pairs.get("seeds", ())}
    sources = [s for s in range(data.kg1.n_entities) if s not in skip]
    aligned = greedy_align(data.store, sources, range(data.kg2.n_entities))
    _write_pairs(cfg["out"], [(s, t) for s, t, _ in aligned])
    _write_manifest("infer", cfg, data.paths, {"out": cfg["out"]})


def _pair_explanation(cfg: dict) -> tuple[_Inputs, Explanation]:
    _require(cfg, "kg1", "kg2", "emb", "alignment", "pair", "out")
    data = _load_inputs(cfg, ("alignment",))
    pair = tuple(int(x) for x in cfg["pair"])
    context = _context(cfg["alignment"], data.pairs["alignment"])
    expl = explanation(pair, data.kg1, data.kg2, data.store, context, int(cfg["h"]))
    return data, expl


def _cmd_explain(cfg: dict) -> None:
    data, expl = _pair_explanation(cfg)
    _write_json(cfg["out"], _explanation_json(expl, data.kg1, data.kg2, data.store))
    _write_manifest("explain", cfg, data.paths, {"out": cfg["out"]})


def _cmd_adg(cfg: dict) -> None:
    data, expl = _pair_explanation(cfg)
    adg = build_adg([expl], data.store, _adg_config(cfg))[0]
    _write_json(cfg["out"], _adg_json(adg, data.kg1, data.kg2))
    _write_manifest("adg", cfg, data.paths, {"out": cfg["out"]})


def _cmd_repair(cfg: dict) -> None:
    _require(cfg, "kg1", "kg2", "emb", "seeds", "pred", "out", "report")
    data = _load_inputs(cfg, ("seeds", "pred"))
    result = repair(data.kg1, data.kg2, data.store, data.pairs["pred"], data.pairs["seeds"],
                    _repair_config(cfg))
    _write_pairs(cfg["out"], result.pairs)
    _write_json(cfg["report"], result.report.to_json_dict())
    _write_manifest("repair", cfg, data.paths, {"out": cfg["out"], "report": cfg["report"]})


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
    h = int(cfg["h"])
    check_hops(h)
    data = _load_inputs(cfg, ("alignment",))
    kg1, kg2 = data.kg1, data.kg2
    context = _context(cfg["alignment"], data.pairs["alignment"])
    if not context:
        raise ConfigError(f"alignment file {cfg['alignment']} holds no pairs")
    pairs = list(context.items())
    forward = AlignmentState((), pairs, kg1.n_entities, kg2.n_entities).forward
    expl_triples = {
        pair: expl.triple_keys
        for pair, expl in zip(pairs, explain_pairs(pairs, kg1, kg2, data.store, forward, h))
    }
    mean, empty = explanation_sparsity_stats(kg1, kg2, expl_triples, h)
    report = EvalReport(
        accuracy=0.0,
        mean_sparsity=mean,
        fidelity=None,
        per_stage_accuracy={},
        sample_size=len(context),
        empty_explanations=empty,
        config={"mode": "sparsity", "h": h},
    )
    return report, data.paths


def _eval_fidelity(cfg: dict) -> tuple[EvalReport, dict]:
    _require(cfg, "kg1", "kg2", "emb", "seeds", "pred", "gold")
    if int(cfg["sample_n"]) < 1:
        raise ConfigError(f"sample_n must be >= 1, got {cfg['sample_n']}")
    trainer = _train_config(cfg)
    data = _load_inputs(cfg, ("seeds", "pred", "gold"))
    kg1, kg2, store = data.kg1, data.kg2, data.store
    seeds, pred, gold = (data.pairs[key] for key in ("seeds", "pred", "gold"))
    # the checks repair makes: seeds one-to-one, a source predicted once; a
    # seed wins over a prediction for its source
    state = AlignmentState(seeds, pred, kg1.n_entities, kg2.n_entities)
    h = int(cfg["h"])
    # retraining pulls a seed pair together whatever its explanation says, so
    # a seed pair repeated in the predictions is no sample
    seed_sources = {s for s, _ in seeds}
    candidates = [(s, t) for s, t in pred if s not in seed_sources]
    sample = sample_correct_pairs(candidates, gold, int(cfg["sample_n"]), int(cfg["rng_seed"]))
    if not sample:
        raise ConfigError("no correct predictions to sample for fidelity")
    expl = {
        pair: e.triple_keys
        for pair, e in zip(sample, explain_pairs(sample, kg1, kg2, store, state.forward, h))
    }
    fid = fidelity(kg1, kg2, seeds, expl, trainer, h)
    report = EvalReport(
        accuracy=accuracy(pred, gold),
        mean_sparsity=explanation_sparsity_stats(kg1, kg2, expl, h)[0],
        fidelity=fid,
        per_stage_accuracy={},
        sample_size=len(sample),
        empty_explanations=sum(1 for t in expl.values() if not t),
        config={"mode": "fidelity", "h": h, "sample_n": int(cfg["sample_n"]),
                "rng_seed": int(cfg["rng_seed"]), "trainer": asdict(trainer)},
    )
    return report, data.paths


def _eval_ablation(cfg: dict) -> tuple[EvalReport, dict]:
    _require(cfg, "kg1", "kg2", "emb", "seeds", "pred", "gold")
    data = _load_inputs(cfg, ("seeds", "pred", "gold"))
    report = ablation(data.kg1, data.kg2, data.store, data.pairs["pred"], data.pairs["seeds"],
                      data.pairs["gold"], _repair_config(cfg))
    return report, data.paths


def _cmd_eval(cfg: dict) -> None:
    _require(cfg, "out")
    runners = {
        "accuracy": _eval_accuracy,
        "sparsity": _eval_sparsity,
        "fidelity": _eval_fidelity,
        "ablation": _eval_ablation,
    }
    report, inputs = runners[cfg["mode"]](cfg)
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


# key groups that several subcommands take
_GRAPHS = ("kg1", "kg2", "ent_ids1", "rel_ids1", "ent_ids2", "rel_ids2")
# the keys naming files a command reads, and those naming files it writes
_INPUTS = _GRAPHS + ("emb", "seeds", "pred", "gold", "alignment")
_OUTPUTS = ("out", "report", "csv")
_ADG = ("h", "alpha", "weak_weight", "theta", "gamma")
_REPAIR = _ADG + ("k", "beta", "score_lambda", "triple_budget", "candidate_cap",
                  "relation_vector_source")
_TRAIN = ("dim", "epochs", "learning_rate", "negatives", "margin", "rng_seed")

# subcommand -> (help, the keys it takes besides --config, handler, the
# deferred modules whose names the handler reads)
_COMMANDS = {
    "train": ("fit embeddings for two graphs",
              _GRAPHS + ("seeds", "out") + _TRAIN, _cmd_train, ("trainer",)),
    "infer": ("greedy nearest-neighbor alignment from embeddings",
              _GRAPHS + ("emb", "seeds", "out"), _cmd_infer, ()),
    "explain": ("matched-subgraph explanation for one pair",
                _GRAPHS + ("emb", "alignment", "pair", "out", "h"), _cmd_explain, ("explain",)),
    "adg": ("dependency graph and confidence for one pair",
            _GRAPHS + ("emb", "alignment", "pair", "out") + _ADG, _cmd_adg, ("adg", "explain")),
    "repair": ("resolve conflicts in a raw alignment",
               _GRAPHS + ("emb", "seeds", "pred", "out", "report") + _REPAIR, _cmd_repair,
               ("adg", "repair")),
    "eval": ("accuracy, sparsity, fidelity, or ablation",
             _GRAPHS + ("emb", "mode", "seeds", "pred", "gold", "alignment", "out", "csv")
             + _REPAIR + ("sample_n",) + _TRAIN, _cmd_eval,
             ("adg", "evaluate", "explain", "repair", "trainer")),
    "synth": ("generate a synthetic dataset directory",
              ("out", "n_entities", "n_relations", "density", "rename_noise", "seed_fraction",
               "embedding_noise", "conflict_injection", "rng_seed", "dim"), _cmd_synth,
              ("synth",)),
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
        _check_outputs(command, cfg)
        _, _, handler, modules = _COMMANDS[command]
        for module in modules:
            _bind(module)
        handler(cfg)
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
