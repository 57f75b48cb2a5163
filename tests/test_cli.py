"""End-to-end checks of the command line interface.

Runs subcommands in-process through ``main(argv)`` so exit codes and stderr
can be asserted cheaply; a couple of subprocess checks confirm the installed
entry point behaves the same way.
"""

import argparse
import hashlib
import json
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import exea.cli
from exea.adg import AdgConfig
from exea.cli import DEFAULTS, build_parser, main
from exea.embedding import EmbeddingStore, load_embeddings, save_embeddings
from exea.errors import InvariantViolation
from exea.evaluate import accuracy
from exea.kg import Side, load_kg
from exea.repair import RepairConfig
from exea.synth import SynthConfig
from exea.trainer import TrainConfig

from test_explain import matched_neighbors


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "synth", "--out", str(out), "--n-entities", "30",
        "--conflict-injection", "0.2", "--rng-seed", "3",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def kg_flags(dataset):
    return [
        "--kg1", str(dataset / "triples_1"),
        "--kg2", str(dataset / "triples_2"),
        "--emb", str(dataset / "embeddings.tsv"),
    ]


@pytest.fixture(scope="module")
def raw_alignment(dataset, kg_flags, tmp_path_factory):
    out = tmp_path_factory.mktemp("raw") / "raw.tsv"
    rc = main([
        "infer", *kg_flags, "--seeds", str(dataset / "train_links"),
        "--out", str(out),
    ])
    assert rc == 0
    return out


def read_pairs(path):
    return [tuple(int(x) for x in line.split("\t"))
            for line in path.read_text().splitlines()]


class TestParsing:
    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "exea" in capsys.readouterr().out

    def test_no_command_is_config_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["synth", "--bogus", "3"]) == 1

    def test_bad_int_value_is_config_error(self, capsys):
        assert main(["repair", "--k", "three"]) == 1

    def test_missing_required_options_named(self, capsys):
        rc = main(["infer", "--kg1", "x"])
        err = capsys.readouterr().err
        assert rc == 1
        for flag in ("--kg2", "--emb", "--out"):
            assert flag in err

    def test_unknown_eval_mode_rejected(self, capsys):
        assert main(["eval", "--mode", "vibes", "--out", "x"]) == 1


class TestDefaults:
    # the merge table is the single source of defaults; it must agree with
    # the dataclasses the subcommands actually construct
    def test_defaults_match_config_dataclasses(self):
        repair_cfg = RepairConfig()
        adg_cfg = AdgConfig()
        train_cfg = TrainConfig()
        synth_cfg = SynthConfig()
        assert DEFAULTS["h"] == repair_cfg.h
        assert DEFAULTS["k"] == repair_cfg.k
        assert DEFAULTS["beta"] == repair_cfg.beta
        assert DEFAULTS["score_lambda"] == repair_cfg.score_lambda
        assert DEFAULTS["triple_budget"] == repair_cfg.triple_budget
        assert DEFAULTS["candidate_cap"] == repair_cfg.candidate_cap
        assert DEFAULTS["relation_vector_source"] == repair_cfg.relation_vector_source
        assert DEFAULTS["alpha"] == adg_cfg.alpha
        assert DEFAULTS["weak_weight"] == adg_cfg.weak_weight
        assert DEFAULTS["theta"] == adg_cfg.theta
        assert DEFAULTS["gamma"] == adg_cfg.gamma
        assert DEFAULTS["dim"] == train_cfg.dim
        assert DEFAULTS["epochs"] == train_cfg.epochs
        assert DEFAULTS["learning_rate"] == train_cfg.learning_rate
        assert DEFAULTS["negatives"] == train_cfg.negatives_per_positive
        assert DEFAULTS["margin"] == train_cfg.margin
        assert DEFAULTS["rng_seed"] == train_cfg.seed == synth_cfg.rng_seed
        assert DEFAULTS["n_entities"] == synth_cfg.n_entities
        assert DEFAULTS["n_relations"] == synth_cfg.n_relations
        assert DEFAULTS["density"] == synth_cfg.density
        assert DEFAULTS["rename_noise"] == synth_cfg.rename_noise
        assert DEFAULTS["seed_fraction"] == synth_cfg.seed_fraction
        assert DEFAULTS["embedding_noise"] == synth_cfg.embedding_noise
        assert DEFAULTS["conflict_injection"] == synth_cfg.conflict_injection

    @staticmethod
    def subcommand_options(name):
        parser = build_parser()
        subs = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return {a.dest: a for a in subs.choices[name]._actions}

    @pytest.mark.parametrize("command", [
        "train", "infer", "explain", "adg", "repair", "eval", "synth",
    ])
    def test_help_shows_default_for_every_tunable(self, command):
        options = self.subcommand_options(command)
        for key, action in options.items():
            if key not in DEFAULTS:
                continue
            label = "sigmoid(theta)" if key == "beta" else str(DEFAULTS[key])
            assert f"(default: {label})" in action.help, (command, key)

    def test_repair_exposes_all_governor_knobs(self):
        options = self.subcommand_options("repair")
        for key in ("h", "k", "alpha", "weak_weight", "theta", "gamma", "beta",
                    "score_lambda", "triple_budget", "candidate_cap",
                    "relation_vector_source"):
            assert key in options, key


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"n_entities": 12, "rng_seed": 5, "density": 2.0}
        ))
        out = tmp_path / "out"
        rc = main(["synth", "--config", str(cfg_file),
                   "--out", str(out), "--rng-seed", "9"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = manifest["config"]
        assert resolved["n_entities"] == 12
        assert resolved["density"] == 2.0
        assert resolved["rng_seed"] == 9
        assert resolved["n_relations"] == DEFAULTS["n_relations"]

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["synth", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1

    def test_non_object_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["synth", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("entry", [
        {"h": "two"}, {"beta": "x"}, {"thetta": 9}, {"workers": 2},
        {"deep_chaining": True}, {"h": 2.5}, {"dim": True}, {"theta": None},
        {"mode": "vibes"}, {"pair": [1]}, {"kg1": 3},
    ])
    def test_unknown_key_or_wrong_type_is_config_error(self, tmp_path, capsys, entry):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(entry))
        out = tmp_path / "o"
        assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert repr(next(iter(entry))) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_each_value_type_accepted(self, tmp_path):
        good = tmp_path / "cfg.json"
        good.write_text(json.dumps({
            "beta": None, "h": 1, "density": 2, "theta": 0.6, "mode": "accuracy",
            "pair": [0, 1], "relation_vector_source": "native", "kg1": "unused",
        }))
        out = tmp_path / "o"
        assert main(["synth", "--config", str(good), "--out", str(out),
                     "--n-entities", "10"]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["config"]
        assert resolved["beta"] is None
        assert resolved["density"] == 2
        assert resolved["pair"] == [0, 1]


class TestWorkers:
    def test_zero_workers_is_config_error(self, tmp_path, capsys):
        # --workers changed nothing and was removed; naming it is now an
        # unknown-flag configuration error, whatever the value
        assert main(["synth", "--out", str(tmp_path / "o"),
                     "--workers", "0"]) == 1


class TestSynth:
    def test_writes_dataset_files_and_manifest(self, dataset):
        for name in ("triples_1", "triples_2", "ent_ids_1", "ent_ids_2",
                     "rel_ids_1", "rel_ids_2", "ent_links", "train_links",
                     "embeddings.tsv", "embeddings_ideal.tsv", "manifest.json"):
            assert (dataset / name).is_file(), name

    def test_manifest_hashes_match_files(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        for name, digest in manifest["output_hashes"].items():
            actual = hashlib.sha256((dataset / name).read_bytes()).hexdigest()
            assert digest == actual, name

    def test_no_temp_files_left(self, dataset):
        assert not list(dataset.glob("*.tmp"))


class TestInfer:
    def test_output_is_two_column_tsv(self, raw_alignment):
        pairs = read_pairs(raw_alignment)
        assert pairs
        assert all(len(p) == 2 for p in pairs)

    def test_seed_sources_excluded(self, dataset, raw_alignment):
        seeds = {s for s, _ in read_pairs(dataset / "train_links")}
        predicted = {s for s, _ in read_pairs(raw_alignment)}
        assert not seeds & predicted

    def test_missing_embedding_file_exits_2_naming_path(
        self, dataset, tmp_path, capsys
    ):
        missing = tmp_path / "absent.tsv"
        rc = main([
            "infer", "--kg1", str(dataset / "triples_1"),
            "--kg2", str(dataset / "triples_2"),
            "--emb", str(missing), "--out", str(tmp_path / "o.tsv"),
        ])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_malformed_pair_file_exits_2(self, dataset, kg_flags, tmp_path, capsys):
        bad = tmp_path / "seeds.tsv"
        bad.write_text("0\tx\n")
        rc = main(["infer", *kg_flags, "--seeds", str(bad),
                   "--out", str(tmp_path / "o.tsv")])
        assert rc == 2

    def test_malformed_triples_exit_2(self, dataset, tmp_path, capsys):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        (bad_dir / "triples_1").write_text("0\tno\t1\n")
        (bad_dir / "ent_ids_1").write_text("0\ta\n1\tb\n")
        (bad_dir / "rel_ids_1").write_text("0\tr\n")
        rc = main([
            "infer", "--kg1", str(bad_dir / "triples_1"),
            "--kg2", str(dataset / "triples_2"),
            "--emb", str(dataset / "embeddings.tsv"),
            "--out", str(tmp_path / "o.tsv"),
        ])
        assert rc == 2


    @pytest.mark.parametrize("target_rows", [
        "0\tnan 1\n1\t0 1\n",
        "0\t1e39 1\n1\t0 1\n",
        "0\t1 0 0\n1\t0 1 0\n",
    ], ids=["nan", "past-float32", "mixed-dimensions"])
    def test_bad_embedding_values_exit_2(self, dataset, tmp_path, capsys, target_rows):
        dim = len(target_rows.split("\n")[0].split("\t")[1].split())
        emb = tmp_path / "emb.tsv"
        emb.write_text(
            "exea-emb v1 source 2 2\n0\t1 0\n1\t0 1\n"
            f"exea-emb v1 target 2 {dim}\n{target_rows}"
        )
        rc = main([
            "infer", "--kg1", str(dataset / "triples_1"),
            "--kg2", str(dataset / "triples_2"),
            "--emb", str(emb), "--out", str(tmp_path / "o.tsv"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(emb) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.tsv").exists()


class TestLabelDerivation:
    def test_underivable_name_is_config_error(self, dataset, tmp_path, capsys):
        odd = tmp_path / "graph_one.tsv"
        odd.write_bytes((dataset / "triples_1").read_bytes())
        rc = main([
            "infer", "--kg1", str(odd), "--kg2", str(dataset / "triples_2"),
            "--emb", str(dataset / "embeddings.tsv"),
            "--out", str(tmp_path / "o.tsv"),
        ])
        assert rc == 1
        assert "graph_one.tsv" in capsys.readouterr().err

    def test_explicit_label_paths_accepted(self, dataset, tmp_path):
        odd = tmp_path / "graph_one.tsv"
        odd.write_bytes((dataset / "triples_1").read_bytes())
        rc = main([
            "infer", "--kg1", str(odd),
            "--ent-ids1", str(dataset / "ent_ids_1"),
            "--rel-ids1", str(dataset / "rel_ids_1"),
            "--kg2", str(dataset / "triples_2"),
            "--emb", str(dataset / "embeddings.tsv"),
            "--out", str(tmp_path / "o.tsv"),
        ])
        assert rc == 0


@pytest.fixture(scope="module")
def repaired(dataset, kg_flags, raw_alignment, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("repair")
    rc = main([
        "repair", *kg_flags, "--seeds", str(dataset / "train_links"),
        "--pred", str(raw_alignment),
        "--out", str(out_dir / "a_star.tsv"),
        "--report", str(out_dir / "report.json"),
    ])
    assert rc == 0
    return out_dir


class TestRepair:
    def test_outputs_exist(self, repaired):
        assert (repaired / "a_star.tsv").is_file()
        assert (repaired / "report.json").is_file()
        assert (repaired / "manifest.json").is_file()

    def test_report_structure(self, repaired):
        report = json.loads((repaired / "report.json").read_text())
        for key in ("stages_enabled", "relation_alignment", "rules",
                    "flagged_sources", "derived_not_same_as",
                    "pruned_neighbor_pairs", "one_to_many", "low_confidence",
                    "final_fill", "confidence_before", "confidence_after"):
            assert key in report, key

    def test_alignment_is_injective(self, repaired):
        pairs = read_pairs(repaired / "a_star.tsv")
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)

    def test_manifest_covers_both_outputs(self, repaired):
        manifest = json.loads((repaired / "manifest.json").read_text())
        assert set(manifest["output_hashes"]) == {"out", "report"}
        assert set(manifest["input_hashes"]) == {
            "kg1", "ent_ids1", "rel_ids1", "kg2", "ent_ids2", "rel_ids2",
            "emb", "seeds", "pred",
        }

    def test_rerun_reproduces_manifest_bytes(
        self, dataset, kg_flags, raw_alignment, repaired
    ):
        before = (repaired / "manifest.json").read_bytes()
        rc = main([
            "repair", *kg_flags, "--seeds", str(dataset / "train_links"),
            "--pred", str(raw_alignment),
            "--out", str(repaired / "a_star.tsv"),
            "--report", str(repaired / "report.json"),
        ])
        assert rc == 0
        assert (repaired / "manifest.json").read_bytes() == before

    def test_invariant_breach_exits_3(
        self, dataset, kg_flags, raw_alignment, tmp_path, monkeypatch, capsys
    ):
        def explode(*args, **kwargs):
            raise InvariantViolation("injectivity", "forced for this check")

        monkeypatch.setattr("exea.cli.repair", explode)
        rc = main([
            "repair", *kg_flags, "--seeds", str(dataset / "train_links"),
            "--pred", str(raw_alignment),
            "--out", str(tmp_path / "a.tsv"),
            "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 3
        assert "injectivity" in capsys.readouterr().err


def shuffle_lines(path, rng):
    lines = path.read_text().splitlines()
    shuffled = rng.sample(lines, len(lines))
    assert shuffled != lines
    path.write_text("\n".join(shuffled) + "\n")


class TestShuffledInputs:
    """``exea repair`` writes the same bytes whatever the line order of its
    triples, seeds and predictions, on an ``exea synth`` fixture with
    injected conflicts whose low-confidence stage strips pairs, so the
    stage's candidate ranking runs."""

    def test_repair_bytes_do_not_depend_on_line_order(self, tmp_path):
        data = tmp_path / "data"
        assert main([
            "synth", "--out", str(data), "--n-entities", "200",
            "--conflict-injection", "0.2", "--rng-seed", "2",
        ]) == 0
        assert main([
            "infer", "--kg1", str(data / "triples_1"), "--kg2", str(data / "triples_2"),
            "--emb", str(data / "embeddings.tsv"), "--seeds", str(data / "train_links"),
            "--out", str(data / "raw.tsv"),
        ]) == 0
        shuffled = tmp_path / "shuffled"
        shutil.copytree(data, shuffled)
        rng = random.Random(11)
        for name in ("triples_1", "triples_2", "train_links", "raw.tsv"):
            shuffle_lines(shuffled / name, rng)
        outputs = []
        for d in (data, shuffled):
            out = tmp_path / f"out_{d.name}"
            assert main([
                "repair", "--kg1", str(d / "triples_1"), "--kg2", str(d / "triples_2"),
                "--emb", str(d / "embeddings.tsv"), "--seeds", str(d / "train_links"),
                "--pred", str(d / "raw.tsv"),
                "--out", str(out / "aligned.tsv"), "--report", str(out / "report.json"),
            ]) == 0
            outputs.append([(out / name).read_bytes() for name in ("aligned.tsv", "report.json")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["low_confidence"]["stripped"] > 0


class TestExplainAdg:
    def test_explanation_json_schema(self, dataset, kg_flags, repaired, tmp_path):
        s, t = read_pairs(repaired / "a_star.tsv")[0]
        out = tmp_path / "expl.json"
        rc = main([
            "explain", *kg_flags, "--alignment", str(repaired / "a_star.tsv"),
            "--pair", str(s), str(t), "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"pair", "no_match", "neighbor_pairs",
                            "path_pairs", "triples"}
        assert doc["pair"]["source"]["index"] == s
        assert doc["pair"]["target"]["index"] == t
        for np_ in doc["neighbor_pairs"]:
            assert -1.0 <= np_["similarity"] <= 1.0
        for pp in doc["path_pairs"]:
            assert pp["source_path"] and pp["target_path"]
            for step in pp["source_path"] + pp["target_path"]:
                assert step["direction"] in ("out", "in")
        assert set(doc["triples"]) == {"source", "target"}
        for triple in doc["triples"]["source"] + doc["triples"]["target"]:
            assert len(triple) == 3

    def test_adg_json_schema(self, dataset, kg_flags, repaired, tmp_path):
        s, t = read_pairs(repaired / "a_star.tsv")[0]
        out = tmp_path / "adg.json"
        rc = main([
            "adg", *kg_flags, "--alignment", str(repaired / "a_star.tsv"),
            "--pair", str(s), str(t), "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"central", "neighbors", "edges", "aggregates",
                            "confidence"}
        assert doc["central"]["is_central"] is True
        assert 0.0 <= doc["confidence"] <= 1.0
        assert set(doc["aggregates"]) == {"c_s", "c_m", "c_w"}
        for edge in doc["edges"]:
            assert edge["class"] in ("strong", "moderate", "weak")
            assert 0 <= edge["neighbor"] < len(doc["neighbors"])

    def test_pair_flag_required(self, kg_flags, repaired, tmp_path, capsys):
        rc = main([
            "explain", *kg_flags, "--alignment", str(repaired / "a_star.tsv"),
            "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 1
        assert "--pair" in capsys.readouterr().err


class TestEval:
    def test_accuracy_mode_matches_library(self, dataset, repaired, tmp_path):
        out = tmp_path / "acc.json"
        rc = main([
            "eval", "--mode", "accuracy",
            "--pred", str(repaired / "a_star.tsv"),
            "--gold", str(dataset / "ent_links"),
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        expected = accuracy(read_pairs(repaired / "a_star.tsv"),
                            read_pairs(dataset / "ent_links"))
        assert doc["accuracy"] == pytest.approx(expected)
        assert "timings" not in doc

    def test_ablation_mode_with_csv(
        self, dataset, kg_flags, raw_alignment, tmp_path
    ):
        out = tmp_path / "abl.json"
        csv_path = tmp_path / "abl.csv"
        rc = main([
            "eval", *kg_flags, "--mode", "ablation",
            "--seeds", str(dataset / "train_links"),
            "--pred", str(raw_alignment),
            "--gold", str(dataset / "ent_links"),
            "--out", str(out), "--csv", str(csv_path),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        stages = doc["per_stage_accuracy"]
        assert set(stages) == {"full", "no_cr1", "no_cr2", "no_cr3", "none"}
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "stage,accuracy"
        assert len(lines) == 1 + len(stages)
        for line in lines[1:]:
            stage, value = line.split(",")
            assert float(value) == pytest.approx(stages[stage])

    def test_sparsity_mode(self, dataset, kg_flags, repaired, tmp_path):
        out = tmp_path / "sp.json"
        rc = main([
            "eval", *kg_flags, "--mode", "sparsity",
            "--alignment", str(repaired / "a_star.tsv"),
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["mean_sparsity"] <= 1.0
        assert doc["sample_size"] == len(read_pairs(repaired / "a_star.tsv"))

    def test_fidelity_mode(self, dataset, kg_flags, repaired, tmp_path):
        out = tmp_path / "fid.json"
        rc = main([
            "eval", *kg_flags, "--mode", "fidelity",
            "--seeds", str(dataset / "train_links"),
            "--pred", str(repaired / "a_star.tsv"),
            "--gold", str(dataset / "ent_links"),
            "--out", str(out), "--sample-n", "5",
            "--dim", "8", "--epochs", "60",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["fidelity"] <= 1.0
        assert doc["sample_size"] == 5

    def test_fidelity_without_correct_pairs_is_config_error(
        self, dataset, kg_flags, tmp_path, capsys
    ):
        wrong = tmp_path / "wrong.tsv"
        gold = read_pairs(dataset / "ent_links")
        wrong.write_text("".join(f"{s}\t{(t + 1) % 30}\n" for s, t in gold))
        rc = main([
            "eval", *kg_flags, "--mode", "fidelity",
            "--seeds", str(dataset / "train_links"),
            "--pred", str(wrong), "--gold", str(dataset / "ent_links"),
            "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 1


class TestTrain:
    def test_writes_loadable_embeddings(self, dataset, tmp_path):
        out = tmp_path / "emb.tsv"
        rc = main([
            "train", "--kg1", str(dataset / "triples_1"),
            "--kg2", str(dataset / "triples_2"),
            "--seeds", str(dataset / "train_links"),
            "--out", str(out), "--dim", "8", "--epochs", "30",
        ])
        assert rc == 0
        store = load_embeddings(out)
        assert store.entity_matrix(Side.SOURCE).shape == (30, 8)
        assert store.entity_matrix(Side.TARGET).shape == (30, 8)

    def test_makes_output_directory(self, dataset, tmp_path):
        # the embedding file goes through the same temp-file-and-rename
        # write as every other single-file output, with the same bytes
        argv = ["train", "--kg1", str(dataset / "triples_1"),
                "--kg2", str(dataset / "triples_2"),
                "--seeds", str(dataset / "train_links"), "--dim", "8", "--epochs", "5"]
        flat, nested = tmp_path / "emb.tsv", tmp_path / "new" / "sub" / "emb.tsv"
        assert main([*argv, "--out", str(flat)]) == 0
        assert main([*argv, "--out", str(nested)]) == 0
        assert nested.read_bytes() == flat.read_bytes()
        assert sorted(p.name for p in nested.parent.iterdir()) == ["emb.tsv", "manifest.json"]

    def test_refuses_seeds_that_are_not_one_to_one(self, dataset, tmp_path, capsys, monkeypatch):
        # the same refusal as eval --mode fidelity's, before any training
        rows = read_pairs(dataset / "train_links")
        s, t = rows[0]
        other = (t + 1) % 30
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("".join(f"{a}\t{b}\n" for a, b in rows + [(s, other)]))
        monkeypatch.setattr(exea.cli, "train", lambda *args: pytest.fail("trained"))
        out = tmp_path / "emb.tsv"
        rc = main(["train", "--kg1", str(dataset / "triples_1"),
                   "--kg2", str(dataset / "triples_2"),
                   "--seeds", str(seeds), "--out", str(out), "--dim", "8", "--epochs", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"config error: seed pairs are not one-to-one at ({s}, {other})" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestOutputCollisions:
    """An output naming the file of another output or of an input is a
    config error before any work: nothing is written, the input survives."""

    @pytest.mark.parametrize("case", ["repair-out-report", "repair-out-pred",
                                      "eval-out-csv", "train-out-seeds"])
    def test_rejected_naming_both_keys(
        self, dataset, kg_flags, raw_alignment, tmp_path, capsys, case
    ):
        pred = tmp_path / "pred.tsv"
        seeds = tmp_path / "seeds.tsv"
        shutil.copy(raw_alignment, pred)
        shutil.copy(dataset / "train_links", seeds)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        same = tmp_path / "same"
        common = [*kg_flags, "--seeds", str(seeds), "--pred", str(pred)]
        argv, keys = {
            "repair-out-report": (["repair", *common, "--out", str(same),
                                   "--report", str(same)], ("--out", "--report")),
            "repair-out-pred": (["repair", *common, "--out", str(pred),
                                 "--report", str(tmp_path / "report.json")],
                                ("--pred", "--out")),
            "eval-out-csv": (["eval", "--mode", "ablation", *common,
                              "--gold", str(dataset / "ent_links"),
                              "--out", str(same), "--csv", str(same)], ("--out", "--csv")),
            "train-out-seeds": (["train", *kg_flags[:4], "--seeds", str(seeds),
                                 "--out", str(seeds)], ("--seeds", "--out")),
        }[case]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err and f"{keys[0]} and {keys[1]}" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_report_naming_the_manifest_is_rejected(
        self, dataset, kg_flags, raw_alignment, tmp_path, capsys
    ):
        # the manifest written beside --out would replace the report
        out = tmp_path / "o"
        rc = main(["repair", *kg_flags, "--seeds", str(dataset / "train_links"),
                   "--pred", str(raw_alignment), "--out", str(out / "a.tsv"),
                   "--report", str(out / "manifest.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err
        assert "--report and the manifest written beside --out" in err
        assert str((out / "manifest.json").resolve()) in err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["ent_ids_1", "rel_ids_2"])
    def test_out_naming_a_derived_label_file_is_rejected(
        self, dataset, tmp_path, capsys, label
    ):
        # --kg1 d/triples_1 reads d/ent_ids_1 and d/rel_ids_1 (likewise for
        # --kg2), though neither is named on the command line
        d = tmp_path / "d"
        shutil.copytree(dataset, d)
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        rc = main(["infer", "--kg1", str(d / "triples_1"), "--kg2", str(d / "triples_2"),
                   "--emb", str(d / "embeddings.tsv"), "--seeds", str(d / "train_links"),
                   "--out", str(d / label)])
        err = capsys.readouterr().err
        assert rc == 1
        what = "entity" if label.startswith("ent") else "relation"
        assert f"the {what} labels derived from --kg{label[-1]}" in err
        assert str((d / label).resolve()) in err
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before


class TestConsoleScript:
    def test_module_invocation_matches_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "exea.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("exea ")

    def test_subprocess_exit_code_for_config_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "exea.cli", "repair", "--k", "zero"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1


class TestPairFileRanges:
    """Ids in a pair file read next to the two graphs must lie inside their
    side's entity range; otherwise the run exits 2 naming the file and line."""

    def bad_copy(self, src, tmp_path, row):
        lines = src.read_text().splitlines()
        bad = tmp_path / "bad.tsv"
        bad.write_text("".join(line + "\n" for line in lines) + row + "\n")
        return bad, len(lines) + 1

    @pytest.mark.parametrize("row", ["999\t3", "-1\t3"])
    def test_repair_pred_out_of_range(
        self, dataset, kg_flags, raw_alignment, tmp_path, capsys, row
    ):
        bad, line_no = self.bad_copy(raw_alignment, tmp_path, row)
        rc = main([
            "repair", *kg_flags, "--seeds", str(dataset / "train_links"),
            "--pred", str(bad),
            "--out", str(tmp_path / "a.tsv"), "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        expected = f"{bad}:{line_no}: source id {row.split()[0]} outside [0, 30)"
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "a.tsv").exists()

    def test_ablation_pred_out_of_range(self, dataset, kg_flags, raw_alignment, tmp_path, capsys):
        bad, line_no = self.bad_copy(raw_alignment, tmp_path, "999\t3")
        rc = main([
            "eval", *kg_flags, "--mode", "ablation",
            "--seeds", str(dataset / "train_links"), "--pred", str(bad),
            "--gold", str(dataset / "ent_links"), "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 2
        assert f"{bad}:{line_no}:" in capsys.readouterr().err

    def test_adg_alignment_target_out_of_range(self, kg_flags, tmp_path, capsys):
        bad = tmp_path / "align.tsv"
        bad.write_text("0\t999\n")
        rc = main([
            "adg", *kg_flags, "--alignment", str(bad),
            "--pair", "0", "0", "--out", str(tmp_path / "adg.json"),
        ])
        assert rc == 2
        assert f"{bad}:1: target id 999 outside [0, 30)" in capsys.readouterr().err


class TestMatchedContext:
    """The matched context holds one target per source. A source listed twice
    in ``--alignment`` exits 2 naming the file and both lines; in ``eval
    --mode fidelity`` a prediction for a seed source is dropped, as repair
    drops it, and the seed stays in the context, while seeds that are not
    one-to-one or a source predicted twice exit 1 as they do in repair."""

    @pytest.mark.parametrize("command", [
        ["explain", "--pair", "0", "0"], ["adg", "--pair", "0", "0"], ["eval", "--mode", "sparsity"],
    ], ids=["explain", "adg", "sparsity"])
    def test_a_repeated_source_is_a_data_error(
        self, kg_flags, repaired, tmp_path, capsys, command
    ):
        lines = (repaired / "a_star.tsv").read_text().splitlines()
        s, t = (int(x) for x in lines[0].split("\t"))
        bad = tmp_path / "repeated.tsv"
        bad.write_text("".join(line + "\n" for line in lines) + f"{s}\t{(t + 1) % 30}\n")
        out = tmp_path / "o.json"
        rc = main([*command, *kg_flags, "--alignment", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}:{len(lines) + 1}: source {s} is already aligned on line 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["pred", "seeds"])
    def test_fidelity_refuses_what_repair_refuses(
        self, dataset, kg_flags, raw_alignment, tmp_path, capsys, which
    ):
        files = {"seeds": dataset / "train_links", "pred": raw_alignment}
        rows = read_pairs(files[which])
        # the first predicted source is no seed: infer skips the seed sources
        s, t = rows[0]
        other = (t + 1) % 30
        files[which] = tmp_path / f"repeated_{which}.tsv"
        files[which].write_text("".join(f"{a}\t{b}\n" for a, b in rows + [(s, other)]))
        outputs = {
            "repair": ["--out", str(tmp_path / "a.tsv"), "--report", str(tmp_path / "r.json")],
            "eval": ["--mode", "fidelity", "--gold", str(dataset / "ent_links"),
                     "--out", str(tmp_path / "fid.json"), "--dim", "8", "--epochs", "2"],
        }
        errors = {}
        for command, extra in outputs.items():
            rc = main([command, *kg_flags, "--seeds", str(files["seeds"]),
                       "--pred", str(files["pred"]), *extra])
            err = capsys.readouterr().err
            assert rc == 1
            assert "Traceback" not in err
            errors[command] = err.split(": config error: ", 1)[1]
        assert errors["eval"] == errors["repair"]
        expected = {
            "pred": f"source {s} appears twice in the predictions",
            "seeds": f"seed pairs are not one-to-one at ({s}, {other})",
        }[which]
        assert expected in errors["eval"]
        assert not (tmp_path / "fid.json").exists()

    def test_fidelity_keeps_the_seeds(self, dataset, kg_flags, repaired, tmp_path, monkeypatch):
        seeds = read_pairs(dataset / "train_links")
        pred = repaired / "a_star.tsv"
        moved = tmp_path / "moved.tsv"
        moved.write_text(pred.read_text() + "".join(f"{s}\t{(t + 1) % 30}\n" for s, t in seeds))
        captured = []
        fidelity = exea.cli.fidelity

        def capture(kg1, kg2, seeds, expl, *args):
            captured.append(expl)
            return fidelity(kg1, kg2, seeds, expl, *args)

        monkeypatch.setattr(exea.cli, "fidelity", capture)
        docs = []
        for path in (pred, moved):
            out = tmp_path / f"fid_{path.stem}.json"
            rc = main([
                "eval", *kg_flags, "--mode", "fidelity",
                "--seeds", str(dataset / "train_links"), "--pred", str(path),
                "--gold", str(dataset / "ent_links"), "--out", str(out),
                "--sample-n", "30", "--dim", "8", "--epochs", "20",
            ])
            assert rc == 0
            docs.append(json.loads(out.read_text()))
        kept, dropped = captured
        assert dropped == kept
        assert any(kept.values())
        assert docs[1] == docs[0]

    def test_fidelity_samples_no_seed_pair(self, dataset, kg_flags, raw_alignment, tmp_path):
        # retraining pulls a seed pair together whatever its explanation says,
        # so seed rows in --pred change only the accuracy
        seeds = read_pairs(dataset / "train_links")
        with_seeds = tmp_path / "with_seeds.tsv"
        with_seeds.write_text(
            raw_alignment.read_text() + "".join(f"{s}\t{t}\n" for s, t in seeds)
        )
        docs = []
        for path in (raw_alignment, with_seeds):
            out = tmp_path / f"fid_{path.stem}.json"
            rc = main([
                "eval", *kg_flags, "--mode", "fidelity",
                "--seeds", str(dataset / "train_links"), "--pred", str(path),
                "--gold", str(dataset / "ent_links"), "--out", str(out),
                "--sample-n", "30", "--dim", "8", "--epochs", "20",
            ])
            assert rc == 0
            docs.append(json.loads(out.read_text()))
        assert docs[1]["accuracy"] > docs[0]["accuracy"]
        del docs[0]["accuracy"], docs[1]["accuracy"]
        assert docs[1] == docs[0]


@pytest.fixture(scope="module")
def synth40(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth40")
    rc = main(["synth", "--out", str(out), "--n-entities", "40", "--rng-seed", "2"])
    assert rc == 0
    return out


def _truncated_binary_embeddings(data, tmp_path):
    emb = tmp_path / "emb.bin"
    save_embeddings(emb, load_embeddings(data / "embeddings.tsv"), binary=True)
    emb.write_bytes(emb.read_bytes()[:-7])
    return {"emb": emb}, emb


def _triple_id_outside_labels(data, tmp_path):
    triples = tmp_path / "triples_1"
    triples.write_text((data / "triples_1").read_text() + "999\t0\t1\n")
    return {"kg1": triples}, triples


def _empty_target_graph(data, tmp_path):
    triples = tmp_path / "triples_2"
    triples.write_text("")
    return {"kg2": triples}, triples


def _short_target_embeddings(data, tmp_path):
    store = load_embeddings(data / "embeddings.tsv")
    emb = tmp_path / "emb.tsv"
    save_embeddings(emb, EmbeddingStore({
        Side.SOURCE: store.entity_matrix(Side.SOURCE),
        Side.TARGET: store.entity_matrix(Side.TARGET)[:30],
    }))
    return {"emb": emb}, emb


def _no_target_embeddings(data, tmp_path):
    store = load_embeddings(data / "embeddings.tsv")
    emb = tmp_path / "emb.tsv"
    save_embeddings(emb, EmbeddingStore({Side.SOURCE: store.entity_matrix(Side.SOURCE)}))
    return {"emb": emb}, emb


class TestFaultInjection:
    """Broken inputs built from an ``exea synth --n-entities 40`` fixture:
    each run exits 2, names the offending file and prints no traceback."""

    @pytest.mark.parametrize("breaker", [
        _truncated_binary_embeddings,
        _triple_id_outside_labels,
        _empty_target_graph,
        _short_target_embeddings,
        _no_target_embeddings,
    ])
    def test_exits_2_naming_the_file(self, synth40, tmp_path, breaker):
        for name in ("triples_1", "ent_ids_1", "rel_ids_1", "triples_2", "ent_ids_2",
                     "rel_ids_2", "embeddings.tsv", "train_links"):
            shutil.copy(synth40 / name, tmp_path / name)
        files = {
            "kg1": tmp_path / "triples_1",
            "kg2": tmp_path / "triples_2",
            "emb": tmp_path / "embeddings.tsv",
        }
        broken, culprit = breaker(synth40, tmp_path)
        files.update(broken)
        proc = subprocess.run(
            [sys.executable, "-m", "exea.cli", "infer",
             *(arg for key, path in files.items() for arg in (f"--{key}", str(path))),
             "--seeds", str(tmp_path / "train_links"), "--out", str(tmp_path / "o.tsv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert str(culprit) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o.tsv").exists()


class TestZeroVectorPrediction:
    """A ``--pred`` source whose embedding row is all zeros has no cosine:
    ``exea repair`` exits 2 with the cosine error, prints no traceback and
    writes no output."""

    def test_repair_exits_2(self, synth40, tmp_path):
        kgs = ["--kg1", str(synth40 / "triples_1"), "--kg2", str(synth40 / "triples_2")]
        seeds = ["--seeds", str(synth40 / "train_links")]
        pred = tmp_path / "raw.tsv"
        rc = main(["infer", *kgs, "--emb", str(synth40 / "embeddings.tsv"), *seeds,
                   "--out", str(pred)])
        assert rc == 0
        source = read_pairs(pred)[0][0]
        store = load_embeddings(synth40 / "embeddings.tsv")
        rows = store.entity_matrix(Side.SOURCE).copy()
        rows[source] = 0.0
        emb = tmp_path / "emb.tsv"
        save_embeddings(emb, EmbeddingStore({
            Side.SOURCE: rows, Side.TARGET: store.entity_matrix(Side.TARGET),
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "exea.cli", "repair", *kgs, "--emb", str(emb), *seeds,
             "--pred", str(pred), "--out", str(tmp_path / "a.tsv"),
             "--report", str(tmp_path / "r.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "cosine is undefined for a zero vector" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "a.tsv").exists()
        assert not (tmp_path / "r.json").exists()


class TestZeroVectorNeighbor:
    """A matched neighbor whose embedding row is all zeros has no cosine:
    ``exea explain`` exits 2 with the cosine error from ``pair_cosines``,
    prints no traceback and writes no output."""

    def test_explain_exits_2(self, synth40, tmp_path):
        kg1 = load_kg(synth40 / "triples_1", synth40 / "ent_ids_1", synth40 / "rel_ids_1",
                      Side.SOURCE)
        kg2 = load_kg(synth40 / "triples_2", synth40 / "ent_ids_2", synth40 / "rel_ids_2",
                      Side.TARGET)
        gold = read_pairs(synth40 / "ent_links")
        pair, neighbors = next(
            (p, n) for p in gold if (n := matched_neighbors(p, kg1, kg2, dict(gold), 2))
        )
        store = load_embeddings(synth40 / "embeddings.tsv")
        rows = store.entity_matrix(Side.SOURCE).copy()
        rows[neighbors[0][0]] = 0.0
        emb = tmp_path / "emb.tsv"
        save_embeddings(emb, EmbeddingStore({
            Side.SOURCE: rows, Side.TARGET: store.entity_matrix(Side.TARGET),
        }))
        out = tmp_path / "expl.json"
        proc = subprocess.run(
            [sys.executable, "-m", "exea.cli", "explain",
             "--kg1", str(synth40 / "triples_1"), "--kg2", str(synth40 / "triples_2"),
             "--emb", str(emb), "--alignment", str(synth40 / "ent_links"),
             "--pair", str(pair[0]), str(pair[1]), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "cosine is undefined for a zero vector" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


@pytest.fixture(scope="module")
def synth60(tmp_path_factory):
    """An ``exea synth --n-entities 60`` fixture (8 relations a side, each
    with triples) and its raw predictions."""
    out = tmp_path_factory.mktemp("synth60")
    assert main(["synth", "--out", str(out), "--n-entities", "60",
                 "--conflict-injection", "0.2", "--rng-seed", "1"]) == 0
    assert main(["infer", "--kg1", str(out / "triples_1"), "--kg2", str(out / "triples_2"),
                 "--emb", str(out / "embeddings.tsv"), "--seeds", str(out / "train_links"),
                 "--out", str(out / "raw.tsv")]) == 0
    return out


def relation_rows(n_source, n_target, dim_source, dim_target=None):
    """Random relation vectors per side whose target rows past the first 8
    copy source rows, so that each of those rows is a source row's mutual
    best match."""
    rng = np.random.default_rng(7)
    source = rng.normal(size=(n_source, dim_source))
    target = rng.normal(size=(n_target, dim_target or dim_source))
    if n_target > 8:
        target[8:] = source[: n_target - 8]
    return source, target


class TestRelationVectorsFitTheGraphs:
    """``exea repair`` reads exactly the graphs' relations from the chosen
    relation-vector source on an n=60 fixture with 8 relations a side. Rows
    past the graph's relations are ignored, as entity rows past its entities
    are, so the run writes what the same file cut to 8 rows gives. Name
    vectors of two dimensions, or a relation with triples but no row, end
    in a data error: exit 2, no traceback, no output."""

    def repair(self, data, tmp_path, name, source, kinds, rows):
        text = (data / "embeddings.tsv").read_text(encoding="utf-8")
        for kind, mat in zip(kinds, rows):
            text += f"exea-emb v1 {kind} {len(mat)} {mat.shape[1]}\n"
            text += "".join(f"{i}\t" + " ".join(map(repr, row.tolist())) + "\n"
                            for i, row in enumerate(mat))
        emb = tmp_path / f"{name}.tsv"
        emb.write_text(text, encoding="utf-8")
        out = tmp_path / name
        rc = main([
            "repair", "--kg1", str(data / "triples_1"), "--kg2", str(data / "triples_2"),
            "--emb", str(emb), "--seeds", str(data / "train_links"),
            "--pred", str(data / "raw.tsv"), "--relation-vector-source", source,
            "--out", str(out / "aligned.tsv"), "--report", str(out / "report.json"),
        ])
        return rc, out

    @pytest.mark.parametrize("source, kinds", [
        ("native", ("source-rel", "target-rel")),
        ("name", ("source-rel-name", "target-rel-name")),
    ])
    def test_rows_past_the_relations_are_ignored(self, synth60, tmp_path, capsys, source, kinds):
        dim = load_embeddings(synth60 / "embeddings.tsv").dim
        rows = relation_rows(12, 12, dim)
        rc, wide = self.repair(synth60, tmp_path, "wide", source, kinds, rows)
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "Traceback" not in err
        rc, cut = self.repair(synth60, tmp_path, "cut", source, kinds, [m[:8] for m in rows])
        assert rc == 0
        for name in ("aligned.tsv", "report.json"):
            assert (wide / name).read_bytes() == (cut / name).read_bytes()
        # the copied rows would have matched relations 8 to 11 of the target
        report = json.loads((wide / "report.json").read_text())
        assert report["relation_alignment"]
        assert all(p["target"] < 8 for p in report["relation_alignment"])

    @pytest.mark.parametrize("rows, message", [
        pytest.param(relation_rows(8, 8, 4, 5), "relation-name vectors differ in dimension",
                     id="name-dims-4-and-5"),
        pytest.param(relation_rows(3, 3, 4), "but relation 3 has triples", id="name-3-rows"),
    ])
    def test_exits_2(self, synth60, tmp_path, capsys, rows, message):
        rc, out = self.repair(synth60, tmp_path, "bad", "name",
                              ("source-rel-name", "target-rel-name"), rows)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "data error" in err and message in err
        assert "Traceback" not in err
        assert not (out / "aligned.tsv").exists()


class TestBadTunables:
    """A hop bound outside {1, 2}, a fidelity sample size below 1, a
    negative random seed, a non-finite tunable or an empty alignment to grade
    is a config error naming the key or file: exit 1, no traceback, no output
    file."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["adg", "--h", "3"], "h must be", id="adg-h3"),
        pytest.param(["explain", "--h", "0"], "h must be", id="explain-h0"),
        pytest.param(["eval", "--mode", "sparsity", "--h", "0"], "h must be", id="sparsity-h0"),
        pytest.param(["eval", "--mode", "fidelity", "--h", "3"], "h must be", id="fidelity-h3"),
        pytest.param(["eval", "--mode", "fidelity", "--sample-n", "-1"], "sample_n must be",
                     id="fidelity-sample-n-minus-1"),
        pytest.param(["eval", "--mode", "fidelity", "--sample-n", "0"], "sample_n must be",
                     id="fidelity-sample-n-0"),
        pytest.param(["synth", "--density", "nan"], "density must be finite",
                     id="synth-density-nan"),
        pytest.param(["synth", "--density", "inf"], "density must be finite",
                     id="synth-density-inf"),
        pytest.param(["synth", "--embedding-noise", "nan"], "embedding_noise must be finite",
                     id="synth-embedding-noise-nan"),
        pytest.param(["synth", "--embedding-noise", "inf"], "embedding_noise must be finite",
                     id="synth-embedding-noise-inf"),
        pytest.param(["train", "--margin", "nan"], "margin must be finite",
                     id="train-margin-nan"),
        pytest.param(["train", "--learning-rate", "nan"], "learning_rate must be finite",
                     id="train-learning-rate-nan"),
        pytest.param(["synth", "--rng-seed", "-1"], "rng_seed must be >= 0",
                     id="synth-rng-seed-minus-1"),
        pytest.param(["train", "--rng-seed", "-1"], "seed must be >= 0",
                     id="train-rng-seed-minus-1"),
        pytest.param(["eval", "--mode", "fidelity", "--rng-seed", "-1"], "seed must be >= 0",
                     id="fidelity-rng-seed-minus-1"),
        pytest.param(["repair", "--score-lambda", "nan"], "score_lambda must be finite",
                     id="repair-score-lambda-nan"),
        pytest.param(["repair", "--score-lambda", "inf"], "score_lambda must be finite",
                     id="repair-score-lambda-inf"),
    ])
    def test_config_error(self, dataset, kg_flags, repaired, tmp_path, capsys, argv, message):
        a_star = repaired / "a_star.tsv"
        s, t = read_pairs(a_star)[0]
        out = tmp_path / "out" / "o.json"
        seeds = ["--seeds", str(dataset / "train_links")]
        inputs = {
            "adg": [*kg_flags, "--alignment", str(a_star), "--pair", str(s), str(t)],
            "explain": [*kg_flags, "--alignment", str(a_star), "--pair", str(s), str(t)],
            "eval": [*kg_flags, "--alignment", str(a_star), *seeds, "--pred", str(a_star),
                     "--gold", str(dataset / "ent_links"), "--dim", "8", "--epochs", "5"],
            "synth": [],
            "train": [*kg_flags[:4], *seeds, "--dim", "8", "--epochs", "5"],
            "repair": [*kg_flags, *seeds, "--pred", str(a_star),
                       "--report", str(out.parent / "report.json")],
        }[argv[0]]
        rc = main([*argv, *inputs, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err
        assert message in err
        assert "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("h, message", [
        pytest.param("0", "h must be", id="h0"),
        pytest.param("2", "empty.tsv holds no pairs", id="h2"),
    ])
    def test_sparsity_over_empty_alignment(self, kg_flags, tmp_path, capsys, h, message):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "out" / "o.json"
        rc = main(["eval", "--mode", "sparsity", *kg_flags, "--alignment", str(empty),
                   "--h", h, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err
        assert message in err
        assert "Traceback" not in err
        assert not out.parent.exists()
