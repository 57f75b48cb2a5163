"""End-to-end checks of the command line interface.

Runs subcommands in-process through ``main(argv)`` so exit codes and stderr
can be asserted cheaply; a couple of subprocess checks confirm the installed
entry point behaves the same way.
"""

import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from exea.adg import AdgConfig
from exea.cli import DEFAULTS, build_parser, main
from exea.errors import InvariantViolation
from exea.evaluate import accuracy
from exea.repair import RepairConfig
from exea.synth import SynthConfig
from exea.trainer import TrainConfig


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
        assert DEFAULTS["deep_chaining"] == repair_cfg.deep_chaining
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
                    "relation_vector_source", "deep_chaining", "workers"):
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


class TestWorkers:
    def test_env_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXEA_WORKERS", "4")
        out = tmp_path / "out"
        rc = main(["synth", "--out", str(out), "--n-entities", "10",
                   "--workers", "2"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["workers"] == 4

    def test_bad_env_value_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EXEA_WORKERS", "many")
        assert main(["synth", "--out", str(tmp_path / "o")]) == 1
        assert "EXEA_WORKERS" in capsys.readouterr().err

    def test_zero_workers_is_config_error(self, tmp_path, capsys):
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
                            "confidence", "central_conflict"}
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
        from exea.embedding import load_embeddings
        from exea.kg import Side

        store = load_embeddings(out)
        assert store.entity_matrix(Side.SOURCE).shape == (30, 8)
        assert store.entity_matrix(Side.TARGET).shape == (30, 8)


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
