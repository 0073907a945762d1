"""End-to-end command-line behavior: exit codes, files, determinism."""

import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import dxml
from dxml import (ClusterIndex, DeepWalkConfig, TrainConfig, load_model, load_repo_file,
                  nearest_clusters, normalize_features, save_model, save_repo_file)
from dxml.cli import _build_parser, _derived_seeds, _int_list, _seed, _write_predictions, main
from dxml.net import embed_points

from conftest import random_dataset, read_payload, stored_array, without_clusters, write_payload


TINY_FLAGS = [
    "--embed-dim", "8", "--walks-per-node", "4", "--walk-length", "12",
    "--window", "3", "--embed-epochs", "2", "--hidden", "12", "--epochs", "4",
    "--dropout", "0.2",
]


@pytest.fixture(scope="module")
def trained_model(data_files, tmp_path_factory):
    train, _ = data_files
    model = str(tmp_path_factory.mktemp("model") / "model.dxml")
    assert main(["train", train, "--model-out", model, *TINY_FLAGS]) == 0
    return model


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTrain:
    def test_retrain_is_byte_identical(self, data_files, tmp_path):
        train, _ = data_files
        a = str(tmp_path / "a.dxml")
        b = str(tmp_path / "b.dxml")
        assert main(["train", train, "--model-out", a, *TINY_FLAGS]) == 0
        assert main(["train", train, "--model-out", b, *TINY_FLAGS]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_stored_network_embeds_the_stored_train_embeds(self, tmp_path):
        # The network training returns is the one the file stores, so the
        # loaded network re-embeds the labeled training points to the stored
        # train_embeds bit for bit; an unlabeled point is skipped by both.
        train = str(tmp_path / "train.txt")
        save_repo_file(random_dataset(np.random.default_rng(3), n=40, allow_unlabeled=True), train)
        model = str(tmp_path / "model.dxml")
        assert main(["train", train, "--model-out", model, *TINY_FLAGS]) == 0
        arts = load_model(model)
        ds = normalize_features(load_repo_file(train), arts.meta["normalize_features"])
        labeled = np.flatnonzero(np.diff(ds.label_indptr) > 0)
        assert 0 < labeled.size < ds.num_points
        embeds = embed_points(arts.mlp, ds.features.take(labeled))
        assert embeds.astype(np.float32).tobytes() == arts.train_embeds.tobytes()

    def test_stored_points_are_grouped_by_cluster(self, tmp_path):
        # With several clusters the file stores the labeled training points
        # sorted stably by cluster: each cluster's points in file order.
        train = str(tmp_path / "train.txt")
        save_repo_file(random_dataset(np.random.default_rng(4), n=60, allow_unlabeled=True), train)
        model = str(tmp_path / "model.dxml")
        assert main(["train", train, "--model-out", model, *TINY_FLAGS, "--clusters", "3"]) == 0
        arts = load_model(model)
        ds = normalize_features(load_repo_file(train), arts.meta["normalize_features"])
        labeled = np.flatnonzero(np.diff(ds.label_indptr) > 0)
        embeds = embed_points(arts.mlp, ds.features.take(labeled))
        order = np.argsort(nearest_clusters(arts.clusters, embeds), kind="stable")
        assert not np.array_equal(order, np.arange(labeled.size))
        assert np.all(np.diff(arts.clusters.assignments) >= 0)
        assert embeds[order].astype(np.float32).tobytes() == arts.train_embeds.tobytes()
        assert arts.train_labels == ds.label_sets(labeled[order])

    def test_seed_changes_model(self, data_files, tmp_path):
        train, _ = data_files
        a = str(tmp_path / "a.dxml")
        b = str(tmp_path / "b.dxml")
        assert main(["train", train, "--model-out", a, *TINY_FLAGS]) == 0
        assert main(["train", train, "--model-out", b, "--seed", "5", *TINY_FLAGS]) == 0
        assert read_bytes(a) != read_bytes(b)

    @pytest.mark.parametrize("command", ["train", "embed-labels"])
    @pytest.mark.parametrize("source", ["flag", "flag=", "config"])
    @pytest.mark.parametrize("value", ["-1", "-3", "seven"])
    def test_bad_seed_is_usage_error(self, command, source, value, data_files, tmp_path, capsys):
        train, _ = data_files
        argv = [command, train, "--out" if command == "embed-labels" else "--model-out",
                str(tmp_path / "out")]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"seed = {value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--seed", value] if source == "flag" else [f"--seed={value}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err and "internal error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["0", "5", "007", str(2**64 + 3)])
    def test_valid_seed_derives_stage_seeds(self, seed, data_files, tmp_path, capsys):
        train, _ = data_files
        assert main(["train", train, "--model-out", str(tmp_path / "m.dxml"), "--dry-run",
                     "--seed", seed]) == 0
        settings = json.loads(capsys.readouterr().out)["settings"]
        assert settings["seed"] == int(seed)
        assert settings["seeds"] == _derived_seeds(int(seed))
        assert settings["net"]["rng_seed"] == settings["seeds"]["net"]

    def test_all_unlabeled_input_fails(self, tmp_path, capsys):
        path = str(tmp_path / "empty_labels.txt")
        with open(path, "w") as fh:
            fh.write("2 3 4\n 0:1.0\n 1:2.0\n")
        code = main(["train", path, "--model-out", str(tmp_path / "m.dxml"), *TINY_FLAGS])
        assert code == 2
        assert "no labeled points" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-200", "1e200"])
    def test_feature_norm_outside_float64_fails(self, value, tmp_path, capsys):
        path = str(tmp_path / "train.txt")
        with open(path, "w") as fh:
            fh.write(f"3 9 2\n0 1:1.0\n1 2:1.0\n1 5:{value}\n")
        model = tmp_path / "m.dxml"
        assert main(["train", path, "--model-out", str(model), *TINY_FLAGS]) == 2
        err = capsys.readouterr().err
        assert "point 2: its squared feature norm" in err and "gradient" not in err
        assert not model.exists()

    def test_network_output_norm_outside_float64_fails(self, tmp_path, capsys):
        # Without feature scaling, the last point's output overflows float64;
        # it used to embed to an all-zero row and the model was saved.  The
        # error names its place in the file, counting the unlabeled first
        # point, and comes from the first batch, before an epoch ends.
        path = str(tmp_path / "train.txt")
        with open(path, "w") as fh:
            fh.write("4 6 2\n 0:1.0\n0 0:1.0 1:2.0\n1 2:1.0 3:0.5\n0,1 5:1e200\n")
        model = tmp_path / "m.dxml"
        with np.errstate(over="ignore"):  # training's own forward pass overflows
            code = main(["train", path, "--model-out", str(model), "--normalize", "none",
                         *TINY_FLAGS])
        assert code == 2
        err = capsys.readouterr().err
        assert "point 3: its network output's squared norm is not finite" in err
        assert "epoch 1/" not in err
        assert not model.exists()

    @pytest.mark.parametrize("flags", [["--loss-mode", "sum"], ["--no-bias"]])
    def test_removed_flags_exit_1_naming_them(self, flags, data_files, tmp_path, capsys):
        train, _ = data_files
        model = tmp_path / "m.dxml"
        assert main(["train", train, "--model-out", str(model), *TINY_FLAGS, *flags]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not model.exists()

    def test_missing_input_file(self, tmp_path):
        code = main(["train", str(tmp_path / "nope.txt"),
                     "--model-out", str(tmp_path / "m.dxml")])
        assert code == 2

    def test_dry_run_prints_plan_without_model(self, data_files, tmp_path, capsys):
        train, _ = data_files
        model = str(tmp_path / "never.dxml")
        assert main(["train", train, "--model-out", model, "--dry-run",
                     *TINY_FLAGS, "--epochs", "9"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["settings"]["net"]["epochs"] == 9
        assert plan["stages"][0].startswith("parse")
        import os
        assert not os.path.exists(model)

    def test_defaults_are_the_config_dataclasses(self, data_files, tmp_path, capsys):
        train, _ = data_files
        assert main(["train", train, "--model-out", str(tmp_path / "m.dxml"), "--dry-run"]) == 0
        settings = json.loads(capsys.readouterr().out)["settings"]
        want_net = dataclasses.asdict(TrainConfig())
        want_deepwalk = dataclasses.asdict(DeepWalkConfig())
        for fields in (settings["net"], settings["deepwalk"], want_net, want_deepwalk):
            del fields["rng_seed"]  # derived from --seed
        del settings["deepwalk"]["dim"], want_deepwalk["dim"]  # set by --scale
        assert settings["net"] == want_net
        assert settings["deepwalk"] == want_deepwalk

    def test_config_file_merging(self, data_files, tmp_path, capsys):
        train, _ = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 7\nhidden = 24  # comment\n")
        base = ["train", train, "--model-out", str(tmp_path / "m.dxml"),
                "--dry-run", "--config", str(cfg)]

        assert main(base) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["settings"]["net"]["epochs"] == 7
        assert plan["settings"]["hidden"] == 24

        assert main(base + ["--epochs", "3"]) == 0  # flag beats file
        plan = json.loads(capsys.readouterr().out)
        assert plan["settings"]["net"]["epochs"] == 3
        assert plan["settings"]["hidden"] == 24

    def test_unknown_config_key_is_usage_error(self, data_files, tmp_path):
        train, _ = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("optimzer = adam\n")
        code = main(["train", train, "--model-out", str(tmp_path / "m.dxml"),
                     "--dry-run", "--config", str(cfg)])
        assert code == 1

    def test_threads_is_not_a_train_option(self, data_files, tmp_path):
        train, _ = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2\n")
        base = ["train", train, "--model-out", str(tmp_path / "m.dxml"), "--dry-run"]
        assert main(base + ["--config", str(cfg)]) == 1
        assert main(base + ["--threads", "2"]) == 1

    def test_exported_graph_reimports_identically(self, data_files, tmp_path):
        train, _ = data_files
        graph = str(tmp_path / "graph.txt")
        a = str(tmp_path / "a.dxml")
        b = str(tmp_path / "b.dxml")
        assert main(["train", train, "--model-out", a, "--export-graph", graph,
                     *TINY_FLAGS]) == 0
        assert main(["train", train, "--model-out", b, "--graph-file", graph,
                     *TINY_FLAGS]) == 0
        assert read_bytes(a) == read_bytes(b)


PRED_LINE = re.compile(r"^\d+:[0-9.eE+-]+(\t\d+:[0-9.eE+-]+)*$")


class TestPredict:
    def test_one_line_per_test_point(self, trained_model, data_files, tmp_path):
        _, test = data_files
        out = str(tmp_path / "preds.txt")
        assert main(["predict", trained_model, test, "--out", out]) == 0
        lines = read_bytes(out).decode().splitlines()
        assert len(lines) == load_repo_file(test).num_points
        for line in lines:
            assert PRED_LINE.match(line), line
            scores = [float(tok.split(":")[1]) for tok in line.split("\t")]
            assert scores == sorted(scores, reverse=True)

    def test_repeat_runs_byte_identical(self, trained_model, data_files, tmp_path):
        _, test = data_files
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        assert main(["predict", trained_model, test, "--out", a]) == 0
        assert main(["predict", trained_model, test, "--out", b]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_threads_do_not_change_output(self, trained_model, data_files, tmp_path):
        _, test = data_files
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        assert main(["predict", trained_model, test, "--out", a]) == 0
        assert main(["predict", trained_model, test, "--out", b, "--threads", "4"]) == 0
        assert read_bytes(a) == read_bytes(b)

    @pytest.mark.parametrize("command", ["predict", "sweep-k"])
    def test_label_count_mismatch_fails(self, trained_model, tmp_path, capsys, command):
        # The count comes from the header: these commands load no label vectors.
        bad = str(tmp_path / "bad.txt")
        dims = load_model(trained_model).meta["dims"]
        with open(bad, "w") as fh:
            fh.write(f"1 {dims['num_features']} {dims['num_labels'] + 1}\n0 5:1.0\n")
        extra = ["--k-grid", "1"] if command == "sweep-k" else []
        assert main([command, trained_model, bad, *extra]) == 2
        assert f"labels, model expects {dims['num_labels']}" in capsys.readouterr().err

    def test_dimension_mismatch_fails(self, trained_model, tmp_path, capsys):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as fh:
            fh.write("1 99 6\n0 5:1.0\n")
        assert main(["predict", trained_model, bad, "--out", str(tmp_path / "p.txt")]) == 2
        assert "features" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-200", "1e200"])
    def test_feature_norm_outside_float64_fails(self, value, trained_model, tmp_path, capsys):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as fh:
            fh.write(f"2 18 6\n0 1:1.0\n1 5:{value}\n")
        out = tmp_path / "p.txt"
        assert main(["predict", trained_model, bad, "--out", str(out)]) == 2
        assert "point 1: its squared feature norm" in capsys.readouterr().err
        assert not out.exists()

    def test_network_output_norm_outside_float64_fails(self, data_files, tmp_path, capsys):
        train, _ = data_files
        model = str(tmp_path / "m.dxml")
        assert main(["train", train, "--model-out", model, "--normalize", "none",
                     *TINY_FLAGS]) == 0
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as fh:
            fh.write("2 18 6\n0 1:1.0\n1 5:1e200\n")
        out = tmp_path / "p.txt"
        with np.errstate(over="ignore"):
            assert main(["predict", model, bad, "--out", str(out)]) == 2
        assert "point 1: its network output's squared norm is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_model_fails(self, trained_model, data_files, tmp_path, capsys):
        _, test = data_files
        blob = bytearray(read_bytes(trained_model))
        blob[30] ^= 0xFF
        broken = str(tmp_path / "broken.dxml")
        with open(broken, "wb") as fh:
            fh.write(blob)
        assert main(["predict", broken, test, "--out", str(tmp_path / "p.txt")]) == 2
        assert "checksum" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_id", ["num_labels", -3])
    def test_stored_label_outside_the_labels_fails(self, trained_model, data_files, tmp_path,
                                                   capsys, bad_id):
        # A checksum-valid file whose label table names a label the model does not have.
        _, test = data_files
        payload = read_payload(trained_model)
        offsets = stored_array(payload, "label_offsets")[1]
        ids = stored_array(payload, "label ids")[1][offsets[0] : offsets[1]]  # one or more
        if bad_id == "num_labels":
            ids[-1] = load_model(trained_model).label_embeddings.shape[1]
        else:
            ids[0] = bad_id  # the ids still increase
        model = str(tmp_path / "bad.dxml")
        write_payload(model, payload)
        out = tmp_path / "p.txt"
        assert main(["predict", model, test, "--out", str(out)]) == 2
        assert "training label index out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_model_without_clusters_fails(self, trained_model, data_files, tmp_path, capsys):
        _, test = data_files
        model = str(tmp_path / "empty.dxml")
        write_payload(model, without_clusters(read_payload(trained_model)))
        out = tmp_path / "p.txt"
        assert main(["predict", model, test, "--out", str(out)]) == 2
        assert "model has no clusters" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_k_is_usage_error(self, trained_model, data_files, tmp_path):
        _, test = data_files
        assert main(["predict", trained_model, test, "-k", "0",
                     "--out", str(tmp_path / "p.txt")]) == 1

    def test_p_flag_is_gone(self, trained_model, data_files, tmp_path):
        # -p only ever filled a field the output file never showed
        _, test = data_files
        assert main(["predict", trained_model, test, "-p", "1",
                     "--out", str(tmp_path / "p.txt")]) == 1

    def test_written_order_matches_sorted_form(self):
        def sorted_form(preds):  # the per-map Python sort the writer used before lexsort
            lines = []
            for scores in preds:
                ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
                lines.append("\t".join(f"{label}:{score!r}" for label, score in ranked) + "\n")
            return "".join(lines)

        rng = np.random.default_rng(11)
        preds = [{}, {7: 0.5}, {3: 0.0, 1: -0.0, 2: 0.0}]  # -0.0 ties +0.0
        for _ in range(200):
            size = int(rng.integers(1, 40))
            labels = rng.choice(1000, size=size, replace=False).tolist()
            # few distinct values, so most labels share their score with another
            values = (rng.integers(1, 5, size=size) / int(rng.integers(1, 8))).tolist()
            preds.append(dict(zip(labels, values)))
        stream = io.StringIO()
        _write_predictions(preds, stream)
        assert stream.getvalue() == sorted_form(preds)


class TestInterleavedModel:
    """A model whose clusters interleave, as files written by 0.5.0 and earlier store them."""

    def test_same_bytes_as_the_cluster_major_model(self, data_files, tmp_path, capsys):
        train, test = data_files
        model = str(tmp_path / "model.dxml")
        assert main(["-q", "train", train, "--model-out", model, *TINY_FLAGS,
                     "--clusters", "3"]) == 0
        arts = load_model(model)
        assign = arts.clusters.assignments
        rank = np.arange(assign.size) - np.searchsorted(assign, assign)  # place in its cluster
        order = np.lexsort((assign, rank))  # round robin, each cluster's order kept
        assert not np.array_equal(order, np.arange(assign.size))
        twin = str(tmp_path / "twin.dxml")
        save_model(dataclasses.replace(
            arts, clusters=ClusterIndex(arts.clusters.centers, assign[order]),
            train_embeds=arts.train_embeds[order],
            train_labels=[arts.train_labels[i] for i in order]), twin)
        outputs = []
        for path in (model, twin):
            out = []
            for flags in (["-k", "10"], ["-k", "100", "--weighting", "inverse_distance"]):
                pred = str(tmp_path / "pred.txt")
                assert main(["-q", "predict", path, test, "--out", pred, *flags]) == 0
                out.append(read_bytes(pred))
            best = str(tmp_path / "best.txt")
            capsys.readouterr()
            assert main(["-q", "sweep-k", path, test, "--k-grid", "1,10,100",
                         "--weighting", "inverse_distance", "--out", best]) == 0
            out += [capsys.readouterr().out.encode(), read_bytes(best)]
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestEvaluate:
    def perfect_fixture(self, tmp_path):
        # 3 points, 5 true labels each, predictions listing them score-descending
        test = str(tmp_path / "test.txt")
        preds = str(tmp_path / "preds.txt")
        label_rows = [[0, 1, 2, 3, 4], [2, 3, 4, 5, 6], [0, 2, 4, 6, 7]]
        with open(test, "w") as fh:
            fh.write("3 2 8\n")
            for row in label_rows:
                fh.write(",".join(map(str, row)) + " 0:1.0\n")
        with open(preds, "w") as fh:
            for row in label_rows:
                fh.write("\t".join(f"{l}:{1.0 - 0.1 * i}" for i, l in enumerate(row)) + "\n")
        return preds, test

    def test_perfect_predictions_score_100(self, tmp_path, capsys):
        preds, test = self.perfect_fixture(tmp_path)
        out = str(tmp_path / "metrics.txt")
        assert main(["evaluate", preds, test, "--out", out]) == 0
        table = capsys.readouterr().out
        assert table.count("100.00") == 6
        kv = read_bytes(out).decode()
        for key in ("P@1", "P@3", "P@5", "nDCG@1", "nDCG@3", "nDCG@5"):
            assert f"{key}=100.00" in kv

    def test_ndcg1_always_equals_p1(self, trained_model, data_files, tmp_path):
        _, test = data_files
        preds = str(tmp_path / "preds.txt")
        out = str(tmp_path / "metrics.txt")
        assert main(["predict", trained_model, test, "--out", preds]) == 0
        assert main(["evaluate", preds, test, "--out", out]) == 0
        kv = dict(
            line.split("=") for line in read_bytes(out).decode().splitlines()
        )
        assert kv["nDCG@1"] == kv["P@1"]

    def test_line_count_mismatch_fails(self, tmp_path, capsys):
        preds, test = self.perfect_fixture(tmp_path)
        with open(preds, "a") as fh:
            fh.write("0:1.0\n")
        assert main(["evaluate", preds, test]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_malformed_token_fails(self, tmp_path, capsys):
        preds, test = self.perfect_fixture(tmp_path)
        with open(preds, "w") as fh:
            fh.write("0:1.0\nnot-a-token\n2:0.5\n")
        assert main(["evaluate", preds, test]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_out_of_range_label_fails(self, tmp_path):
        preds, test = self.perfect_fixture(tmp_path)
        with open(preds, "w") as fh:
            fh.write("0:1.0\n99:1.0\n2:0.5\n")
        assert main(["evaluate", preds, test]) == 2

    def test_custom_ks(self, tmp_path, capsys):
        preds, test = self.perfect_fixture(tmp_path)
        assert main(["evaluate", preds, test, "--ks", "1,2"]) == 0
        table = capsys.readouterr().out
        assert re.search(r"^\s*2\s+100\.00\s+100\.00$", table, re.M)

    def test_config_ks_sets_the_table(self, tmp_path, capsys):
        preds, test = self.perfect_fixture(tmp_path)
        assert main(["evaluate", preds, test]) == 0
        default = capsys.readouterr().out
        assert main(["evaluate", preds, test, "--ks", "1,2"]) == 0
        flagged = capsys.readouterr().out
        cfg = tmp_path / "ev.cfg"
        cfg.write_text("ks = 1,2\n")
        assert main(["evaluate", preds, test, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == flagged != default

    def test_bad_ks_usage_error(self, tmp_path):
        preds, test = self.perfect_fixture(tmp_path)
        assert main(["evaluate", preds, test, "--ks", "0,3"]) == 1
        assert main(["evaluate", preds, test, "--ks", "3,3"]) == 1
        assert main(["evaluate", preds, test, "--ks", "a,b"]) == 1


class TestSweepK:
    def test_reports_best_k_lines(self, trained_model, data_files, tmp_path, capsys):
        _, test = data_files
        out = str(tmp_path / "best.txt")
        assert main(["sweep-k", trained_model, test, "--k-grid", "1,5,10",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        for x in (1, 3, 5):
            assert re.search(rf"^best_k_P@{x}=(1|5|10)$", stdout, re.M)
            assert re.search(rf"^best_k_nDCG@{x}=(1|5|10)$", stdout, re.M)
        assert read_bytes(out).decode().count("best_k_") == 6

    def test_single_candidate_reports_itself(self, trained_model, data_files, capsys):
        _, test = data_files
        assert main(["sweep-k", trained_model, test, "--k-grid", "7"]) == 0
        assert "best_k_P@1=7" in capsys.readouterr().out

    def test_config_ks_and_grid(self, trained_model, data_files, tmp_path, capsys):
        _, test = data_files
        assert main(["sweep-k", trained_model, test, "--k-grid", "1,5", "--ks", "1"]) == 0
        flagged = capsys.readouterr().out
        cfg = tmp_path / "sw.cfg"
        cfg.write_text("ks = 1\nk_grid = 1,5\n")
        assert main(["sweep-k", trained_model, test, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == flagged
        assert "P@3" not in flagged

    def test_empty_grid_is_usage_error(self, trained_model, data_files):
        _, test = data_files
        assert main(["sweep-k", trained_model, test, "--k-grid", ","]) == 1


class TestEmbedLabels:
    def test_writes_one_row_per_label(self, data_files, tmp_path):
        train, _ = data_files
        out = str(tmp_path / "V.txt")
        assert main(["embed-labels", train, "--out", out, "--embed-dim", "8",
                     "--walks-per-node", "3", "--walk-length", "10",
                     "--window", "3", "--embed-epochs", "1"]) == 0
        lines = read_bytes(out).decode().splitlines()
        assert len(lines) == load_repo_file(train).num_labels
        for idx, line in enumerate(lines):
            fields = line.split()
            assert len(fields) == 9  # index + 8 coordinates
            assert int(fields[0]) == idx
            np.array(fields[1:], dtype=np.float64)  # parses as floats

    def test_graph_file_and_config_file_reproduce_output(self, data_files, tmp_path):
        train, _ = data_files
        flags = ["--embed-dim", "8", "--walks-per-node", "3", "--walk-length", "10",
                 "--window", "3", "--embed-epochs", "1", "--seed", "4"]
        graph = str(tmp_path / "graph.txt")
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main(["embed-labels", train, "--out", a, "--export-graph", graph, *flags]) == 0
        assert main(["embed-labels", train, "--out", b, "--graph-file", graph, *flags]) == 0
        assert read_bytes(a) == read_bytes(b)
        # DeepWalk settings from a config file resolve as the same flags do
        cfg = tmp_path / "dw.cfg"
        cfg.write_text("embed_dim = 8\nwalks_per_node = 3\n")
        assert main(["embed-labels", train, "--out", b, "--config", str(cfg),
                     *flags[4:]]) == 0
        assert read_bytes(a) == read_bytes(b)


SUBCOMMANDS = next(
    action.choices for action in _build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
# Every optional flag of every subcommand except --help and --config.
CONFIG_FLAGS = [
    (command, action.option_strings[-1])
    for command, sub in SUBCOMMANDS.items()
    for action in sub._actions
    if action.option_strings and action.dest not in ("help", "config")
]


def flag_values(action):
    """Two distinct values the flag accepts."""
    if action.choices:
        return action.choices[0], action.choices[-1]
    return {int: ("7", "3"), float: ("0.25", "0.5"), _int_list: ("2,4", "1"), _seed: ("7", "3"),
            None: ("a.txt", "b.txt")}[action.type]


def base_argv(command, skip=None):
    """The command with placeholder positionals and its required flags, bar ``skip``."""
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if not action.option_strings:
            argv.append("x.txt")
        elif action.required and action.option_strings[-1] != skip:
            argv += [action.option_strings[-1], flag_values(action)[0]]
    return argv


def parse(argv):
    parsed = vars(_build_parser().parse_args(argv))
    del parsed["config"]
    return parsed


class TestConfigFile:
    @pytest.mark.parametrize("command,flag", CONFIG_FLAGS, ids=[" ".join(c) for c in CONFIG_FLAGS])
    def test_key_parses_as_its_flag(self, command, flag, tmp_path):
        action = SUBCOMMANDS[command]._option_string_actions[flag]
        base = base_argv(command, skip=flag)
        cfg = tmp_path / "run.cfg"
        name = flag.lstrip("-")
        for key in (name, name.replace("-", "_")):
            if action.nargs == 0:
                cfg.write_text(f"{key} = true\n")
                assert parse(base + ["--config", str(cfg)]) == parse(base + [flag])
            else:
                file_value, flag_value = flag_values(action)
                cfg.write_text(f"{key} = {file_value}\n")
                assert parse(base + ["--config", str(cfg)]) == parse(base + [flag, file_value])
                # a flag on the command line beats the file, before or after --config
                want = parse(base + [flag, flag_value])
                assert parse(base + ["--config", str(cfg), flag, flag_value]) == want
                assert parse(base + [flag, flag_value, "--config", str(cfg)]) == want

    @pytest.mark.parametrize("spelling", ["true", "1", "yes", "True", "YES",
                                          "false", "0", "no", "False", "NO"])
    def test_switch_spellings(self, spelling, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_target_norm = {spelling}\nweighted-walks = {spelling}\n")
        given = spelling.lower() in ("true", "1", "yes")
        switches = ["--no-target-norm", "--weighted-walks"] if given else []
        base = base_argv("train")
        assert parse(base + ["--config", str(cfg)]) == parse(base + switches)

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_unknown_key_exits_1_naming_it(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 3\n")
        assert main(base_argv(command) + ["--config", str(cfg)]) == 1
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("epochs = many", "epochs"),
        ("weight_decay = -", "weight_decay"),
        ("normalize = max", "normalize"),
        ("weighted_walks = maybe", "weighted_walks"),
        ("loss_mode = mean", "loss_mode"),  # the keys of flags removed in 0.3.0
        ("no-bias = true", "no-bias"),
        ("train_file = a.txt", "train_file"),
        ("help = true", "help"),
        ("config = other.cfg", "config"),
    ])
    def test_bad_key_or_value_exits_1_naming_it(self, line, key, data_files, tmp_path, capsys):
        train, _ = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"hidden = 8\n{line}\n")
        assert main(["train", train, "--model-out", str(tmp_path / "m.dxml"), "--dry-run",
                     "--config", str(cfg)]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    def test_required_flag_from_file_trains_same_model(self, data_files, tmp_path):
        train, _ = data_files
        a, b = str(tmp_path / "a.dxml"), str(tmp_path / "b.dxml")
        assert main(["train", train, "--model-out", a, *TINY_FLAGS]) == 0
        cfg = tmp_path / "run.cfg"  # an underscore key, then the dashed flag names
        cfg.write_text(f"model_out = {b}\n" + "".join(
            f"{flag[2:]} = {value}\n" for flag, value in zip(TINY_FLAGS[::2], TINY_FLAGS[1::2])
        ))
        assert main(["train", train, "--config", str(cfg)]) == 0
        assert read_bytes(a) == read_bytes(b)


def with_byte_ff(src, dst):
    """Write a copy of ``src`` with byte 0xff, which is never UTF-8, in its middle."""
    blob = read_bytes(src)
    with open(dst, "wb") as fh:
        fh.write(blob[: len(blob) // 2] + b"\xff" + blob[len(blob) // 2:])
    return str(dst)


class TestNonUtf8Input:
    def test_train_file(self, data_files, tmp_path, capsys):
        bad = with_byte_ff(data_files[0], tmp_path / "train.txt")
        assert main(["train", bad, "--model-out", str(tmp_path / "m.dxml"), *TINY_FLAGS]) == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    def test_test_file(self, trained_model, data_files, tmp_path, capsys):
        bad = with_byte_ff(data_files[1], tmp_path / "test.txt")
        assert main(["predict", trained_model, bad, "--out", str(tmp_path / "p.txt")]) == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    def test_predictions_file(self, trained_model, data_files, tmp_path, capsys):
        _, test = data_files
        preds = str(tmp_path / "preds.txt")
        assert main(["predict", trained_model, test, "--out", preds]) == 0
        bad = with_byte_ff(preds, tmp_path / "bad.txt")
        assert main(["evaluate", bad, test]) == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    def test_graph_file(self, data_files, tmp_path, capsys):
        train, _ = data_files
        graph = tmp_path / "graph.txt"
        graph.write_bytes(b"6\n0 1 \xff\n")
        assert main(["train", train, "--model-out", str(tmp_path / "m.dxml"),
                     "--graph-file", str(graph), *TINY_FLAGS]) == 2
        assert f"{graph}: not UTF-8" in capsys.readouterr().err

    def test_config_file_is_usage_error(self, data_files, tmp_path, capsys):
        train, _ = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs = 3\n\xff\n")
        assert main(["train", train, "--model-out", str(tmp_path / "m.dxml"), "--dry-run",
                     "--config", str(cfg)]) == 1
        assert str(cfg) in capsys.readouterr().err


REPO = Path(__file__).resolve().parent.parent


class TestBenchmarkClient:
    """The benchmark's per-query client (``bench/child.py loop``) against ``predict``.

    The client reads ``Dataset.points`` and calls ``dxml.predict`` on one
    ``SparseVector`` at a time; its first pass must write the bytes the CLI
    writes for the whole test file.
    """

    @pytest.mark.parametrize("weighting", ["uniform", "inverse_distance"])
    def test_loop_writes_the_cli_predictions(self, weighting, trained_model, data_files,
                                             tmp_path):
        _, test = data_files
        files = {name: str(tmp_path / name) for name in ("pred", "tops", "lats", "cli")}
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, str(REPO / "bench" / "child.py"), "loop", trained_model, test,
             files["pred"], files["tops"], files["lats"], "10", weighting, "0"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["-q", "predict", trained_model, test, "-k", "10",
                     "--weighting", weighting, "--out", files["cli"]]) == 0
        assert read_bytes(files["pred"]) == read_bytes(files["cli"])
        tops = Path(files["tops"]).read_text().splitlines()
        assert len(tops) == load_repo_file(test).num_points
        for line, pred in zip(tops, Path(files["cli"]).read_text().splitlines()):
            assert line.split() == [pair.split(":")[0] for pair in pred.split("\t")][:5]


def readme_sections():
    """Each subcommand's section of the README's CLI reference, its heading included."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    reference = text.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    return {re.match(r"`dxml ([\w-]+)", part).group(1): part
            for part in reference.split("\n### ")[1:]}


def named_flags(text):
    """The flags, ``--name`` or ``-k``, named by the text's code spans that are dxml's.

    A span is dxml's if it starts with a flag or with ``dxml``; a span such
    as ``bench/run.py --seed 1`` names another program's flag.
    """
    return {flag for span in re.findall(r"`([^`]+)`", text) if re.match(r"-|dxml ", span)
            for flag in re.findall(r"(?<![\w-])--?[a-z][\w-]*", span)}


class TestReadmeCliReference:
    """The README's CLI reference and ``_build_parser`` name the same flags."""

    def test_every_subcommand_has_a_section(self):
        assert sorted(readme_sections()) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_named_flags_exist(self, command):
        missing = named_flags(readme_sections()[command]) - set(
            SUBCOMMANDS[command]._option_string_actions)
        assert not missing, f"README names flags that `dxml {command}` lacks: {sorted(missing)}"

    # embed-labels shares train's walk flags and points to its table.
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "sweep-k"])
    def test_every_flag_is_named(self, command):
        flags = {opt for action in SUBCOMMANDS[command]._actions
                 if action.dest not in ("help", "config") for opt in action.option_strings}
        missing = flags - named_flags(readme_sections()[command])
        assert not missing, f"README does not name these `dxml {command}` flags: {sorted(missing)}"


class TestUsage:
    def test_version_matches_pyproject(self):
        with open(REPO / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == dxml.__version__

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_subcommand_help_exits_zero(self):
        assert main(["train", "--help"]) == 0

    def test_missing_required_args(self):
        assert main([]) == 1
        assert main(["train"]) == 1  # no file, no --model-out
        assert main(["frobnicate"]) == 1

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dxml.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "train" in proc.stdout and "sweep-k" in proc.stdout
