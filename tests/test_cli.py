import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopformer import (GraphError, analysis, dataset_small_world, generate_erdos_renyi,
                       generate_watts_strogatz, load_dataset, load_model)
from hopformer.cli import main
from hopformer.graphs import graph_to_obj
from hopformer.model import MAX_WEIGHTS


def write_single_edge(path):
    obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
    path.write_text(json.dumps(obj))


def write_labelled_graph(path, n=10, seed=0):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < 0.4
    obj = {
        "num_nodes": n,
        "edges": np.column_stack([iu[keep], ju[keep]]).tolist(),
        "node_features": rng.standard_normal((n, 3)).tolist(),
        "node_labels": rng.integers(0, 2, size=n).tolist(),
    }
    path.write_text(json.dumps(obj))


def run_config(lr=1e-2, epochs=3):
    return {
        "model": {"hidden_dim": 8, "head_hops": [1, 3], "num_layers": 1,
                  "ffn_dim": 16, "num_heads": 2, "task": "node_classification",
                  "num_classes": 2, "seed": 0},
        "train": {"learning_rate": lr, "epochs": epochs, "seed": 0},
    }


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "augment" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["masks", "--help"]) == 0
        out = capsys.readouterr().out
        assert "two hops" in out.lower() or "TWO hops" in out

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["gen", "--model", "ws", "--n", "10", "--frobnicate"]) == 2

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2

    def test_missing_input_file_exits_two(self, tmp_path, capsys):
        assert main(["augment", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "out.json")]) == 2

    @pytest.mark.parametrize("argv, code, stream", [(["train", "--help"], 0, "stdout"),
                                                    (["train"], 2, "stderr")])
    def test_module_entry_runs_the_cli(self, tmp_path, argv, code, stream):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "hopformer.cli"] + argv, cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert "usage: hopformer train" in getattr(proc, stream)

    def test_bracketed_path_is_read_as_a_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_labelled_graph(tmp_path / "[g].json")
        (tmp_path / "cfg.json").write_text(json.dumps(run_config()))
        assert main(["augment", "[g].json", "--output", "aug.json"]) == 0
        assert main(["train", "[g].json", "--config", "cfg.json", "--output", "run"]) == 0
        assert (tmp_path / "run" / "model.json").exists()

    @pytest.mark.parametrize("command", ["augment", "masks", "train", "analyze", "flops"])
    def test_missing_braced_path_exits_two_naming_it(self, tmp_path, monkeypatch, capsys,
                                                     command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(run_config()))
        extra = ["--config", "cfg.json"] if command in ("train", "flops") else []
        assert main([command, "{x}.json", *extra, "--output", "out"]) == 2
        assert "{x}.json" in capsys.readouterr().err


class TestGen:
    def test_ws_output_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--model", "ws", "--n", "20", "--k", "4", "--beta", "0.5",
                "--seed", "7"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        obj = json.loads(out1.read_text())
        assert obj["num_nodes"] == 20
        assert len(obj["edges"]) == 40

    def test_er_generates_loadable_graph(self, tmp_path):
        out = tmp_path / "er.json"
        assert main(["gen", "--model", "er", "--n", "15", "--p", "0.2",
                     "--seed", "1", "--output", str(out)]) == 0
        from hopformer import load_graph
        g = load_graph(str(out))
        assert g.num_nodes == 15

    def test_invalid_params_exit_two(self, tmp_path, capsys):
        assert main(["gen", "--model", "ws", "--n", "4", "--k", "4",
                     "--output", str(tmp_path / "x.json")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--model", "er", "--p", "0.3", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["--model", "ws", "--k", "4", "--beta", "0.1", "--seed", "-2"],
         "seed must be non-negative, got -2")])
    def test_negative_seed_is_named(self, tmp_path, capsys, flags, message):
        # numpy's "expected non-negative integer" named no argument
        out = tmp_path / "x.json"
        assert main(["gen", "--n", "10", *flags, "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestAugment:
    def test_single_edge_counts(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_single_edge(src)
        out = tmp_path / "aug.json"
        assert main(["augment", str(src), "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["total_tokens"] == 3
        assert obj["directed_links"] == 4

    def test_idempotent_bytes(self, tmp_path):
        src = tmp_path / "g.json"
        write_single_edge(src)
        out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
        main(["augment", str(src), "--output", str(out1)])
        main(["augment", str(src), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_json_exits_two_with_diagnostic(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text("{oops")
        assert main(["augment", str(src), "--output", str(tmp_path / "o.json")]) == 2
        assert "line" in capsys.readouterr().err


    @pytest.mark.parametrize("obj, field", [
        ({"num_nodes": 2, "edges": [[0.7, 1]], "node_features": [[1], [2]]}, "edges"),
        ({"num_nodes": True, "edges": [], "node_features": [[1]]}, "num_nodes"),
        ({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [float("inf")]]},
         "node_features row 1"),
    ])
    def test_bad_field_exits_two_naming_it(self, tmp_path, capsys, obj, field):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(obj))
        assert main(["augment", str(src), "--output", str(tmp_path / "o.json")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("field, entry, got", [
        ("node_features", "0.5", "'0.5'"), ("node_features", True, "a boolean"),
        ("node_features", None, "None"), ("edge_features", "1", "'1'")])
    def test_feature_entry_that_is_not_a_number_exits_two_naming_it(self, tmp_path, capsys,
                                                                     field, entry, got):
        # "0.5" loaded as 0.5, true as 1.0, and null read as a non-finite value
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]],
               "edge_features": [[1.0, 2.0]]}
        obj[field][-1][-1] = entry
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(obj))
        assert main(["augment", str(src), "--output", str(tmp_path / "o.json")]) == 2
        at = "[1, 0]" if field == "node_features" else "[0, 1]"
        assert f"{field} must hold numbers, got {got} at index {at}" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestMasks:
    def test_dumps_and_stats(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_single_edge(src)
        prefix = tmp_path / "m"
        assert main(["masks", str(src), "--hops", "1,2", "--output", str(prefix)]) == 0
        dump = (tmp_path / "m_hop1.txt").read_text().splitlines()
        assert dump[0] == "3 7 1"
        stats = json.loads((tmp_path / "m_stats.json").read_text())
        assert stats["per_hop"]["1"]["nnz"] == 7
        assert stats["per_hop"]["2"]["nnz"] == 9

    def test_default_hop_menu(self, tmp_path):
        src = tmp_path / "g.json"
        write_single_edge(src)
        prefix = tmp_path / "mm"
        assert main(["masks", str(src), "--output", str(prefix)]) == 0
        for n in (1, 3, 6, 12, 24, 48):
            assert (tmp_path / f"mm_hop{n}.txt").exists()

    def test_reruns_byte_identical(self, tmp_path):
        src = tmp_path / "g.json"
        write_single_edge(src)
        main(["masks", str(src), "--hops", "2", "--output", str(tmp_path / "p1")])
        main(["masks", str(src), "--hops", "2", "--output", str(tmp_path / "p2")])
        assert (tmp_path / "p1_hop2.txt").read_bytes() == \
            (tmp_path / "p2_hop2.txt").read_bytes()

    def test_bad_hop_list_exits_two(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_single_edge(src)
        assert main(["masks", str(src), "--hops", "1,two",
                     "--output", str(tmp_path / "p")]) == 2
        assert "hop" in capsys.readouterr().err


    def test_empty_hop_list_exits_two(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_single_edge(src)
        assert main(["masks", str(src), "--hops", ",", "--output", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err == "error: hop list is empty\n"
        assert list(tmp_path.iterdir()) == [src]


class TestAnalyze:
    def test_csv_schema_and_values(self, tmp_path):
        src = tmp_path / "tri.json"
        src.write_text(json.dumps({"num_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                                   "node_features": [[1.0], [1.0], [1.0]]}))
        out = tmp_path / "report.csv"
        assert main(["analyze", str(src), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema:")
        assert "# dataset_mean_clustering=1.0" in lines[1]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("0,3,3,1.0,1.0,1,1")

    def test_dataset_array_input(self, tmp_path):
        tri = {"num_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]],
               "node_features": [[1.0]] * 3}
        p3 = {"num_nodes": 3, "edges": [[0, 1], [1, 2]],
              "node_features": [[1.0]] * 3}
        src = tmp_path / "ds.json"
        src.write_text(json.dumps([tri, p3]))
        out = tmp_path / "r.csv"
        assert main(["analyze", str(src), "--output", str(out)]) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 2

    def test_rerun_byte_identical(self, tmp_path):
        src = tmp_path / "g.json"
        main(["gen", "--model", "er", "--n", "12", "--p", "0.3", "--seed", "2",
              "--output", str(src)])
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["analyze", str(src), "--output", str(o1)])
        main(["analyze", str(src), "--output", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()


    def test_one_path_search_per_graph_and_means_from_reports(self, tmp_path,
                                                              monkeypatch):
        graphs = [{"num_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                   "node_features": [[1.0]] * 3},
                  {"num_nodes": 4, "edges": [[0, 1], [1, 2]],
                   "node_features": [[1.0]] * 4},
                  {"num_nodes": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 2]],
                   "node_features": [[1.0]] * 5}]
        src = tmp_path / "ds.json"
        src.write_text(json.dumps(graphs))
        calls = []
        real = analysis._summary
        monkeypatch.setattr(analysis, "_summary",
                            lambda g, last: calls.append(g.num_nodes) or real(g, last))
        out = tmp_path / "r.csv"
        assert main(["analyze", str(src), "--output", str(out)]) == 0
        assert calls == [3, 4, 5]
        mean_c, mean_l = dataset_small_world(load_dataset(str(src)))
        lines = out.read_text().splitlines()
        assert lines[1] == f"# dataset_mean_clustering={mean_c!r}"
        assert lines[2] == f"# dataset_mean_avg_path_length={mean_l!r}"

    def test_seeded_dataset_csv_is_pinned(self, tmp_path):
        # sha256 of the CSV as the key search wrote it for the 1100-node graph
        # (n * 2E > 2^20) and bit rows for the rest: the column-blocked search
        # must write the same bytes
        graphs = [generate_erdos_renyi(12, 0.3, seed=1), generate_erdos_renyi(20, 0.2, seed=2),
                  generate_erdos_renyi(30, 0.05, seed=4), generate_erdos_renyi(2, 1.0, seed=0),
                  generate_watts_strogatz(1100, 4, 0.1, seed=3)]
        src, out = tmp_path / "ds.json", tmp_path / "r.csv"
        src.write_text(json.dumps([graph_to_obj(g) for g in graphs]))
        assert main(["analyze", str(src), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "89cb4672a6532b5aa634440f26639c4b8f56a8f1ee10496292fc61e2a80da897"

    def test_empty_dataset_exits_two(self, tmp_path, capsys):
        src = tmp_path / "empty.json"
        src.write_text("[]")
        assert main(["analyze", str(src), "--output", str(tmp_path / "r.csv")]) == 2
        assert "no graphs" in capsys.readouterr().err


class TestFlops:
    def test_report_written(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        assert main(["gen", "--model", "ws", "--n", "20", "--k", "4",
                     "--beta", "0.2", "--seed", "0", "--output", str(src)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        out = tmp_path / "flops.csv"
        assert main(["flops", str(src), "--config", str(cfg_path),
                     "--hop-configs", "1,2;1,4;2,6", "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# schema:")
        assert "# fit:" in text

    def test_default_hop_configs_need_four_heads(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        main(["gen", "--model", "ws", "--n", "16", "--k", "4", "--beta", "0.1",
              "--seed", "0", "--output", str(src)])
        cfg = run_config()
        cfg["model"].update({"num_heads": 4, "head_hops": [1, 3, 6, 12],
                             "hidden_dim": 8})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "flops.csv"
        assert main(["flops", str(src), "--config", str(cfg_path),
                     "--output", str(out)]) == 0

    def test_constant_totals_exit_zero_with_r_squared_one(self, tmp_path, capsys):
        # five equal path graphs and no layers: every total is the same, and
        # the fit divided polyfit's rounding by ss_tot = 0
        path = {"num_nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                "node_features": [[1.0]] * 4}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([path] * 5))
        cfg = run_config()
        cfg["model"]["num_layers"] = 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "flops.csv"
        assert main(["flops", str(src), "--config", str(cfg_path),
                     "--hop-configs", "1,1;1,2;2,2", "--output", str(out)]) == 0
        assert "r_squared=1.000000" in capsys.readouterr().out
        assert "r_squared=1.0\n" in out.read_text()

    def test_empty_dataset_exits_two(self, tmp_path, capsys):
        src = tmp_path / "empty.json"
        src.write_text("[]")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        out = tmp_path / "flops.csv"
        assert main(["flops", str(src), "--config", str(cfg_path),
                     "--output", str(out)]) == 2
        assert f"{src} holds no graphs" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_node_graph_exits_two_naming_it(self, tmp_path, capsys):
        tri = {"num_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]], "node_features": [[1.0]] * 3}
        empty = {"num_nodes": 0, "edges": [], "node_features": []}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([tri, tri, empty]))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "flops.csv"
        assert main(["flops", str(src), "--config", str(cfg_path),
                     "--hop-configs", "1,2;1,4;2,6", "--output", str(out)]) == 2
        assert ("error: graph 2 has no nodes; graph-level tasks need at least one"
                in capsys.readouterr().err)
        assert not out.exists()


class TestTrain:
    def test_artifacts_written(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 0
        assert (outdir / "model.json").exists()
        history = (outdir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_metric,test_metric,seconds"
        assert len(history) == 4
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seeds"] == [0]
        assert str(outdir / "model.json") in manifest["artifacts"]
        assert manifest["tool_version"]

    def test_manifest_records_the_numeric_build(self, tmp_path, monkeypatch):
        # numpy version, BLAS build and the BLAS thread variables as set: seeded
        # results are bit-identical within one build at one thread count
        from hopformer.cli import BLAS_THREAD_VARS, _numeric_build

        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        runs = []
        for _ in range(2):
            main(["train", str(src), "--config", str(cfg_path), "--output", str(tmp_path / "r")])
            runs.append(json.loads((tmp_path / "r" / "manifest.json").read_text()))
        build = runs[0]["numeric_build"]
        assert build == {**_numeric_build(), "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}
        assert build["numpy"] == np.__version__ and build["blas"]["name"]
        # a same-seed rerun differs only in its timestamps
        for run in runs:
            assert run.pop("started_at") <= run.pop("finished_at")
        assert runs[0] == runs[1]

    def test_checkpoint_rerun_byte_identical(self, tmp_path):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", str(src), "--config", str(cfg_path), "--output", str(out1)])
        main(["train", str(src), "--config", str(cfg_path), "--output", str(out2)])
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_config_hash_stable_under_key_reordering(self, tmp_path):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg = run_config()
        reordered = {"train": dict(reversed(list(cfg["train"].items()))),
                     "model": dict(reversed(list(cfg["model"].items())))}
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        p1.write_text(json.dumps(cfg))
        p2.write_text(json.dumps(reordered))
        o1, o2 = tmp_path / "h1", tmp_path / "h2"
        main(["train", str(src), "--config", str(p1), "--output", str(o1)])
        main(["train", str(src), "--config", str(p2), "--output", str(o2)])
        h1 = json.loads((o1 / "manifest.json").read_text())["config_hash"]
        h2 = json.loads((o2 / "manifest.json").read_text())["config_hash"]
        assert h1 == h2

    def test_nan_abort_exits_three(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config(lr=1e150, epochs=10)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", str(src), "--config", str(cfg_path),
                         "--output", str(tmp_path / "run")]) == 3
        assert "aborted" in capsys.readouterr().err

    def test_bad_graph_label_exits_two_naming_it(self, tmp_path, capsys):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([dict(obj, graph_label=1), dict(obj, graph_label="x")]))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "graph 1" in err and "graph_label" in err
        assert not (outdir / "model.json").exists()

    def test_ragged_node_features_exit_two_naming_them(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                                   "node_features": [[1.0, 2.0], [3.0]],
                                   "node_labels": [0, 1]}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "node_features" in err and "Traceback" not in err

    def test_zero_node_graph_exits_two_naming_it(self, tmp_path, capsys):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
        empty = {"num_nodes": 0, "edges": [], "node_features": [], "graph_label": 0}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([dict(obj, graph_label=1), empty,
                                   dict(obj, graph_label=0)]))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        assert "graph 1 has no nodes" in capsys.readouterr().err
        assert not (outdir / "model.json").exists()

    def test_refused_run_leaves_no_output_directory(self, tmp_path, capsys):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([dict(obj, graph_label=i % 2) for i in range(4)]
                                  + [dict(obj, graph_label=5)]))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "fresh_out"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        assert "graph 4 has graph_label 5" in capsys.readouterr().err
        assert not outdir.exists()

    def test_config_past_the_weight_cap_exits_two_without_output(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg = run_config()
        cfg["model"]["num_layers"] = 10**9
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "fresh_out"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        assert f"cap of {MAX_WEIGHTS}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_each_graph_is_augmented_once(self, tmp_path, monkeypatch):
        from hopformer import graphs as graphs_module, training
        obj = {"num_nodes": 3, "edges": [[0, 1], [1, 2]], "node_features": [[1.0]] * 3}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([dict(obj, graph_label=i % 2) for i in range(6)]))
        cfg = run_config(epochs=1)
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        calls = []
        real = graphs_module.augment
        for module in (graphs_module, training, sys.modules["hopformer.cli"]):
            monkeypatch.setattr(module, "augment", lambda g: calls.append(g) or real(g))
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")]) == 0
        assert len(calls) == 6

    def test_empty_dataset_exits_two(self, tmp_path, capsys):
        src = tmp_path / "empty.json"
        src.write_text("[]")
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")]) == 2
        assert "no graphs" in capsys.readouterr().err

    def test_missing_graph_label_exits_two_naming_the_graph(self, tmp_path, capsys):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
        graphs = [dict(obj, graph_label=i % 2) for i in range(5)]
        del graphs[1]["graph_label"]
        src = tmp_path / "data.json"
        src.write_text(json.dumps(graphs))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        assert "graph 1 has no graph_label" in capsys.readouterr().err
        assert not (outdir / "model.json").exists()

    def test_empty_split_exits_two_naming_it(self, tmp_path, capsys):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([dict(obj, graph_label=i % 2) for i in range(3)]))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        assert "the test split of 3 graphs is empty" in capsys.readouterr().err
        assert not (outdir / "model.json").exists()

    @pytest.mark.parametrize("section,field,value,message", [
        ("train", "learning_rate", float("nan"), "learning_rate must be a finite number, got nan"),
        ("train", "weight_decay", float("nan"), "weight_decay must be a finite number, got nan"),
        ("train", "val_frac", float("nan"), "val_frac must be a finite number, got nan"),
        ("train", "epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("model", "head_hops", [1.5, 3], "head_hops entry 0 must be an integer, got 1.5"),
        ("model", "hidden_dim", 8.5, "hidden_dim must be an integer, got 8.5"),
        ("model", "num_layers", True, "num_layers must be an integer, got True"),
        ("model", "hidden_dim", 0, "hidden_dim must be positive, got 0"),
        ("train", "learning_rate", -0.1, "learning_rate must be non-negative, got -0.1"),
        ("train", "epochs", -1, "epochs must be non-negative, got -1"),
        ("train", "batch_size", 0, "batch_size must be positive, got 0"),
        ("model", "head_hops", [1, -3], "head_hops entry 1 must be non-negative, got -3"),
        ("model", "num_layers", -1, "num_layers must be non-negative, got -1"),
        ("model", "seed", -1, "seed must be non-negative, got -1"),
        ("train", "seed", -5, "seed must be non-negative, got -5"),
        ("train", "early_stop_patience", -1, "early_stop_patience must be non-negative, got -1"),
        ("model", "readout", "max", "readout must be one of ('mean', 'sum'), got 'max'"),
        ("model", "norm", "mid", "norm must be one of ('post', 'pre'), got 'mid'"),
        ("train", "weight_decay", -1.0, "weight_decay must be non-negative, got -1.0")])
    def test_bad_config_value_exits_two_naming_the_field(self, tmp_path, capsys, section,
                                                          field, value, message):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg = run_config()
        cfg[section][field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (outdir / "model.json").exists()

    def test_node_task_on_a_multi_graph_file_exits_two(self, tmp_path, capsys):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]],
               "node_labels": [0, 1]}
        src = tmp_path / "data.json"
        src.write_text(json.dumps([obj, obj]))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(outdir)]) == 2
        assert capsys.readouterr().err == \
            "error: node classification expects a single-graph input file\n"
        assert not outdir.exists()

    def test_integral_float_dims_train_and_are_saved_as_ints(self, tmp_path):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfgs = run_config(), run_config()
        cfgs[1]["model"].update(hidden_dim=8.0, head_hops=[1.0, 3])
        cfgs[1]["train"]["epochs"] = 3.0
        outs = []
        for i, cfg in enumerate(cfgs):
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(cfg))
            outs.append(tmp_path / f"run{i}")
            assert main(["train", str(src), "--config", str(cfg_path),
                         "--output", str(outs[-1])]) == 0
        assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()

    def test_seed_flag_equals_seed_seven_in_both_sections(self, tmp_path):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg, cfg7 = run_config(), run_config()
        cfg7["model"]["seed"] = cfg7["train"]["seed"] = 7
        runs = {}
        for name, obj, extra in [("flag", cfg, ["--seed", "7"]), ("config", cfg7, []),
                                 ("unseeded", cfg, [])]:
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(obj))
            assert main(["train", str(src), "--config", str(cfg_path),
                         "--output", str(tmp_path / name), *extra]) == 0
            runs[name] = (tmp_path / name / "model.json").read_bytes()
        assert runs["flag"] == runs["config"] != runs["unseeded"]
        assert json.loads((tmp_path / "flag" / "manifest.json").read_text())["seeds"] == [7]

    def test_negative_seed_flag_exits_two_naming_the_field(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config()))
        outdir = tmp_path / "run"
        assert main(["train", str(src), "--config", str(cfg_path), "--output", str(outdir),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not outdir.exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_labelled_graph(src)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"learning_rate": 0.1, "epochs": 1}}))
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")]) == 2
        assert "model" in capsys.readouterr().err


class TestInputFiles:
    """Every input file is read by one reader, so every kind reports invalid
    JSON the same way, naming the file, and the CLI exits 2."""

    BAD = '{"num_nodes": 2,\n  "edges": [[0, 1],, ]}'

    def _setup(self, tmp_path):
        good = tmp_path / "g.json"
        write_labelled_graph(good)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(run_config()))
        bad = tmp_path / "bad.json"
        bad.write_text(self.BAD)
        return good, cfg, bad

    @pytest.mark.parametrize("kind", ["graph", "dataset", "run config", "flops run config",
                                      "checkpoint"])
    def test_invalid_json_names_the_file_and_exits_two(self, tmp_path, capsys, kind):
        good, cfg, bad = self._setup(tmp_path)
        out = str(tmp_path / "out")
        expected = f"{bad}: invalid JSON at line 2, column 20: Expecting value"
        if kind == "checkpoint":   # no subcommand reads a checkpoint; the CLI exits 2 on GraphError
            with pytest.raises(GraphError) as info:
                load_model(str(bad))
            assert str(info.value) == expected
            return
        argv = {"graph": ["augment", str(bad), "--output", out],
                "dataset": ["analyze", str(bad), "--output", out],
                "run config": ["train", str(good), "--config", str(bad), "--output", out],
                "flops run config": ["flops", str(good), "--config", str(bad),
                                     "--output", out]}[kind]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("command", ["train", "flops"])
    @pytest.mark.parametrize("obj, message", [
        ({"model": 5, "train": {"learning_rate": 0.1, "epochs": 1}},
         "run config section 'model' must be a JSON object, got int"),
        ([], "run config must be a JSON object, got list"),
        ({"train": {"learning_rate": 0.1, "epochs": 1}},
         "run config is missing required field 'model'")])
    def test_malformed_run_config_names_what_is_wrong(self, tmp_path, capsys, command, obj,
                                                      message):
        good, cfg, _ = self._setup(tmp_path)
        cfg.write_text(json.dumps(obj))
        assert main([command, str(good), "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        named = message.replace("run config", f"run config {cfg}")
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize("section, message", [
        ([], "run config section 'train' must be a JSON object, got list"),
        (None, "run config is missing required field 'train'")])
    def test_malformed_train_section_exits_two(self, tmp_path, capsys, section, message):
        good, cfg, _ = self._setup(tmp_path)
        obj = run_config()
        if section is None:
            del obj["train"]
        else:
            obj["train"] = section
        cfg.write_text(json.dumps(obj))
        assert main(["train", str(good), "--config", str(cfg), "--output",
                     str(tmp_path / "run")]) == 2
        named = message.replace("run config", f"run config {cfg}")
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, problem", [
        (lambda c: c["model"].update(foo=1), "section 'model' has unknown field 'foo'"),
        (lambda c: c["model"].pop("hidden_dim"),
         "section 'model' is missing required field 'hidden_dim'"),
        (lambda c: c["train"].update(lr=1), "section 'train' has unknown field 'lr'")])
    def test_config_fields_checked_naming_file_section_and_accepted(self, tmp_path, capsys,
                                                                    edit, problem):
        good, cfg, _ = self._setup(tmp_path)
        obj = run_config()
        edit(obj)
        cfg.write_text(json.dumps(obj))
        assert main(["train", str(good), "--config", str(cfg), "--output",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: run config {cfg} {problem}; accepted fields: ")
        assert ("hidden_dim, head_hops" in err) == ("'model'" in problem)

    @pytest.mark.parametrize("command, obj, message", [
        ("augment", {"num_nodes": 2, "node_features": [[1], [2]]},
         "graph object is missing required field 'edges'"),
        ("analyze", [{"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [2]]},
                     {"num_nodes": 2, "node_features": [[1], [2]]}],
         "graph 1: graph object is missing required field 'edges'")])
    def test_field_errors_name_the_file(self, tmp_path, capsys, command, obj, message):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(obj))
        assert main([command, str(src), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {src}: {message}\n"

    @pytest.mark.parametrize("label, problem", [
        (1.5, "graph 3 has graph_label 1.5, not a class in [0, 2)"),
        (5, "graph 3 has graph_label 5, not a class in [0, 2)")])
    def test_graph_class_outside_the_classes_exits_two(self, tmp_path, capsys, label,
                                                      problem):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
        graphs = [dict(obj, graph_label=i % 2) for i in range(10)]
        graphs[3]["graph_label"] = label
        src = tmp_path / "data.json"
        src.write_text(json.dumps(graphs))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "run" / "model.json").exists()

    def test_feature_dim_of_a_later_graph_exits_two(self, tmp_path, capsys):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [2.0]]}
        graphs = [dict(obj, graph_label=i % 2) for i in range(10)]
        graphs[6]["node_features"] = [[1.0, 0.0], [2.0, 0.0]]
        src = tmp_path / "data.json"
        src.write_text(json.dumps(graphs))
        cfg = run_config()
        cfg["model"]["task"] = "graph_classification"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", str(src), "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == \
            "error: graph 6 has node/edge feature dims 2/0, the model expects 1/0\n"

    def test_split_fraction_outside_unit_interval_exits_two(self, tmp_path, capsys):
        good, cfg, _ = self._setup(tmp_path)
        obj = run_config()
        obj["train"].update(train_frac=1.2, val_frac=-0.2, test_frac=0.0)
        cfg.write_text(json.dumps(obj))
        assert main(["train", str(good), "--config", str(cfg), "--output",
                     str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: train_frac must be in [0, 1], got 1.2\n"

    def test_reversed_pair_with_edge_features_exits_two(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1], [1, 0]],
                                   "node_features": [[1.0], [2.0]],
                                   "edge_features": [[1.0], [2.0]]}))
        assert main(["augment", str(src), "--output", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "position 1" in err and "position 0" in err and "edge_features" in err
