import ast
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import hopformer

from hopformer import (Graph, GraphError, augment, generate_erdos_renyi,
                       generate_sbm, generate_watts_strogatz, load_dataset,
                       load_graph, relabel_nodes, save_graph)
from hopformer import graphs as graphs_module
from hopformer import masks as masks_module
from hopformer.graphs import (EDGE_TOKEN, NODE_TOKEN, _config_from_obj, _json_object,
                              _read_json, csr_from_pairs)

from helpers import (brute_clustering, random_graph, reference_augment,
                     shuffled_reversed_copy, single_edge_graph, triangle_graph)


def _edges_sha256(graphs) -> str:
    """sha256 of the graphs' edges, stacked, as little-endian int64."""
    edges = np.concatenate([g.edges for g in graphs]).astype("<i8")
    return hashlib.sha256(edges.tobytes()).hexdigest()


def _bench_workloads():
    """bench/workloads.py, the benchmark's seeded inputs, as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def assert_same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_columns_ascend(indptr: np.ndarray, indices: np.ndarray) -> None:
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    assert np.all((np.diff(indices) > 0) | (np.diff(rows) > 0))


class TestGraphInvariants:
    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError, match=r"edge 0 .*outside"):
            Graph(num_nodes=2, edges=np.array([[0, 5]]), node_features=np.ones((2, 1)))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(num_nodes=3, edges=np.array([[1, 1]]), node_features=np.ones((3, 1)))

    def test_duplicate_unordered_pair_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(num_nodes=3, edges=np.array([[0, 1], [1, 0]]),
                  node_features=np.ones((3, 1)))

    def test_feature_row_count(self):
        with pytest.raises(GraphError, match="node_features"):
            Graph(num_nodes=2, edges=np.zeros((0, 2)), node_features=np.ones((3, 1)))

    def test_edge_feature_row_count(self):
        with pytest.raises(GraphError, match="edge_features"):
            Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=np.ones((2, 1)),
                  edge_features=np.ones((2, 3)))

    @pytest.mark.parametrize("label", ["x", True, np.True_, [1], float("nan"),
                                       float("inf"), np.float64("-inf")])
    def test_bad_graph_label_rejected(self, label):
        with pytest.raises(GraphError, match="graph_label"):
            Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=np.ones((2, 1)),
                  graph_label=label)

    @pytest.mark.parametrize("label", [None, 0, 3, np.int64(1), 2.5, -0.25, np.float32(0.5)])
    def test_integer_and_finite_graph_labels_accepted(self, label):
        g = Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=np.ones((2, 1)),
                  graph_label=label)
        assert g.graph_label is label

    @pytest.mark.parametrize("n", [3.0, np.float64(3.0)], ids=["float", "np.float64"])
    def test_integral_float_node_count_accepted(self, n):
        g = Graph(num_nodes=n, edges=np.array([[0, 2]]), node_features=np.ones((3, 1)))
        assert type(g.num_nodes) is int and g.num_nodes == 3
        text = json.dumps({"num_nodes": float(n), "edges": [[0, 2]], "node_features": [1] * 3})
        assert text.startswith('{"num_nodes": 3.0,') and load_graph(text).num_nodes == 3

    @pytest.mark.parametrize("n, message", [(-1, "num_nodes must be non-negative, got -1"),
                                            (2.5, "num_nodes must be an integer, got 2.5")])
    def test_negative_or_fractional_node_count_refused(self, n, message):
        with pytest.raises(GraphError, match=message):
            Graph(num_nodes=n, edges=np.zeros((0, 2)), node_features=np.ones((2, 1)))

    def test_fractional_endpoint_rejected_not_truncated(self):
        with pytest.raises(GraphError, match=r"edges must hold integers, got 0\.7"):
            Graph(num_nodes=2, edges=np.array([[0.7, 1.0]]), node_features=np.ones((2, 1)))

    def test_integral_float_endpoints_accepted(self):
        g = Graph(num_nodes=2, edges=np.array([[0.0, 1.0]]), node_features=np.ones((2, 1)))
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 1]]

    def test_boolean_integer_fields_rejected(self):
        with pytest.raises(GraphError, match="num_nodes"):
            Graph(num_nodes=True, edges=np.zeros((0, 2)), node_features=np.ones((1, 1)))
        with pytest.raises(GraphError, match="edges must hold integers"):
            Graph(num_nodes=2, edges=np.array([[True, False]]), node_features=np.ones((2, 1)))

    @pytest.mark.parametrize("edges", [np.array([[0, 1, 2], [1, 2, 0]]),
                                       np.array([0, 1, 1, 2]), np.zeros((1, 2, 2))])
    def test_edges_of_another_shape_refused_not_re_paired(self, edges):
        with pytest.raises(GraphError, match=re.escape(f"got {edges.shape}")):
            Graph(num_nodes=3, edges=edges, node_features=np.ones((3, 1)))

    @pytest.mark.parametrize("edges", [[], np.zeros(0), np.zeros((0, 2))])
    def test_any_empty_edge_array_is_edgeless(self, edges):
        assert Graph(num_nodes=2, edges=edges, node_features=np.ones((2, 1))).num_edges == 0

    def test_node_label_count_must_match_nodes(self):
        with pytest.raises(GraphError, match=r"^node_labels must have length 2, got 3$"):
            Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=np.ones((2, 1)),
                  node_labels=np.array([0, 1, 1]))

    def test_fractional_node_label_rejected(self):
        with pytest.raises(GraphError, match=r"node_labels must hold integers, got 0\.5 at index 1"):
            Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=np.ones((2, 1)),
                  node_labels=np.array([0.0, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_name_first_bad_row(self, bad):
        feats = np.ones((4, 2))
        feats[2, 1] = bad
        feats[3, 0] = bad
        with pytest.raises(GraphError, match="node_features row 2 "):
            Graph(num_nodes=4, edges=np.array([[0, 1]]), node_features=feats)
        ef = np.ones((2, 3))
        ef[1, 2] = bad
        with pytest.raises(GraphError, match="edge_features row 1 "):
            Graph(num_nodes=4, edges=np.array([[0, 1], [2, 3]]),
                  node_features=np.ones((4, 2)), edge_features=ef)

    def test_feature_arrays_are_copied_not_frozen_in_place(self):
        x, ef = np.ones((3, 2)), np.ones((2, 1))
        g = Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]), node_features=x,
                  edge_features=ef)
        assert x.flags.writeable and ef.flags.writeable
        x[0, 0] = ef[0, 0] = 5.0
        assert g.node_features[0, 0] == 1.0 and g.edge_features[0, 0] == 1.0
        assert not g.node_features.flags.writeable and not g.edge_features.flags.writeable


class TestCsrFromPairs:
    def test_matches_dense_nonzero(self):
        rng = np.random.default_rng(11)
        for t in (1, 2, 7, 30):
            dense = rng.random((t, t)) < 0.3
            rows, cols = np.nonzero(dense)   # row-major, columns ascending
            order = rng.permutation(rows.size)
            indptr, indices = csr_from_pairs(rows[order], cols[order], t)
            assert indptr.dtype == indices.dtype == np.int64
            assert np.array_equal(indptr, np.r_[0, np.cumsum(dense.sum(axis=1))])
            assert np.array_equal(indices, cols)


class TestAugment:
    @staticmethod
    def assert_matches_reference(g):
        ag, ref = augment(g), reference_augment(g)
        assert (ag.num_node_tokens, ag.num_edge_tokens) == \
            (ref.num_node_tokens, ref.num_edge_tokens)
        for name in ("indptr", "indices", "token_kind", "edge_token_origin"):
            assert_same_bytes(getattr(ag, name), getattr(ref, name))
        assert_columns_ascend(ag.indptr, ag.indices)

    def test_matches_loop_reference_on_shuffled_reversed_edges(self):
        rng = np.random.default_rng(17)
        graphs = [random_graph(rng, max_nodes=20) for _ in range(40)]
        graphs.append(generate_sbm((150, 150), 0.04, 0.004, seed=3))
        for g in graphs:
            self.assert_matches_reference(g)
            self.assert_matches_reference(shuffled_reversed_copy(g, rng))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_matches_loop_reference_without_edges(self, n):
        self.assert_matches_reference(
            Graph(num_nodes=n, edges=np.zeros((0, 2)), node_features=np.ones((n, 1))))

    def test_single_edge(self):
        ag = augment(single_edge_graph())
        assert ag.total_tokens == 3
        assert ag.num_directed_links == 4

    def test_triangle(self):
        ag = augment(triangle_graph())
        assert ag.total_tokens == 6
        assert ag.num_directed_links == 12

    def test_edgeless(self):
        g = Graph(num_nodes=5, edges=np.zeros((0, 2)), node_features=np.ones((5, 1)))
        ag = augment(g)
        assert ag.total_tokens == 5
        assert ag.num_directed_links == 0

    def test_counts_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.shape[0]) < 0.3
            g = Graph(num_nodes=n, edges=np.column_stack([iu[keep], ju[keep]]),
                      node_features=np.ones((n, 1)))
            ag = augment(g)
            assert ag.total_tokens == g.num_nodes + g.num_edges
            assert ag.num_directed_links == 4 * g.num_edges

    def test_bipartite_between_token_kinds(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.shape[0]) < 0.4
            g = Graph(num_nodes=n, edges=np.column_stack([iu[keep], ju[keep]]),
                      node_features=np.ones((n, 1)))
            ag = augment(g)
            for tok in range(ag.total_tokens):
                for nb in ag.neighbors(tok):
                    assert ag.token_kind[tok] != ag.token_kind[nb]

    def test_symmetric_adjacency(self):
        ag = augment(triangle_graph())
        pairs = {(int(i), int(j)) for i in range(ag.total_tokens)
                 for j in ag.neighbors(i)}
        assert pairs == {(j, i) for i, j in pairs}

    def test_edge_tokens_have_two_neighbors(self):
        ag = augment(triangle_graph())
        for tok in range(ag.total_tokens):
            if ag.token_kind[tok] == EDGE_TOKEN:
                assert len(ag.neighbors(tok)) == 2

    def test_recoverable(self):
        # (N, edges) is recoverable from token kinds and edge origins
        rng = np.random.default_rng(29)
        graphs = [triangle_graph()]
        for _ in range(15):
            n = int(rng.integers(2, 12))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.shape[0]) < 0.4
            graphs.append(Graph(num_nodes=n,
                                edges=np.column_stack([iu[keep], ju[keep]]),
                                node_features=np.ones((n, 1))))
        for g in graphs:
            ag = augment(g)
            assert ag.num_node_tokens == g.num_nodes
            assert int((ag.token_kind == NODE_TOKEN).sum()) == g.num_nodes
            assert np.array_equal(ag.edge_token_origin, g.edges)


class TestLoadGraph:
    def test_minimal(self):
        text = json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                           "node_features": [[1], [2]]})
        g = load_graph(text)
        assert g.num_nodes == 2 and g.num_edges == 1
        assert g.edge_features is None

    def test_self_loop_error(self):
        text = json.dumps({"num_nodes": 2, "edges": [[0, 0]],
                           "node_features": [[1], [2]]})
        with pytest.raises(GraphError, match="self-loop"):
            load_graph(text)

    def test_dimension_error(self):
        text = json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                           "node_features": [[1], [2], [3]]})
        with pytest.raises(GraphError, match="node_features"):
            load_graph(text)

    def test_parse_error_has_position(self):
        with pytest.raises(GraphError, match="line"):
            load_graph("{not json")

    def test_missing_field(self):
        with pytest.raises(GraphError, match="num_nodes"):
            load_graph(json.dumps({"edges": [], "node_features": []}))

    def test_directed_input_symmetrized_with_warning(self):
        text = json.dumps({"num_nodes": 2, "edges": [[0, 1], [1, 0]],
                           "node_features": [[1], [2]]})
        with pytest.warns(UserWarning, match="symmetrized"):
            g = load_graph(text)
        assert g.num_edges == 1

    def test_reversed_pair_with_edge_features_names_both_positions(self):
        obj = {"num_nodes": 3, "edges": [[0, 1], [1, 2], [1, 0]],
               "node_features": [[1], [2], [3]], "edge_features": [[1], [2], [3]]}
        with pytest.raises(GraphError, match=r"edge \(1, 0\) at position 2 reverses edge "
                                             r"\(0, 1\) at position 0"):
            load_graph(json.dumps(obj))

    def test_boolean_endpoint_refused_before_reversed_pairs_merge(self, recwarn):
        text = json.dumps({"num_nodes": 2, "edges": [[0, 1], [True, 0]],
                           "node_features": [[1], [2]]})
        with pytest.raises(GraphError, match="edges must hold integers, got a boolean"):
            load_graph(text)
        assert len(recwarn) == 0

    def test_numpy_boolean_endpoint_refused(self):
        # a numpy boolean in a list of endpoints was read as 0 or 1
        with pytest.raises(GraphError, match=r"^edges must hold integers, got a boolean at "
                                             r"index \[0, 1\]$"):
            Graph(num_nodes=2, edges=[[0, np.True_]], node_features=np.ones((2, 1)))

    @pytest.mark.parametrize("edges, got", [([[0, 1], [True, 0]], "a boolean at index [1, 0]"),
                                            ([[0, 1], [1, 2.5]], "2.5 at index [1, 1]")])
    def test_boolean_or_fraction_is_named_by_its_index(self, edges, got):
        with pytest.raises(GraphError, match=f"^edges must hold integers, "
                                             f"got {re.escape(got)}$"):
            Graph(num_nodes=3, edges=edges, node_features=np.ones((3, 1)))

    def test_parallel_edge_rejected(self):
        text = json.dumps({"num_nodes": 2, "edges": [[0, 1], [0, 1]],
                           "node_features": [[1], [2]]})
        with pytest.raises(GraphError, match="duplicate"):
            load_graph(text)

    def test_fractional_endpoint_rejected(self):
        text = json.dumps({"num_nodes": 2, "edges": [[0.7, 1]],
                           "node_features": [[1], [2]]})
        with pytest.raises(GraphError, match="edges must hold integers"):
            load_graph(text)

    @pytest.mark.parametrize("obj, field", [
        ({"num_nodes": True, "edges": [], "node_features": [[1]]}, "num_nodes"),
        ({"num_nodes": 3, "edges": [[True, 2]], "node_features": [[1], [1], [1]]}, "edges"),
        ({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [1]],
          "node_labels": [False, 1]}, "node_labels"),
    ])
    def test_boolean_integer_field_rejected(self, obj, field):
        with pytest.raises(GraphError, match=field):
            load_graph(json.dumps(obj))

    @pytest.mark.parametrize("obj, field", [
        ({"num_nodes": 2, "edges": [[[0], 1]], "node_features": [[1], [1]]}, "edges"),
        ({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [1]],
          "node_labels": [[0], 1]}, "node_labels")])
    def test_nested_integer_field_rejected_naming_it(self, obj, field):
        with pytest.raises(GraphError, match=f"{field} must hold integers, got nested"):
            load_graph(json.dumps(obj))

    @pytest.mark.parametrize("edges", [[[0, 1, 2]], [0, 1], [[0, 1], [1]], {"0": 1}])
    def test_edges_that_are_not_pairs_refused(self, edges):
        obj = {"num_nodes": 3, "edges": edges, "node_features": [[1], [1], [1]]}
        with pytest.raises(GraphError, match=re.escape(
                "field 'edges' must be an array of [u, v] pairs")):
            load_graph(json.dumps(obj))

    def test_array_refused_by_load_graph(self):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [2]]}
        with pytest.raises(GraphError, match=re.escape(
                "expected a single graph object, got an array (use load_dataset)")):
            load_graph(json.dumps([obj]))

    @pytest.mark.parametrize("text", ["3", '"g"', "null"])
    def test_top_level_value_neither_object_nor_array_refused(self, text):
        with pytest.raises(GraphError, match="^top-level JSON must be a graph object or an "
                                             "array of them$"):
            load_dataset(io.StringIO(text))

    @pytest.mark.parametrize("stream", [io.StringIO, lambda text: io.BytesIO(text.encode())])
    def test_open_stream_is_read(self, stream):
        text = json.dumps({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [2]]})
        g = load_graph(stream(text))
        assert g.num_nodes == 2 and g.edges.tolist() == [[0, 1]]

    def test_non_finite_feature_rejected(self):
        # Python's json reads the NaN and Infinity literals
        text = '{"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [NaN]]}'
        with pytest.raises(GraphError, match="node_features row 1"):
            load_graph(text)

    @pytest.mark.parametrize("label", ['"x"', "NaN", "Infinity", "true", "[1]"])
    def test_bad_graph_label_rejected(self, label):
        text = ('{"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [2]], '
                f'"graph_label": {label}}}')
        with pytest.raises(GraphError, match="graph_label"):
            load_graph(text)

    @pytest.mark.parametrize("feats", [[[1, 2], [3]], [[1], [2, "x"]], [[1], None]])
    def test_ragged_or_non_numeric_features_name_the_field(self, feats):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": feats}
        with pytest.raises(GraphError, match="node_features"):
            load_graph(json.dumps(obj))
        with pytest.raises(GraphError, match="node_features"):
            Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=feats)

    def test_ragged_edge_features_name_the_field(self):
        obj = {"num_nodes": 3, "edges": [[0, 1], [1, 2]], "node_features": [[1]] * 3,
               "edge_features": [[1, 2], [3]]}
        with pytest.raises(GraphError, match="edge_features"):
            load_graph(json.dumps(obj))

    def test_flat_and_empty_feature_lists_are_one_column(self):
        g = load_graph(json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                                   "node_features": [1.5, 2.5]}))
        assert g.node_features.tolist() == [[1.5], [2.5]]
        g = load_graph(json.dumps({"num_nodes": 0, "edges": [], "node_features": []}))
        assert g.num_nodes == 0 and g.node_features.shape == (0, 1)

    def test_path_objects_are_read_as_files(self, tmp_path):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [2]]}
        path = tmp_path / "[g].json"   # a str of this name would parse as JSON
        path.write_text(json.dumps(obj))
        assert load_graph(path).num_edges == 1
        assert [g.num_nodes for g in load_dataset(path)] == [2]

    def test_dataset_array(self):
        obj = {"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1], [2]],
               "graph_label": 1}
        graphs = load_dataset(json.dumps([obj, obj]))
        assert len(graphs) == 2
        assert graphs[0].graph_label == 1


class TestOneReader:
    BAD = '{"num_nodes": 2,\n  "edges": [[0, 1],, ]}'

    def test_invalid_json_in_a_file_starts_with_its_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(self.BAD)
        message = f"{path}: invalid JSON at line 2, column 20: Expecting value"
        for source in (path, str(path)):
            with pytest.raises(GraphError) as info:
                load_graph(source)
            assert str(info.value) == message

    def test_invalid_json_text_has_no_path(self):
        with pytest.raises(GraphError) as info:
            _read_json(self.BAD)
        assert str(info.value) == "invalid JSON at line 2, column 20: Expecting value"

    @pytest.mark.parametrize("obj, message", [
        ([], "thing must be a JSON object, got list"),
        (5, "thing must be a JSON object, got int"),
        ({"a": 1}, "thing is missing required field 'b'")])
    def test_json_object_check_names_what_is_wrong(self, obj, message):
        with pytest.raises(GraphError) as info:
            _json_object("thing", obj, ("a", "b"))
        assert str(info.value) == message

    def test_graph_object_check_names_the_field(self):
        with pytest.raises(GraphError) as info:
            load_graph(json.dumps({"num_nodes": 1, "node_features": [[1]]}))
        assert str(info.value) == "graph object is missing required field 'edges'"
        with pytest.raises(GraphError, match="graph 1: graph object must be a JSON object, "
                                             "got list"):
            load_dataset(json.dumps([{"num_nodes": 1, "edges": [], "node_features": [1]},
                                     []]))

    def test_field_errors_in_a_file_start_with_its_path(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"num_nodes": 1, "node_features": [[1]]}))
        message = f"{path}: graph object is missing required field 'edges'"
        for source in (path, str(path)):
            with pytest.raises(GraphError) as info:
                load_graph(source)
            assert str(info.value) == message
        path.write_text(json.dumps([{"num_nodes": 2, "edges": [[0, 1], [1, 1]],
                                     "node_features": [[1], [2]]}]))
        with pytest.raises(GraphError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: graph 0: edge 1 = (1, 1) is a self-loop"

    def test_config_from_obj_names_unknown_and_missing_fields(self):
        accepted = "accepted fields: learning_rate, epochs, weight_decay, batch_size, seed, " \
                   "early_stop_patience, train_frac, val_frac, test_frac"
        for obj, problem in [({"learning_rate": 0.1, "epochs": 1, "lr": 2},
                              "has unknown field 'lr'"),
                             ({"learning_rate": 0.1}, "is missing required field 'epochs'")]:
            with pytest.raises(GraphError) as info:
                _config_from_obj("section 'train'", obj, hopformer.TrainConfig)
            assert str(info.value) == f"section 'train' {problem}; {accepted}"
        cfg = _config_from_obj("t", {"learning_rate": 0.1, "epochs": 1}, hopformer.TrainConfig)
        assert cfg == hopformer.TrainConfig(learning_rate=0.1, epochs=1)

    @staticmethod
    def reads(path: Path) -> list[str]:
        """Calls in a module that parse JSON or open a file for reading."""
        found = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"from json import {a.name}" for a in node.names
                          if a.name in ("load", "loads")]
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("load", "loads") and isinstance(f, ast.Attribute) \
                    and getattr(f.value, "id", None) == "json":
                found.append(f"line {node.lineno}: json.{name}")
            elif name in ("read_text", "read_bytes"):
                found.append(f"line {node.lineno}: {name}")
            elif name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                writes = isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")
                if not writes:
                    found.append(f"line {node.lineno}: open for reading")
        return found

    def test_only_graphs_parses_json_or_opens_input_files(self):
        package = Path(hopformer.__file__).resolve().parent
        modules = sorted(package.glob("*.py"))
        assert package / "graphs.py" in modules and len(modules) > 5
        offenders = {p.name: self.reads(p) for p in modules if p.name != "graphs.py"}
        assert {name: r for name, r in offenders.items() if r} == {}
        # the scan does see the one reader's own parse and open
        assert len(self.reads(package / "graphs.py")) == 2


class TestSaveGraph:
    @pytest.mark.parametrize("label,kind", [(np.int64(1), int), (np.int32(-2), int),
                                            (np.float64(0.25), float),
                                            (np.float32(1.5), float)])
    def test_numpy_scalar_label_round_trips(self, tmp_path, label, kind):
        g = Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=np.ones((2, 1)),
                  graph_label=label)
        path = tmp_path / "g.json"
        save_graph(g, str(path))
        back = load_graph(str(path))
        assert type(back.graph_label) is kind
        assert back.graph_label == label
        assert np.array_equal(back.node_features, g.node_features)
        assert np.array_equal(back.edges, g.edges)

    def test_numpy_integer_node_count_is_stored_and_saved_as_int(self, tmp_path):
        g = Graph(num_nodes=np.int64(3), edges=np.array([[0, 1]]),
                  node_features=np.ones((3, 1)))
        assert type(g.num_nodes) is int
        plain = Graph(num_nodes=3, edges=np.array([[0, 1]]), node_features=np.ones((3, 1)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(g, str(a))
        save_graph(plain, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == json.dumps(graphs_module.graph_to_obj(plain), indent=2, sort_keys=True) + "\n"

    def test_edge_features_and_node_labels_round_trip(self, tmp_path):
        g = Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]), node_features=np.ones((3, 2)),
                  edge_features=np.array([[0.5], [-1.5]]), node_labels=np.array([2, 0, 1]))
        path = tmp_path / "g.json"
        save_graph(g, str(path))
        obj = json.loads(path.read_text())
        assert obj["edge_features"] == [[0.5], [-1.5]] and obj["node_labels"] == [2, 0, 1]
        back = load_graph(path)
        assert_same_bytes(back.edge_features, g.edge_features)
        assert_same_bytes(back.node_labels, g.node_labels)

    def test_unencodable_object_leaves_an_existing_file_untouched(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("previous\n")
        with pytest.raises(TypeError):
            graphs_module._write_json(str(path), {"a": 1, "b": {1, 2}})
        assert path.read_text() == "previous\n"

    def test_unserializable_graph_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs_module, "graph_to_obj", lambda g: {"x": object()})
        path = tmp_path / "g.json"
        with pytest.raises(TypeError):
            save_graph(single_edge_graph(), str(path))
        assert not path.exists()


class TestGenerators:
    def test_ws_no_rewire_is_ring_lattice(self):
        g = generate_watts_strogatz(20, 4, 0.0, seed=0)
        assert g.num_edges == 40
        diffs = {min(abs(u - v), 20 - abs(u - v)) for u, v in g.edges}
        assert diffs == {1, 2}

    def test_ws_lattice_clustering(self):
        g = generate_watts_strogatz(20, 4, 0.0, seed=0)
        assert brute_clustering(g) == pytest.approx(0.5, abs=1e-12)

    def test_ws_deterministic(self):
        a = generate_watts_strogatz(20, 4, 1.0, seed=7)
        b = generate_watts_strogatz(20, 4, 1.0, seed=7)
        assert np.array_equal(a.edges, b.edges)

    def test_ws_preserves_edge_count_under_rewiring(self):
        g = generate_watts_strogatz(30, 4, 0.7, seed=5)
        assert g.num_edges == 60

    def test_ws_invalid_params(self):
        with pytest.raises(GraphError):
            generate_watts_strogatz(10, 3, 0.1)
        with pytest.raises(GraphError):
            generate_watts_strogatz(4, 4, 0.1)
        with pytest.raises(GraphError):
            generate_watts_strogatz(10, 4, 1.5)

    def test_er_extremes(self):
        assert generate_erdos_renyi(5, 0.0, seed=1).num_edges == 0
        assert generate_erdos_renyi(5, 1.0, seed=1).num_edges == 10

    def test_er_deterministic(self):
        a = generate_erdos_renyi(100, 0.05, seed=3)
        b = generate_erdos_renyi(100, 0.05, seed=3)
        assert np.array_equal(a.edges, b.edges)

    def test_er_invalid_params(self):
        with pytest.raises(GraphError):
            generate_erdos_renyi(0, 0.5)
        with pytest.raises(GraphError):
            generate_erdos_renyi(5, -0.1)

    def test_generators_attach_unit_features(self):
        g = generate_erdos_renyi(6, 0.5, seed=0)
        assert np.array_equal(g.node_features, np.ones((6, 1)))

    @pytest.mark.parametrize("p_in, p_out, message", [
        (1.5, 0.1, "p_in must be in [0, 1], got 1.5"),
        (0.5, -0.1, "p_out must be in [0, 1], got -0.1"),
        (float("nan"), 0.1, "p_in must be in [0, 1], got nan")])
    def test_sbm_invalid_params(self, p_in, p_out, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            generate_sbm((5, 5), p_in, p_out)

    @pytest.mark.parametrize("make, args, integer_args", [
        (generate_watts_strogatz, (10.0, 4.0, 0.1), (10, 4, 0.1)),
        (generate_erdos_renyi, (10.0, 0.3), (10, 0.3)),
        (generate_sbm, ((5.0, 5), 0.5, 0.1), ((5, 5), 0.5, 0.1))])
    def test_integral_floats_give_the_integers_graph(self, make, args, integer_args):
        # watts_strogatz and erdos_renyi raised a bare TypeError on 10.0
        got, want = make(*args, seed=1), make(*integer_args, seed=1)
        assert type(got.num_nodes) is int and got.num_nodes == want.num_nodes == 10
        for name in ("edges", "node_features", "node_labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("make, error, message", [
        (lambda: generate_sbm((5.5, 5), 0.5, 0.1), GraphError,
         "sizes must hold integers, got 5.5 at index 0"),
        (lambda: generate_sbm((True, 5), 0.5, 0.1), GraphError,
         "sizes must hold integers, got a boolean at index 0"),
        (lambda: generate_sbm((-1, 5), 0.5, 0.1), GraphError,
         "sizes must be a flat sequence of non-negative block sizes, got [-1, 5]"),
        (lambda: generate_sbm(((3, 3), (3, 3)), 0.5, 0.1), GraphError,
         "sizes must be a flat sequence of non-negative block sizes, got [[3, 3], [3, 3]]"),
        (lambda: generate_sbm(10, 0.5, 0.1), GraphError,
         "sizes must be a flat sequence of non-negative block sizes, got 10"),
        (lambda: generate_watts_strogatz(True, 4, 0.1), ValueError,
         "n must be an integer, got True"),
        (lambda: generate_watts_strogatz(10, 4.5, 0.1), ValueError,
         "k must be an integer, got 4.5"),
        (lambda: generate_erdos_renyi(10.5, 0.3), ValueError,
         "n must be an integer, got 10.5")])
    def test_fraction_boolean_or_negative_size_refused(self, make, error, message):
        # (5.5, 5) built a 10-node graph, (-1, 5) raised numpy's repeat error,
        # nested or scalar sizes a bare TypeError, and n=True was reported as
        # "got n=True"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()

    def test_sbm_labels_and_determinism(self):
        a = generate_sbm((5, 5), 0.8, 0.1, seed=2)
        b = generate_sbm((5, 5), 0.8, 0.1, seed=2)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.node_labels, np.repeat([0, 1], 5))

    # sha256 of the little-endian int64 edges of seeded draws, as one array
    # of the n(n-1)/2 pair uniforms drew them; the 1500-node draws span more
    # than one chunk of BLOCK_CELLS pairs
    PINNED_DRAWS = [
        (lambda: generate_erdos_renyi(1, 0.5, seed=0), 0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (lambda: generate_erdos_renyi(2, 1.0, seed=1), 1,
         "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
        (lambda: generate_erdos_renyi(50, 0.1, seed=2), 99,
         "a502185e52dc2fa612fa9a3235ec62b4897f98a43d1f70d05e2856e4e7b8cecc"),
        (lambda: generate_erdos_renyi(300, 0.02, seed=5), 978,
         "6f144d8b021b35c57b5b71bf0df530a69f70fd64bd3a5602ec34df932e98b142"),
        (lambda: generate_erdos_renyi(1500, 0.001, seed=7), 1124,
         "fe378b8d4e8755788b9136dee394d58b636477008b64c98ac843658d57b392ec"),
        (lambda: generate_sbm((30, 30), 0.3, 0.02, seed=1), 289,
         "0d39bca5426b277f56d3d5b96a22b9515c7d865fd10ed2fc844ef8ede0f4a3ed"),
        (lambda: generate_sbm((0, 5, 3), 0.5, 0.1, seed=2), 8,
         "65b3c61547c305af02a9d453302471dec6540781be22a13c94fc195c83ff7126"),
        (lambda: generate_sbm((700, 800), 0.01, 0.0, seed=3), 5554,
         "826fe1f6115f7fe5169d039a6bdacdf39c2f7824738aeae89ac89038e742502a"),
        (lambda: generate_sbm((50, 30), 1.0, 0.0, seed=3), 1660,
         "bcf55bd0c6acff95355554272462778b6339131cb4f26bf586f5d321c9341c50"),
        (lambda: generate_sbm((0,), 0.5, 0.5, seed=4), 0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ]

    @pytest.mark.parametrize("case", range(len(PINNED_DRAWS)))
    def test_seeded_draws_keep_their_edges(self, case):
        make, num_edges, digest = self.PINNED_DRAWS[case]
        g = make()
        assert g.edges.dtype == np.int64
        assert (g.num_edges, _edges_sha256([g])) == (num_edges, digest)

    @pytest.mark.parametrize("workload, seed, num_edges, digest", [
        ("sparse_large", 3, 4192,
         "c6212fa931fe04673f31d1fa9df3be6fc05c4e26b219f7b1624646b0c0e291fd"),
        ("sparse_large", 4, 4189,
         "a2c5cdb0c1b623cc5461c348e7edbfc15d12159da3cd28d914b8f9350b0e1032"),
        ("er_graph", 3, 2337,
         "b88bc59797008f3303ad50c0fafe8cb1900eb3a8573a802668f9b306e5eee62a"),
        ("er_graph", 4, 2332,
         "26199d4e0c3896c3cc7aa7806fd9f4f3b59d148a4044adddfaf3eb2b94def9a0")],
        ids=["sparse_large-3", "sparse_large-4", "er_graph-3", "er_graph-4"])
    def test_benchmark_workload_draws_keep_their_edges(self, workload, seed, num_edges, digest):
        # the graphs bench/workloads.py draws for these seeds (sparse_large's
        # accepted SBM draw, er_graph's 128 graphs in order)
        wl = _bench_workloads()
        data, *_ = wl.make_inputs(hopformer, wl.WORKLOADS[workload], seed)
        graphs = data if isinstance(data, list) else [data]
        assert (sum(g.num_edges for g in graphs), _edges_sha256(graphs)) == (num_edges, digest)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_any_chunk_size_draws_the_same_edges(self, block, monkeypatch):
        # a chunk holds whole rows, at least one, whatever the bound
        want = [generate_erdos_renyi(40, 0.2, seed=1), generate_sbm((9, 0, 13), 0.6, 0.1, seed=2)]
        monkeypatch.setattr(masks_module, "BLOCK_CELLS", block)
        got = [generate_erdos_renyi(40, 0.2, seed=1), generate_sbm((9, 0, 13), 0.6, 0.1, seed=2)]
        for a, b in zip(got, want):
            assert_same_bytes(a.edges, b.edges)

    def test_a_large_draw_holds_one_chunk_of_pair_arrays(self):
        # 6000 nodes are ~18M pairs, 17 chunks; one array per pair would hold
        # ~18M float64 uniforms (144 MB) and more
        import tracemalloc
        n, chunk = 6000, 8 * masks_module.BLOCK_CELLS
        tracemalloc.start()
        try:
            g = generate_erdos_renyi(n, 0.0005, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * chunk + 256 * (n + g.num_edges)


class TestRelabel:
    def test_roundtrip(self):
        g = generate_erdos_renyi(8, 0.4, seed=1)
        perm = np.random.default_rng(0).permutation(8)
        g2 = relabel_nodes(g, perm)
        inv = np.argsort(perm)
        g3 = relabel_nodes(g2, inv)
        assert np.array_equal(np.sort(g3.edges, axis=1).tolist(),
                              np.sort(g.edges, axis=1).tolist())
        assert np.array_equal(g3.node_features, g.node_features)

    def test_labels_follow_their_nodes(self):
        g = generate_sbm((3, 4), 0.8, 0.2, seed=1)
        perm = np.random.default_rng(2).permutation(7)
        g2 = relabel_nodes(g, perm)
        assert_same_bytes(g2.node_labels[perm], g.node_labels)
        assert_same_bytes(g2.node_features[perm], g.node_features)

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [1, 2, 3], [0, 1, 2, 3],
                                      [[0, 1, 2]]])
    def test_bad_permutation_refused(self, perm):
        with pytest.raises(GraphError, match=r"^perm must be a permutation of 0\.\.N-1$"):
            relabel_nodes(generate_erdos_renyi(3, 0.5, seed=0), perm)

    @pytest.mark.parametrize("perm, message", [
        ([1.7, 0.2, 2.9], "perm must hold integers, got 1.7 at index 0"),
        ([True, False, 2], "perm must hold integers, got a boolean at index 0"),
        ([0, np.False_, 2], "perm must hold integers, got a boolean at index 1")])
    def test_fraction_or_boolean_perm_refused(self, perm, message):
        # both were read as a permutation: by int truncation, and True as 1
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            relabel_nodes(generate_erdos_renyi(3, 0.5, seed=0), perm)

    def test_integral_float_perm_is_that_permutation(self):
        g = generate_erdos_renyi(3, 1.0, seed=0)
        got, want = relabel_nodes(g, [2.0, 0.0, 1.0]), relabel_nodes(g, [2, 0, 1])
        assert_same_bytes(got.edges, want.edges)
