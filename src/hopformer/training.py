"""Losses, Adam with decoupled weight decay, splits, and train/eval loops.

Node and graph tasks share one output function for training and evaluation:
given a list of splits, it returns one output Tensor per split, one row per
item (a node of the one graph, or a graph of a dataset).  A node task runs
one forward over its graph, whose last layer computes only the node-token
rows the splits score (all N node rows in a training forward), and takes
each split's rows from it; a graph task runs one forward per split, its
graphs' token rows stacked, and pools every token.  The model reads a
graph's structure only through its head masks, so a run augments a graph
only to build them (``masks=None``), once.  Each epoch steps over its
batches and scores validation and test.  A node task without dropout makes
one forward per epoch: the call that scores an epoch also returns the train
rows, held on the tape, that the next epoch's step takes its loss from, as
with dropout off training and scoring compute the same values.  Training records on a tape of
its own, never the caller's; every other scoring forward records nothing.
The checkpoint returned is the one at the best validation metric.  A
non-finite loss aborts with epoch/step context rather than being clamped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ops
from .autograd import Tensor, no_grad, scratch_tape
from .graphs import Graph, GraphError, _finite_value, _int_field, _int_value, augment
from .masks import build_head_masks
from .model import (Model, _check_graph, _check_nodes, copy_parameter_values, forward,
                    named_parameters, predict_graph, predict_node, readout,
                    set_parameter_values)


class TrainingAbort(RuntimeError):
    """Raised when training hits a non-finite loss."""

    def __init__(self, epoch: int, step: int, message: str):
        super().__init__(f"{message} (epoch {epoch}, step {step})")
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    weight_decay: float = 0.0
    batch_size: int = 32
    seed: int = 0
    early_stop_patience: int = 50
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0),
                          ("early_stop_patience", 0)):
            object.__setattr__(self, name, _int_value(name, getattr(self, name), low))
        for name in ("learning_rate", "weight_decay", "train_frac", "val_frac", "test_frac"):
            object.__setattr__(self, name, _finite_value(name, getattr(self, name)))
        # lr = 0 and epochs = 0 are legal no-op configurations; a negative
        # weight decay would grow every weight at each step
        for name in ("learning_rate", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("train_frac", "val_frac", "test_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {total}")


@dataclass
class RunHistory:
    train_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)
    test_metric: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    best_epoch: int | None = None

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_csv(self, fh) -> None:
        fh.write("epoch,train_loss,val_metric,test_metric,seconds\n")
        for e in range(len(self.train_loss)):
            fh.write(f"{e},{self.train_loss[e]!r},{self.val_metric[e]!r},"
                     f"{self.test_metric[e]!r},{self.seconds[e]!r}\n")


# ---------------------------------------------------------------------------
# Losses (fused tape primitives)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class over the rows.

    ``labels`` are read by the package's integer rule: a label with a
    fractional part, NaN, an infinity or a boolean raises ``GraphError``
    naming its index, rather than being truncated."""
    lv = logits.values
    n, c = lv.shape
    labels = _int_field("labels", labels).reshape(-1)
    if labels.shape[0] != n:
        raise ValueError(f"{labels.shape[0]} labels for {n} rows")
    if n == 0:
        raise ValueError("cross_entropy needs at least one row")
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range [0, {c})")
    rows = np.arange(n)
    shifted = lv - lv.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z

    def grad_fn(g):
        probs = np.exp(log_p)
        probs[rows, labels] -= 1.0
        logits._accum(probs * (g[0, 0] / n))

    return ops.primitive([[-log_p[rows, labels].mean()]], grad_fn)


def mae(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error; subgradient 0 at exact ties."""
    target = np.asarray(target, dtype=np.float64)
    if target.size != pred.values.size or target.size == 0:
        raise ValueError(f"mae needs one target per entry of pred {pred.values.shape}, "
                         f"got {target.size} targets")
    diff = pred.values - target.reshape(pred.values.shape)
    return ops.primitive([[np.abs(diff).mean()]],
                         lambda g: pred._accum(np.sign(diff) * (g[0, 0] / diff.size)))


# ---------------------------------------------------------------------------
# Optimizer

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def init_adam_state(params: dict[str, Tensor]) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(p.values) for k, p in params.items()},
        "v": {k: np.zeros_like(p.values) for k, p in params.items()},
    }


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: dict,
              lr: float, weight_decay: float = 0.0) -> None:
    """One Adam step with decoupled weight decay; missing grads mean zero."""
    b1, b2 = ADAM_BETAS
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.values)
        m = state["m"][name] = b1 * state["m"][name] + (1.0 - b1) * g
        v = state["v"][name] = b2 * state["v"][name] + (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.values = p.values - lr * weight_decay * p.values - lr * update


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: p.grad for k, p in params.items() if p.grad is not None}


# ---------------------------------------------------------------------------
# Splits and evaluation


def split_indices(n: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded random split of range(n) into train/val/test index arrays.
    ``n`` follows the package's integer rule (``10.0`` is 10) and may not be
    negative."""
    n = _int_value("n", n, 0)
    perm = np.random.default_rng([cfg.seed, 17]).permutation(n)
    n_train = int(round(cfg.train_frac * n))
    n_val = int(round(cfg.val_frac * n))
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def evaluate(model: Model, dataset, masks, split) -> float:
    """Accuracy (argmax, ties to the lowest class) or MAE over the split.

    The split is a set: a repeated index is refused, and indices are sorted
    internally so shuffled splits produce bit-identical aggregates.  The
    inputs are checked as by ``train``, before any forward; a graph is
    augmented only with ``masks=None``, for the split's graphs' masks.
    """
    masks, targets, splits = _prepare(model, dataset, masks, {"evaluated": split})
    return _scores(model, dataset, masks, targets, splits)[0]


def _graphs(model: Model, dataset) -> list:
    """A run's graphs: a node task's one Graph, or a graph task's list of
    them; a dataset of the other kind is refused."""
    node_task = model.cfg.task == "node_classification"
    if not isinstance(dataset, Graph if node_task else (list, tuple)):
        raise ValueError("node classification trains on a single Graph" if node_task
                         else "graph-level tasks train on a list of Graphs")
    return [dataset] if node_task else dataset


def _prepare(model: Model, dataset, masks, splits: dict) -> tuple:
    """Check a run's inputs (see ``train``) and return the head masks of
    the graphs the run reads, a dict keyed by graph index: ``{0: ...}`` for
    a node task, the splits' union for a graph task, each graph augmented
    to build its masks from ``model.cfg.head_hops`` only when ``masks`` is
    None; every item's target; and the values of ``splits`` (a name ->
    indices dict), each sorted."""
    cfg = model.cfg
    if cfg.task == "graph_regression" and cfg.output_dim != 1:
        raise ValueError(f"graph_regression trains on one graph_label per graph, so "
                         f"output_dim must be 1, got {cfg.output_dim}")
    node_task = cfg.task == "node_classification"
    graphs = _graphs(model, dataset)
    mask_lists = [masks] if node_task else masks
    if masks is not None and not isinstance(mask_lists, (list, tuple)):
        raise ValueError(f"graph-level tasks take a list of head-mask lists, "
                         f"got {type(masks).__name__}")
    if masks is not None and len(mask_lists) != len(graphs):
        raise ValueError(f"{len(mask_lists)} head-mask lists for {len(graphs)} graphs")
    for i, g in enumerate(graphs):
        name = "the graph" if node_task else f"graph {i}"
        # ``...``: no masks given, none to check; a given None entry is refused
        _check_graph(model, g, name, ... if masks is None else mask_lists[i])
        _check_nodes(cfg, g, name)
        if not node_task and g.graph_label is None:
            raise GraphError(f"graph {i} has no graph_label; graph-level tasks need one")
    if node_task and dataset.node_labels is None:
        raise ValueError("node classification requires node_labels")
    targets = dataset.node_labels if node_task else np.asarray(
        [g.graph_label for g in dataset], dtype=np.float64)
    if cfg.task != "graph_regression":
        bad = np.flatnonzero((targets % 1 != 0) | (targets < 0) | (targets >= cfg.num_classes))
        if bad.size:
            item = f"node {bad[0]} has label" if node_task else f"graph {bad[0]} has graph_label"
            raise GraphError(f"{item} {targets[bad[0]]:g}, not a class in [0, {cfg.num_classes})")
        targets = targets.astype(np.int64, copy=False)
    n = len(targets)
    sorted_splits = []
    for split, idx in splits.items():
        idx = np.sort(_int_field(f"the {split} split", idx).reshape(-1))
        if idx.size == 0:
            raise ValueError(f"the {split} split of {n} "
                             f"{'nodes' if node_task else 'graphs'} is empty")
        if idx[0] < 0 or idx[-1] >= n:
            raise ValueError(f"the {split} split holds index "
                             f"{idx[0] if idx[0] < 0 else idx[-1]}, outside [0, {n})")
        repeated = idx[1:][idx[1:] == idx[:-1]]
        if repeated.size:
            raise ValueError(f"the {split} split holds index {repeated[0]} more than once")
        sorted_splits.append(idx)
    # a graph task reads the splits' union in ascending order, found by
    # counting indices (np.unique's first call imports numpy.ma: 12-22 ms of
    # a CLI run on 2 vCPUs)
    read = [0] if node_task else np.flatnonzero(
        np.bincount(np.concatenate(sorted_splits))).tolist()
    masks = {i: build_head_masks(augment(graphs[i]), list(cfg.head_hops))
             if masks is None else mask_lists[i] for i in read}
    return masks, targets, sorted_splits


def _outputs(model: Model, dataset, masks, splits, *, training: bool = False,
             seed: int | None = None) -> list[Tensor]:
    """One output Tensor per split, one row per item in the split's order.

    A node task runs one forward over its graph 0, whose last layer computes
    only the node rows of the splits' union, sorted, and takes each split's
    logit rows from it, found by ``searchsorted``.  A training forward keeps
    all N node rows: its seeded dropout draws are made for leading rows, and
    its weight gradients then sum over the rows they always summed over, so
    a step's results are bit for bit those of a forward on every node.
    ``train``'s held forward scores train, val and test, whose union is all
    N rows.  ``evaluate`` computes its split's rows alone.  A graph
    task runs one forward per split over the split's graphs stacked, one
    readout row per graph and one graph head matmul, graph ``i`` drawing its
    dropout from ``seed + i`` (``masks`` is indexed by graph).  Every
    forward gets None in its unread augmented-graph slot.  A graph's outputs depend in their last bits on the other graphs of its
    forward (BLAS may round a row of a matrix product differently when the
    product has more rows), so each split gets its own: ``evaluate`` on a
    split then reproduces the score ``train`` recorded for it exactly.
    """
    if model.cfg.task == "node_classification":
        # the splits' sorted union, found by counting as in _prepare
        nodes = np.arange(dataset.num_nodes) if training else np.flatnonzero(
            np.bincount(np.concatenate(splits)))
        h = forward(model, dataset, None, masks[0], training=training, rng_seed=seed,
                    rows=nodes)
        logits = predict_node(model, h, nodes.size)
        return [ops.take_rows(logits, np.searchsorted(nodes, items)) for items in splits]
    outs = []
    for items in splits:
        items = [int(i) for i in items]
        batch = [dataset[i] for i in items]
        h = forward(model, batch, None, [masks[i] for i in items], training=training,
                    rng_seed=seed, graph_ids=items)
        sizes = np.array([g.num_nodes + g.num_edges for g in batch], dtype=np.int64)
        outs.append(predict_graph(model, readout(h, model.cfg.readout, sizes)))
    return outs


def _loss(task: str, out: Tensor, targets: np.ndarray) -> Tensor:
    return mae(out, targets) if task == "graph_regression" else cross_entropy(out, targets)


def _score(task: str, out: np.ndarray, targets: np.ndarray) -> float:
    if task == "graph_regression":
        return float(np.abs(out[:, 0] - targets).mean())
    return float((out.argmax(axis=1) == targets).mean())


def _scores(model: Model, dataset, masks, targets, splits) -> list[float]:
    """Score each split, as ``_prepare`` returns it, from :func:`_outputs`
    run under ``no_grad``."""
    with no_grad():
        outs = _outputs(model, dataset, masks, splits)
    return [_score(model.cfg.task, o.values, targets[s]) for o, s in zip(outs, splits)]


# ---------------------------------------------------------------------------
# Training loops


def train(model: Model, dataset, masks, cfg: TrainConfig) -> tuple[Model, RunHistory]:
    """Train in place and return (model at best validation epoch, history).

    Node tasks: ``dataset`` is one labelled Graph and ``masks`` its head
    masks.  Graph tasks: ``dataset`` is a list of Graphs and ``masks`` a
    parallel list of per-graph head-mask lists.  With ``masks=None`` each
    graph's head masks are built from ``model.cfg.head_hops``.  Refused before
    any forward, naming the item: a graph_regression model of more than one
    output; a dataset of the wrong kind; a graph without nodes or without the
    task's label; a class label that is not an integer in [0, num_classes);
    feature dims other than the model's ``d_v``/``d_e``; head masks that do
    not fit their graph; an empty split, or one that repeats an index.

    A step runs its own training forward unless a held forward has already
    given it its rows.  A node task with ``dropout`` and
    ``attention_dropout`` both 0 holds one: after each Adam step, one forward
    scores val and test and, kept on train's tape, gives the next step its
    train rows, loss and backward, so E epochs run E + 1 forwards.  With any
    dropout, and for graph tasks, the scoring forwards run under ``no_grad``
    after the steps.  Every step records on a tape ``train`` owns and drops
    on return, early stop or ``TrainingAbort``; the caller's tape is left as
    it was.
    """
    task = model.cfg.task
    node_task = task == "node_classification"
    idx_train, idx_val, idx_test = split_indices(
        dataset.num_nodes if isinstance(dataset, Graph) else len(_graphs(model, dataset)), cfg)
    masks, targets, (_, *scored) = _prepare(model, dataset, masks, {
        "train": idx_train, "val": idx_val, "test": idx_test})
    params = named_parameters(model)
    state = init_adam_state(params)
    history = RunHistory()
    best_val = best_loss = None
    best_params = copy_parameter_values(model)
    since_best = 0
    # without dropout, training=True changes nothing in the forward: the one
    # that scores an epoch is bit for bit the next epoch's training forward
    held = node_task and model.cfg.dropout == model.cfg.attention_dropout == 0
    out = None   # a held forward's train rows, the next step's outputs
    with scratch_tape():   # train's own tape, dropped however the loop ends
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            seed = cfg.seed * 100003 + epoch
            if node_task:
                batches = [idx_train]
            else:
                order = np.random.default_rng([cfg.seed, 29, epoch]).permutation(idx_train)
                batches = [order[lo:lo + cfg.batch_size]
                           for lo in range(0, order.size, cfg.batch_size)]
            batch_losses = []
            for step, batch in enumerate(batches):
                zero_grads(params)
                # the loss takes idx_train's rows in its seeded order: sorted,
                # they move the mean's last bits
                if out is None:
                    out = _outputs(model, dataset, masks, [batch], training=True,
                                   seed=seed)[0]
                loss = _loss(task, out, targets[batch])
                out = None
                lv = float(loss.values[0, 0])
                if not np.isfinite(lv):
                    raise TrainingAbort(epoch, step, "non-finite training loss")
                batch_losses.append(lv)
                ops.backward(loss)
                adam_step(params, collect_grads(params), state, cfg.learning_rate,
                          weight_decay=cfg.weight_decay)
            # size-weighted mean over the epoch's batches; one batch's loss is
            # kept as it is, not multiplied and divided by its size
            loss_value = batch_losses[0] if len(batches) == 1 else sum(
                lv * b.size for lv, b in zip(batch_losses, batches)) / idx_train.size

            if held:
                out, *outs = _outputs(model, dataset, masks, [idx_train, *scored])
                val, test = (_score(task, o.values, targets[s]) for o, s in zip(outs, scored))
            else:
                val, test = _scores(model, dataset, masks, targets, scored)
            history.train_loss.append(loss_value)
            history.val_metric.append(val)
            history.test_metric.append(test)
            history.seconds.append(time.perf_counter() - t0)

            # checkpoint at best val; ties go to the lower training loss so a
            # saturated val metric still tracks the converged model
            improved = best_val is None or (
                val < best_val if task == "graph_regression" else val > best_val)
            if improved or (val == best_val and loss_value < best_loss):
                best_val, best_loss, history.best_epoch = val, loss_value, epoch
                best_params = copy_parameter_values(model)
            if improved:
                since_best = 0
            else:
                since_best += 1
                if since_best > cfg.early_stop_patience:
                    break

    set_parameter_values(model, best_params)
    return model, history


def prepare_graph(g: Graph, hops) -> tuple:
    """Convenience: augment a graph and build its head masks once."""
    ag = augment(g)
    return ag, build_head_masks(ag, list(hops))
