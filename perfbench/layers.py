"""Which calls the traced run wraps, and the per-layer metrics made from them.

Layers are the package's modules: datasets, data, nn, imputer, baselines,
evaluate and cli. A call is wrapped in the namespace that makes it, for
example `cgain.imputer.dense_forward` for the network passes inside a
training step and `cgain.cli.load_csv` for the CSV read of `cgain corrupt`.

Every per-layer metric names the end-to-end metric it should move and on
which workload (`moves`). A workload that never calls a layer reports 0
for it: no calls, no time.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from cgain import baselines, cli, datasets, evaluate, imputer

from spantrace import ATTRS, END, ID, NAME, PARENT, START, self_times_ns


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""     # for a per-layer metric: which end-to-end metric, on which workload


# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = [
    Metric("setup_s", "s", "lower"),
    Metric("run_s", "s", "lower"),
    Metric("train_ms_per_iter", "ms", "lower"),
    Metric("rep_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
]

# Printed with the end-to-end metrics where they apply, but not gated: each
# is missing on some workload, is 0 when all is well, or spreads more from
# seed to seed than a gate allows.
REPORTED = [
    Metric("train_ms_per_iter_p90", "ms", "lower"),
    Metric("impute_rows_per_s", "rows/s", "higher"),
    Metric("rmse", "rmse", "lower"),
    Metric("fail_ratio", "ratio", "lower"),
]

_STEP = "train_ms_per_iter on bc-train most, on spam-cli little"
_NET = "train_ms_per_iter on bc-train and spam-cli"
_GRID = "rep_s and run_s on letter-grid"
_IO = "run_s and impute_rows_per_s on spam-cli"
_SETUP = "setup_s on every workload"

PER_LAYER = [
    Metric("imputer.train.self_ms_per_iter", "ms", "lower", _STEP),
    Metric("imputer.draws_ms_per_iter", "ms", "lower", _STEP),
    Metric("imputer.generator_forward.self_ms_per_iter", "ms", "lower", _STEP),
    Metric("imputer.discriminator_forward.self_ms_per_iter", "ms", "lower", _STEP),
    Metric("imputer.losses_ms_per_iter", "ms", "lower", _STEP),
    Metric("imputer.step_grads.self_ms_per_iter", "ms", "lower", _STEP),
    Metric("nn.dense_forward.gen.ms_per_iter", "ms", "lower", _NET),
    Metric("nn.dense_forward.disc.ms_per_iter", "ms", "lower", _NET),
    Metric("nn.dense_backward.disc_dstep.ms_per_iter", "ms", "lower", _NET),
    Metric("nn.dense_backward.disc_gstep.ms_per_iter", "ms", "lower", _NET),
    Metric("nn.dense_backward.gen.ms_per_iter", "ms", "lower", _NET),
    Metric("nn.optimizer_step.gen.ms_per_iter", "ms", "lower", _NET),
    Metric("nn.optimizer_step.disc.ms_per_iter", "ms", "lower", _NET),
    Metric("nn.dense_forward.calls_per_iter", "count", "lower", "train_ms_per_iter on bc-train"),
    Metric("nn.dense_backward.calls_per_iter", "count", "lower", "train_ms_per_iter on bc-train"),
    Metric("nn.optimizer_step.calls_per_iter", "count", "lower", "train_ms_per_iter on bc-train"),
    Metric("nn.matmul_flops_per_iter", "computed_flop", "lower", "train_ms_per_iter on spam-cli"),
    Metric("nn.matmul_bytes_per_iter", "computed_B", "lower", "train_ms_per_iter on spam-cli"),
    Metric("imputer.build_model_ms", "ms", "lower", _GRID),
    Metric("baselines.mean_fit_ms", "ms", "lower", _GRID),
    Metric("baselines.mice_lite_fit_ms", "ms", "lower", _GRID),
    Metric("evaluate.rmse_missing_ms", "ms", "lower", _GRID),
    Metric("evaluate.task_s.cgain", "s", "lower", _GRID),
    Metric("evaluate.task_s.gain", "s", "lower", _GRID),
    Metric("evaluate.task_s.mean", "s", "lower", _GRID),
    Metric("evaluate.task_s.mice_lite", "s", "lower", _GRID),
    Metric("evaluate.worker_busy_ratio", "ratio", "higher", "run_s and fail_ratio on letter-grid"),
    Metric("evaluate.straggler_s", "s", "lower", "run_s and fail_ratio on letter-grid"),
    Metric("evaluate.tasks", "count", "higher", "run_s and fail_ratio on letter-grid"),
    Metric("evaluate.failed_tasks", "count", "lower", "run_s and fail_ratio on letter-grid"),
    Metric("data.load_csv_ms", "ms", "lower", _IO),
    Metric("data.load_incomplete_csv_ms", "ms", "lower", _IO),
    Metric("data.corrupt_mcar_ms", "ms", "lower", _IO),
    Metric("data.denormalize_ms", "ms", "lower", _IO),
    Metric("data.write_mask_csv_ms", "ms", "lower", _IO),
    Metric("data.cells_parsed_per_s", "1/s", "higher", _IO),
    Metric("imputer.save_model_ms", "ms", "lower", _IO),
    Metric("imputer.load_model_ms", "ms", "lower", _IO),
    Metric("cli.corrupt.self_ms", "ms", "lower", _IO),
    Metric("cli.train.self_ms", "ms", "lower", _IO),
    Metric("cli.impute.self_ms", "ms", "lower", _IO),
    Metric("datasets.generate_ms", "ms", "lower", _SETUP),
    Metric("datasets.write_csv_ms", "ms", "lower", _SETUP),
    Metric("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing, per workload"),
]


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, key, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _dense_cost(net, rows: int) -> tuple[int, int]:
    """Flops and operand bytes of the forward matmuls, from their shapes.

    The backward pass computes a weight and an input gradient per layer,
    each with the forward product's shape, so it costs twice this.
    """
    widths = [net.w1.shape[0], net.w1.shape[1], net.w2.shape[1], net.w3.shape[1]]
    flops = nbytes = 0
    for k, n in zip(widths, widths[1:]):
        flops += 2 * rows * k * n
        nbytes += 8 * (rows * k + k * n + rows * n)
    return flops, nbytes


class Roles:
    """Tells generator from discriminator by the identity of their objects."""

    def __init__(self):
        self._role: dict[int, str] = {}

    def register(self, args, kwargs, model):
        for role, net in (("gen", model.generator), ("disc", model.discriminator)):
            self._role[id(net)] = role
            self._role[id(net.w1)] = role     # optimizer_step sees the parameter list
        return None

    def of(self, obj) -> str:
        return self._role.get(id(obj), "other")

    def dense_forward(self, args, kwargs, result):
        net, x = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "x")
        flops, nbytes = _dense_cost(net, len(x))
        return {"role": self.of(net), "flops": flops, "bytes": nbytes}

    def dense_backward(self, args, kwargs, result):
        net, grad = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 2, "grad_out")
        flops, nbytes = _dense_cost(net, len(grad))
        return {"role": self.of(net), "flops": 2 * flops, "bytes": 2 * nbytes}

    def optimizer_step(self, args, kwargs, result):
        return {"role": self.of(_arg(args, kwargs, 1, "params")[0])}


def _train_tag(args, kwargs, result):
    return {"iters": _arg(args, kwargs, 1, "config").iterations}


def _cli_tag(args, kwargs, result):
    return {"command": _arg(args, kwargs, 0, "argv")[0]}


def _cells_tag(args, kwargs, result):
    ds = getattr(result, "dataset", result)
    return {"cells": ds.n_rows * (ds.n_features + 1)}


def _grid_tag(args, kwargs, result):
    return {"jobs": _arg(args, kwargs, 7, "jobs", 1)}


def _task_tag(args, kwargs, result):
    return {"method": args[0][3], "failed": "error" in result[2]}


def plan(roles: Roles) -> list[tuple]:
    """(owner, attribute, span name, tag, ship) for every wrapped call."""
    entries = [
        (datasets, "make_class_conditional", "datasets.generate", None),
        (datasets, "spambase_like", "datasets.generate", None),
        (datasets, "letter_like", "datasets.generate", None),
        (datasets, "write_dataset_csv", "datasets.write_csv", None),
        (cli, "main", "cli.main", _cli_tag),
        (cli, "load_csv", "data.load_csv", _cells_tag),
        (cli, "load_incomplete_csv", "data.load_incomplete_csv", _cells_tag),
        (cli, "corrupt_mcar", "data.corrupt_mcar", None),
        (cli, "denormalize", "data.denormalize", None),
        (cli, "write_mask_csv", "data.write_mask_csv", None),
        (cli, "save_model", "imputer.save_model", None),
        (cli, "load_model", "imputer.load_model", roles.register),
        (evaluate, "run_benchmark", "evaluate.run_benchmark", _grid_tag),
        (evaluate, "corrupt_mcar", "data.corrupt_mcar", None),
        (evaluate, "rmse_missing", "evaluate.rmse_missing", None),
        (baselines.MeanImputer, "fit", "baselines.mean_fit", None),
        (baselines.MiceLiteImputer, "fit", "baselines.mice_lite_fit", None),
        (imputer, "build_model", "imputer.build_model", roles.register),
        (imputer, "make_optimizer", "nn.make_optimizer", None),
        (imputer, "uniform", "nn.uniform", None),
        (imputer, "sample_hint_b", "imputer.sample_hint_b", None),
        (imputer, "hint_from_b", "imputer.hint_from_b", None),
        (imputer, "discriminator_step_grads", "imputer.discriminator_step_grads", None),
        (imputer, "generator_step_grads", "imputer.generator_step_grads", None),
        (imputer, "generator_forward", "imputer.generator_forward", None),
        (imputer, "discriminator_forward", "imputer.discriminator_forward", None),
        (imputer, "generate", "imputer.generate", None),
        (imputer, "loss_discriminator", "imputer.loss_discriminator", None),
        (imputer, "generator_loss_parts", "imputer.generator_loss_parts", None),
        (imputer, "dense_forward", "nn.dense_forward", roles.dense_forward),
        (imputer, "dense_backward", "nn.dense_backward", roles.dense_backward),
        (imputer, "optimizer_step", "nn.optimizer_step", roles.optimizer_step),
    ]
    for owner in (imputer, cli, evaluate):
        entries.append((owner, "train", "imputer.train", _train_tag))
        entries.append((owner, "impute", "imputer.impute", None))
    out = [(owner, attr, name, tag, False) for owner, attr, name, tag in entries]
    # the pool task: in a worker it ships its spans back with its result
    out.append((evaluate, "_rep_task", "evaluate.task", _task_tag, True))
    return out


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _nearest(spans, by_id, name) -> dict[int, int]:
    """span id -> id of the nearest span named `name` at or above it (0: none)."""
    found: dict[int, int] = {0: 0}
    for s in spans:
        path, sid = [], s[ID]
        while sid not in found:
            span = by_id.get(sid)
            if span is None:
                found[sid] = 0
            elif span[NAME] == name:
                found[sid] = sid
            else:
                path.append(sid)
                sid = span[PARENT]
        for p in path:
            found[p] = found[sid]
    return found


def per_layer_metrics(spans, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric, computed from the spans of the traced run."""
    def dur(s):
        return s[END] - s[START]

    def attr(s, key, default=None):
        # a call that raised has only {"raised": True}
        return (s[ATTRS] or {}).get(key, default)

    by_id = {s[ID]: s for s in spans}
    selfs = self_times_ns(spans)
    train_of = _nearest(spans, by_id, "imputer.train")
    trains = [s for s in spans if s[NAME] == "imputer.train"]
    iters = sum(attr(s, "iters", 0) for s in trains)
    step = [s for s in spans if train_of.get(s[PARENT], 0)]     # strictly inside a training

    def parent_name(s):
        parent = by_id.get(s[PARENT])
        return parent[NAME] if parent else ""

    def per_iter_ms(keep, use_self=False) -> float:
        total = sum(selfs[s[ID]] if use_self else dur(s) for s in step if keep(s))
        return total / 1e6 / iters if iters else 0.0

    def calls_per_iter(name) -> float:
        return sum(1 for s in step if s[NAME] == name) / iters if iters else 0.0

    def named(name, **attrs):
        return [s for s in spans if s[NAME] == name and all(attr(s, k) == v for k, v in attrs.items())]

    def median_ms(name, **attrs) -> float:
        return _median(dur(s) / 1e6 for s in named(name, **attrs))

    def is_(name, role=None, parent=None):
        return lambda s: (s[NAME] == name and (role is None or attr(s, "role") == role)
                          and (parent is None or parent_name(s) == parent))

    out = {
        "imputer.train.self_ms_per_iter":
            sum(selfs[s[ID]] for s in trains) / 1e6 / iters if iters else 0.0,
        "imputer.draws_ms_per_iter": per_iter_ms(
            lambda s: s[NAME] in ("nn.uniform", "imputer.sample_hint_b", "imputer.hint_from_b")),
        "imputer.generator_forward.self_ms_per_iter": per_iter_ms(is_("imputer.generator_forward"), True),
        "imputer.discriminator_forward.self_ms_per_iter":
            per_iter_ms(is_("imputer.discriminator_forward"), True),
        "imputer.losses_ms_per_iter": per_iter_ms(
            lambda s: s[NAME] in ("imputer.loss_discriminator", "imputer.generator_loss_parts")),
        "imputer.step_grads.self_ms_per_iter": per_iter_ms(
            lambda s: s[NAME] in ("imputer.discriminator_step_grads", "imputer.generator_step_grads"),
            True),
        "nn.dense_forward.gen.ms_per_iter": per_iter_ms(is_("nn.dense_forward", "gen")),
        "nn.dense_forward.disc.ms_per_iter": per_iter_ms(is_("nn.dense_forward", "disc")),
        "nn.dense_backward.disc_dstep.ms_per_iter": per_iter_ms(
            is_("nn.dense_backward", "disc", "imputer.discriminator_step_grads")),
        "nn.dense_backward.disc_gstep.ms_per_iter": per_iter_ms(
            is_("nn.dense_backward", "disc", "imputer.generator_step_grads")),
        "nn.dense_backward.gen.ms_per_iter": per_iter_ms(is_("nn.dense_backward", "gen")),
        "nn.optimizer_step.gen.ms_per_iter": per_iter_ms(is_("nn.optimizer_step", "gen")),
        "nn.optimizer_step.disc.ms_per_iter": per_iter_ms(is_("nn.optimizer_step", "disc")),
        "nn.dense_forward.calls_per_iter": calls_per_iter("nn.dense_forward"),
        "nn.dense_backward.calls_per_iter": calls_per_iter("nn.dense_backward"),
        "nn.optimizer_step.calls_per_iter": calls_per_iter("nn.optimizer_step"),
    }
    dense = [s for s in step if s[NAME] in ("nn.dense_forward", "nn.dense_backward")]
    out["nn.matmul_flops_per_iter"] = sum(attr(s, "flops", 0) for s in dense) / iters if iters else 0.0
    out["nn.matmul_bytes_per_iter"] = sum(attr(s, "bytes", 0) for s in dense) / iters if iters else 0.0

    build: dict[int, int] = {}
    for s in spans:
        if s[NAME] in ("imputer.build_model", "nn.make_optimizer") and parent_name(s) == "imputer.train":
            build[s[PARENT]] = build.get(s[PARENT], 0) + dur(s)
    out["imputer.build_model_ms"] = _median(v / 1e6 for v in build.values())
    out["baselines.mean_fit_ms"] = median_ms("baselines.mean_fit")
    out["baselines.mice_lite_fit_ms"] = median_ms("baselines.mice_lite_fit")
    out["evaluate.rmse_missing_ms"] = median_ms("evaluate.rmse_missing")
    for method in evaluate.METHODS:
        out[f"evaluate.task_s.{method}"] = median_ms("evaluate.task", method=method) / 1e3

    busy, straggler, tasks, failed = [], [], [], []
    for grid in named("evaluate.run_benchmark"):
        mine = [s for s in spans if s[NAME] == "evaluate.task" and s[PARENT] == grid[ID]]
        work = sum(dur(s) for s in mine) / 1e9
        wall, jobs = dur(grid) / 1e9, attr(grid, "jobs", 1)
        busy.append(work / (jobs * wall))
        straggler.append(wall - work / jobs)
        tasks.append(len(mine))
        failed.append(sum(1 for s in mine if attr(s, "failed")))
    out["evaluate.worker_busy_ratio"] = _median(busy)
    out["evaluate.straggler_s"] = _median(straggler)
    out["evaluate.tasks"] = _median(tasks)
    out["evaluate.failed_tasks"] = _median(failed)

    for fn in ("load_csv", "load_incomplete_csv", "corrupt_mcar", "denormalize", "write_mask_csv"):
        out[f"data.{fn}_ms"] = median_ms(f"data.{fn}")
    loads = named("data.load_csv") + named("data.load_incomplete_csv")
    load_s = sum(dur(s) for s in loads) / 1e9
    out["data.cells_parsed_per_s"] = sum(attr(s, "cells", 0) for s in loads) / load_s if load_s else 0.0
    out["imputer.save_model_ms"] = median_ms("imputer.save_model")
    out["imputer.load_model_ms"] = median_ms("imputer.load_model")
    for command in ("corrupt", "train", "impute"):
        out[f"cli.{command}.self_ms"] = _median(
            selfs[s[ID]] / 1e6 for s in named("cli.main", command=command))
    out["datasets.generate_ms"] = _median(
        dur(s) / 1e6 for s in named("datasets.generate") if parent_name(s) != "datasets.generate")
    out["datasets.write_csv_ms"] = median_ms("datasets.write_csv")
    out["trace.overhead_ratio"] = overhead_ratio
    return {m.name: float(out[m.name]) for m in PER_LAYER}
