"""Tests of the benchmark's own code: span arithmetic, metric names, wrapping.

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spantrace  # noqa: E402
from cgain import datasets, evaluate, imputer, nn  # noqa: E402
from cgain.data import corrupt_mcar  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (1, 0, "root", 0, 100, None),
        (2, 1, "a", 10, 30, None),
        (3, 1, "b", 20, 50, None),      # overlaps a, as parallel workers do
        (4, 1, "c", 90, 120, None),     # runs past its parent's end
        (5, 2, "leaf", 12, 18, None),   # a grandchild is charged to a, not root
    ]
    selfs = spantrace.self_times_ns(spans)
    assert selfs == {1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}


def test_metric_names_follow_the_pattern_and_match_benchmark_json():
    ours = layers.END_TO_END + layers.REPORTED + layers.PER_LAYER
    names = [m.name for m in ours]
    assert len(names) == len(set(names))
    for m in ours:
        assert NAME.fullmatch(m.name), m.name
        assert UNIT.fullmatch(m.unit), m.unit
        assert m.better in ("higher", "lower")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", layers.END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = [(e["name"], e["unit"], e["better"]) for e in spec[key]]
        assert listed == [(m.name, m.unit, m.better) for m in table]
    assert "setup_s" in names


def test_traced_run_records_worker_spans_and_restores_every_name():
    table = datasets.make_class_conditional(60, 4, 2, (0.5, 0.5), seed=3)
    incomplete = corrupt_mcar(table, 0.2, nn.make_rng(4))
    cfg = imputer.TrainConfig(iterations=3, batch_size=16)
    plan = layers.plan(layers.Roles())
    originals = [getattr(owner, attr) for owner, attr, *_ in plan]
    tracer = spantrace.Tracer()
    tracer.install(plan)
    try:
        model, _ = imputer.train(incomplete, cfg)
        report = evaluate.run_benchmark(table, ["cgain", "mean"], [0.2], 2, root_seed=5,
                                        train_config=cfg, jobs=2)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is orig for (owner, attr, *_), orig in zip(plan, originals))
    assert not any(c.error for c in report.cells)

    metrics = layers.per_layer_metrics(tracer.spans, 0.0)
    assert [m.name for m in layers.PER_LAYER] == list(metrics)
    assert metrics["nn.dense_forward.calls_per_iter"] == 4
    assert metrics["nn.dense_backward.calls_per_iter"] == 3
    assert metrics["nn.optimizer_step.calls_per_iter"] == 2
    assert metrics["evaluate.tasks"] == 4

    grid = next(s for s in tracer.spans if s[spantrace.NAME] == "evaluate.run_benchmark")
    tasks = [s for s in tracer.spans if s[spantrace.NAME] == "evaluate.task"]
    assert len(tasks) == 4 and all(s[spantrace.PARENT] == grid[spantrace.ID] for s in tasks)
    assert all(s[spantrace.ID] >> 32 != os.getpid() for s in tasks)     # recorded in workers
    # spans from inside the workers' trainings arrived too: 2 cgain trainings + 1 here
    assert sum(1 for s in tracer.spans if s[spantrace.NAME] == "imputer.train") == 3
