"""Benchmark of the cgain package: end-to-end metrics, or per-layer ones from a traced run.

    python3 perfbench/run.py --workload bc-train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
--workload is bc-train, spam-cli, letter-grid, or all (each in its own
process, one after the other). With --trace 0 the passes run untraced and
the end-to-end metrics are printed; with --trace 1 untraced and traced
passes alternate and the per-layer metrics are printed. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

BLAS is pinned to one thread in this process and in every process it
starts, before NumPy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("bc-train", "spam-cli", "letter-grid")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import cgain from this checkout's src/, or stop: nothing else may stand in."""
    if not (SRC / "cgain" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'cgain'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cgain
    if Path(cgain.__file__).resolve().parent != SRC / "cgain":
        sys.exit(f"perfbench: imported cgain from {cgain.__file__}, not from {SRC}")


def environment() -> dict:
    """Interpreter, NumPy, BLAS and machine, recorded with every result."""
    import ctypes
    import glob
    import multiprocessing
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "start_method": multiprocessing.get_start_method()}


def median_setup_s(args) -> tuple[float, list[str]]:
    """Process start to the end of set-up, median of SETUP_REPEATS fresh processes.

    The child prints the system-wide monotonic clock when its set-up is
    done, so neither its exit nor the wait for it is counted. Each set-up
    is scaled by the speed probes on both sides of it, as passes are.
    """
    import speed
    walls, problems, probes = [], [], [speed.probe()]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        probes.append(speed.probe())
        if done.returncode != 0:
            problems.append(f"set-up exited with code {done.returncode}")
            walls.append(float("nan"))
            continue
        walls.append(float(done.stdout.split()[-1]) - t0)
    scaled = [w * f for w, f in zip(walls, speed.factors(probes)) if w == w]
    return (statistics.median(scaled) if scaled else float("nan")), problems


def run_pass(workload, inputs, tracer=None, plan=None):
    from workloads import Pass
    if tracer is not None:
        tracer.install(plan)
    try:
        return workload.run_pass(inputs)
    except Exception as exc:   # one failed pass is reported, the run goes on
        return Pass(attempted=workload.operations, failed=workload.operations,
                    problems=[f"{type(exc).__name__}: {exc}"])
    finally:
        if tracer is not None:
            tracer.restore()


def check_repeats(passes, what: str) -> None:
    """Fail every pass whose rmse or trained results differ from the first one's."""
    first = passes[0]
    for p in passes[1:]:
        if p.digest != first.digest or repr(p.rmse) != repr(first.rmse):
            p.fail(f"{what}: rmse or trained results differ from the first pass")


def run_passes(workload, inputs, seconds: float, tracer, plan):
    """Passes until the next one would end past the deadline; at least one of each kind.

    With a tracer, untraced and traced passes alternate. A speed probe runs
    before the first pass and after each one, and every pass is scaled by
    the probes on both sides of it.
    """
    import speed
    untraced, traced = [], []
    kinds = [(untraced, None), (traced, tracer)] if tracer else [(untraced, None)]
    in_order, probes = [], [speed.probe()]
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        for out, pass_tracer in kinds:
            out.append(run_pass(workload, inputs, pass_tracer, plan))
            in_order.append(out[-1])
            probes.append(speed.probe())
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    for p, factor in zip(in_order, speed.factors(probes)):
        p.speed = factor
    return untraced, traced


def end_to_end(args, untraced, peak_rss_mb: float, failed: int, attempted: int):
    """The gated metrics, printed with their sample counts, and the reported ones."""
    import layers
    setup_s, problems = median_setup_s(args)
    run_s = [p.run_s * p.speed for p in untraced]
    iter_ms = [v * p.speed for p in untraced for v in p.iter_ms]
    rep_s = [v * p.speed for p in untraced for v in p.rep_s]
    rows = [v / p.speed for p in untraced for v in p.rows_per_s]
    raw = statistics.median(p.run_s for p in untraced)
    metrics = {"setup_s": setup_s, "run_s": statistics.median(run_s),
               "train_ms_per_iter": statistics.median(iter_ms),
               "rep_s": statistics.median(rep_s), "peak_rss_mb": peak_rss_mb}
    units = {m.name: m.unit for m in layers.END_TO_END + layers.REPORTED}
    notes = {"setup_s": f"median of {SETUP_REPEATS} set-ups",
             "run_s": f"median of {len(run_s)} passes; unscaled {raw!r} s",
             "train_ms_per_iter": f"median of {len(iter_ms)} per-iteration samples",
             "rep_s": f"median of {len(rep_s)} repetitions",
             "peak_rss_mb": "this process plus its largest pool worker"}
    for name, note in notes.items():
        print(f"metric {name} {metrics[name]!r} {units[name]} ({note})")
    if args.workload == "bc-train":
        print(f"metric train_ms_per_iter_p90 {statistics.quantiles(iter_ms, n=10)[-1]!r} "
              f"{units['train_ms_per_iter_p90']} "
              f"(90th percentile of {len(iter_ms)} intervals)")
    if rows:
        print(f"metric impute_rows_per_s {statistics.median(rows)!r} {units['impute_rows_per_s']} "
              f"(median of {len(rows)} impute calls)")
    print(f"metric rmse {untraced[0].rmse!r} {units['rmse']} (cgain, missing cells, normalized scale)")
    print(f"metric fail_ratio {failed / attempted!r} {units['fail_ratio']} "
          f"({failed} of {attempted} operations)")
    print(f"speed scale median {statistics.median(p.speed for p in untraced)!r} "
          f"(times above are at the probe's reference speed)")
    return metrics, units, problems


def per_layer(args, untraced, traced, spans):
    """The per-layer metrics from the traced passes' spans, printed with what they should move."""
    import layers
    overhead = (statistics.median(p.run_s * p.speed for p in traced)
                / statistics.median(p.run_s * p.speed for p in untraced) - 1.0)
    metrics = layers.per_layer_metrics(spans, overhead)
    for m in layers.PER_LAYER:
        print(f"metric {m.name} {metrics[m.name]!r} {m.unit} (should move {m.moves})")
    write_trace(args, spans)
    return metrics, {m.name: m.unit for m in layers.PER_LAYER}


def measure(args) -> int:
    import layers
    import spantrace
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_only:
            workload.setup(args.seed, work)
            print(f"setup_done {time.monotonic()!r}")
            return 0
        tracer = spantrace.Tracer() if args.trace else None
        plan = layers.plan(layers.Roles()) if args.trace else []
        originals = [getattr(owner, attr) for owner, attr, *_ in plan]
        if tracer:
            tracer.install(plan)
        try:
            inputs = workload.setup(args.seed, work)
        finally:
            if tracer:
                tracer.restore()
        untraced, traced = run_passes(workload, inputs, args.seconds, tracer, plan)
        # ru_maxrss is in KiB; children so far are the pool workers, the set-up runs come later
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0

        problems = []
        check_repeats(untraced, "untraced pass")
        if tracer:
            check_repeats([untraced[0]] + traced, "traced pass")
            if any(getattr(owner, attr) is not orig for (owner, attr, *_), orig in zip(plan, originals)):
                problems.append("a wrapped name was not restored after the traced run")
        passes = untraced + traced
        attempted = sum(p.attempted for p in passes)
        failed = sum(min(p.failed, p.attempted) for p in passes)

        print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"passes={len(untraced)} untraced, {len(traced)} traced")
        print(f"inputs {args.workload}: {workload.inputs}, seed {args.seed}")
        print("env " + json.dumps(environment()))
        if tracer:
            metrics, units = per_layer(args, untraced, traced, tracer.spans)
        else:
            metrics, units, setup_problems = end_to_end(args, untraced, peak_rss_mb, failed, attempted)
            problems += setup_problems
        for p in passes:
            problems += p.problems
        for problem in problems:
            print(f"check failed: {problem}")
        result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_trace(args, spans) -> None:
    """All spans of the traced run, one JSON array per line."""
    import gzip
    path = OUT / f"trace-{args.workload}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "fields": ["id", "parent", "name", "start_ns", "end_ns", "attrs"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"trace {path.relative_to(ROOT)}: {len(spans)} spans")


def run_all(args) -> int:
    """Each workload in a process of its own, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"check failed: {name} exited with code {done.returncode}")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
