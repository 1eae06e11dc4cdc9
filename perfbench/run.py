#!/usr/bin/env python3
"""Benchmark of the hdseizure batch pipeline.

    python3 perfbench/run.py --workload features|crossval|merge|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from `src/`.

For one workload the run
  1. sets up its inputs from the seed at least SETUP_REPEATS times and for
     SETUP_MIN_S seconds (the median is setup_s),
  2. starts one fresh worker process that loads the inputs and runs one
     untimed warm-up pass (peak_rss_mb is the process's high-water mark
     after it), then repeats the timed pass for --seconds, timing a fixed
     reference kernel between passes,
  3. checks every stage's output digest against the first pass, against the
     recorded digests when the seed is the pinned one, and against the
     recorded digests of the tiny configuration on every run,
  4. prints each metric by name with unit and sample count, writes the
     result file and the span trace under .bench_work/results/, and prints
     one JSON line last.

With --trace 1 the worker also runs traced passes and reports per-layer
metrics, the tracing overhead against the untraced passes, and fails the
run if any count differs between two traced passes.

`--record-digests` rewrites perfbench/digests.json from the current code.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# One BLAS thread: the pipeline runs with jobs = 1 and the machine is shared.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0  # a quick set-up repeats until this much time has passed
RUN_LIMIT_S = 170  # the worker is stopped when a workload's run reaches this
RATES = ("items", "stage1", "stage2", "stage3")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"{rate}_per_ref": "1/ref" for rate in RATES},
}
#: wall-clock rates, printed and recorded next to the normalized ones
WALL_RATES = {f"{rate}_per_s": "1/s" for rate in RATES}
OVERHEAD_METRIC = "trace.overhead_pct"


def _import_package():
    if not (SRC / "hdseizure" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found at {SRC / 'hdseizure'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # constant-feature notices from fit_ranges repeat on every fold
    warnings.filterwarnings("ignore", category=UserWarning, module=r"hdseizure\.")


# ---------------------------------------------------------------- provenance

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(seed):
    import numpy
    import scipy

    import hdseizure

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hdseizure": hdseizure.__version__,
        "git_commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------- worker side

def reference_kernel():
    """A fixed mix of interpreter, cache-resident numpy and memory-bound
    numpy work, about 50 ms on one core. Timed next to every pass, it
    measures how fast the shared machine runs at that moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    small, acc = rng.random(10_000), np.zeros(10_000)
    big = rng.integers(0, 100, 4_000_000, dtype=np.int32)

    def run():
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i % 7
        for _ in range(1200):
            np.add(acc, 0.5 * small, out=acc)
            (acc > 0).astype(np.uint8)
        for _ in range(3):
            total += int((big * 2 > 50).sum())
        return time.perf_counter() - start

    return run


def _run_pass(wl, state, tracer, expected):
    """One pass over every stage. Returns its record; never raises."""
    from workloads import digest

    rec = {"seconds": {}, "items": {}, "digests": {}, "failed": [], "complete": False}
    out = {}
    gc.collect()
    start = time.perf_counter()
    with tracer.span("pass"):
        for stage in wl.stage_names:
            try:
                with tracer.span(stage, stage=stage):
                    t0 = time.perf_counter()
                    rec["items"][stage] = wl.run_stage(stage, state, out, tracer)
                    rec["seconds"][stage] = time.perf_counter() - t0
            except Exception:  # a failing stage is counted, not fatal
                traceback.print_exc()
                rec["failed"] = list(wl.stage_names[wl.stage_names.index(stage):])
                break
    rec["total"] = time.perf_counter() - start
    for stage in rec["seconds"]:
        rec["digests"][stage] = digest(wl.blobs(stage, state, out))
        if expected is not None and expected.get(stage) != rec["digests"][stage]:
            rec["failed"].append(stage)
    rec["complete"] = not rec["failed"]
    rec["quality"] = wl.quality(out)
    return rec


def _passes(wl, state, tracer, expected, budget, minimum, reference, layer_out=None):
    """Repeat the pass for `budget` seconds and at least `minimum` times.
    Each record's `ref` is the mean reference-kernel time around it."""
    records = []
    start = time.perf_counter()
    before = reference()
    while len(records) < minimum or time.perf_counter() - start < budget:
        rec = _run_pass(wl, state, tracer, expected)
        if layer_out is not None:
            layer_out.append(tracer.end_pass())
        after = reference()
        rec["ref"] = (before + after) / 2
        before = after
        if expected is None and rec["complete"]:
            expected = dict(rec["digests"])  # later passes must match the first
        records.append(rec)
    return records, expected


def _expected(recorded, size, name):
    """Recorded stage digests; missing ones make every stage fail."""
    if name not in recorded.get(size, {}):
        print(f"perfbench: no recorded digests for {size}/{name}", file=sys.stderr)
    return recorded.get(size, {}).get(name, {})


def _load_digests():
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def worker(args):
    from tracing import NullTracer, Tracer

    from workloads import PINNED_SEED, WORKLOADS

    recorded = _load_digests()
    wl = WORKLOADS[args.workload](args.size)
    state = wl.load(args.workdir)
    pinned = _expected(recorded, args.size, wl.name) if args.seed == PINNED_SEED else None
    # warm-up: lazy imports, filter designs and the page cache settle here
    warmup = _run_pass(wl, state, NullTracer(), pinned)
    # the pass's high-water mark, taken before the reference kernel allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = reference_kernel()
    reference()
    expected = pinned
    if expected is None and warmup["complete"]:
        expected = warmup["digests"]
    budget = args.seconds / 3 if args.trace else args.seconds
    untraced, expected = _passes(wl, state, NullTracer(), expected, budget,
                                 2 if args.trace else 3, reference)
    traced, layers = [], []
    if args.trace:
        tracer = Tracer(wl.name)
        tracer.install()
        try:
            traced, _ = _passes(wl, state, tracer, expected, args.seconds - budget, 2,
                                reference, layers)
        finally:
            tracer.uninstall()
        tracer.write_jsonl(args.spans)

    golden = None
    if args.size == "full":
        tiny = WORKLOADS[args.workload]("tiny")
        tiny_dir = os.path.join(args.workdir, "tiny")
        tiny.setup(tiny_dir, PINNED_SEED)
        golden = _run_pass(tiny, tiny.load(tiny_dir), NullTracer(),
                           _expected(recorded, "tiny", wl.name))

    result = {"warmup": warmup, "untraced": untraced, "traced": traced, "layers": layers,
              "golden": golden, "peak_rss_mb": peak_rss_mb}
    Path(args.result).write_text(json.dumps(result))


# ---------------------------------------------------------------- parent side

def _median(values):
    return statistics.median(values) if values else float("nan")


def _rates(wl, records):
    """Throughputs over the run's complete passes: total items ÷ total
    time, wall-clock (`*_per_s`) and with each pass's time counted in units
    of the reference-kernel time measured around it (`*_per_ref`)."""
    done = [r for r in records if r["complete"]]
    timed = {"items": (wl.headline_stages, lambda r: r["total"])}
    for rate, stage in zip(RATES[1:], wl.stage_names):
        timed[rate] = ((stage,), lambda r, stage=stage: r["seconds"][stage])
    rates = {}
    for rate, (stages, seconds) in timed.items():
        items = sum(r["items"][s] for r in done for s in stages)
        wall = sum(seconds(r) for r in done)
        ref_units = sum(seconds(r) / r["ref"] for r in done)
        rates[f"{rate}_per_s"] = items / wall if done else float("nan")
        rates[f"{rate}_per_ref"] = items / ref_units if done else float("nan")
    return rates


def _layer_summary(layers):
    from tracing import COUNT_METRICS, RATIO_METRICS, TIME_METRICS

    summary = {k: _median([p[k] for p in layers]) for k in TIME_METRICS}
    repeat_ok = True
    for k in COUNT_METRICS + RATIO_METRICS:
        values = {p[k] for p in layers}
        repeat_ok &= len(values) == 1
        summary[k] = layers[0][k] if layers else 0
    return summary, repeat_ok


def run_workload(name, args, prov):
    from workloads import WORKLOADS

    wl = WORKLOADS[name](args.size)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    inputs = workdir / "inputs"

    started = time.perf_counter()
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        wl.setup(str(inputs), args.seed)
        setup_times.append(time.perf_counter() - t0)

    result_path = workdir / "worker.json"
    spans_path = results / f"{tag}-spans.jsonl"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--workdir", str(inputs),
           "--result", str(result_path), "--spans", str(spans_path)]
    try:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=max(remaining, 1.0))
        data = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [data["warmup"], *data["untraced"], *data["traced"]]
    checks += [data["golden"]] if data["golden"] else []
    attempted = sum(len(wl.stage_names) for _ in checks)
    failed = sum(len(set(r["failed"])) for r in checks)
    layer_metrics, repeat_ok = ({}, True)
    if args.trace:
        layer_metrics, repeat_ok = _layer_summary(data["layers"])
        # pass times in reference-kernel units, so machine load cancels
        traced = _median([r["total"] / r["ref"] for r in data["traced"] if r["complete"]])
        untraced = _median([r["total"] / r["ref"] for r in data["untraced"] if r["complete"]])
        layer_metrics[OVERHEAD_METRIC] = 100.0 * (traced / untraced - 1.0)

    rates = _rates(wl, data["untraced"])
    passes = sum(r["complete"] for r in data["untraced"])
    samples = {"setup_s": len(setup_times), "peak_rss_mb": 1, **{k: passes for k in rates}}
    values = {"setup_s": _median(setup_times), "peak_rss_mb": data["peak_rss_mb"], **rates}
    units = {**END_TO_END, **WALL_RATES}
    e2e = {k: values[k] for k in END_TO_END}
    quality = data["untraced"][0]["quality"] if data["untraced"] else {}
    correct = failed == 0 and repeat_ok

    print(f"== {name}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"passes {len(data['untraced'])} untraced, {len(data['traced'])} traced")
    for metric, value in values.items():
        alias = wl.aliases.get(metric)
        label = f"{metric} ({alias})" if alias else metric
        print(f"  {label:<52} {value:14.4f} {units[metric]:<5} n={samples[metric]}")
    print(f"  {'error_rate':<52} {failed / attempted:14.4f} ratio n={attempted}")
    for key, value in quality.items():
        print(f"  {key:<52} {value:14.4f} ratio n=1")
    for key, value in layer_metrics.items():
        print(f"  {key:<52} {value:14.6g}")
    if not repeat_ok:
        print("  counts differ between traced passes", file=sys.stderr)

    record = {
        "workload": name, "size": args.size, "trace": args.trace, "seconds": args.seconds,
        "provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "counts_repeat": repeat_ok,
        "end_to_end": {k: {"value": v, "unit": units[k], "n": samples[k],
                           "alias": wl.aliases.get(k)} for k, v in values.items()},
        "quality": quality, "per_layer": layer_metrics,
        "setup_times": setup_times, "passes": data,
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    metrics = layer_metrics if args.trace else e2e
    return correct, attempted, failed, metrics


def _units(trace):
    from tracing import COUNT_METRICS, RATIO_METRICS, TIME_METRICS

    if not trace:
        return END_TO_END
    units = {k: "s" for k in TIME_METRICS}
    units.update({k: "count" for k in COUNT_METRICS})
    units.update({k: "ratio" for k in RATIO_METRICS})
    units[OVERHEAD_METRIC] = "%"
    return units


def record_digests():
    """Digest every stage of one pass at the pinned seed, for both sizes."""
    from tracing import NullTracer

    from workloads import PINNED_SEED, SIZES, WORKLOADS

    table = {}
    for size in SIZES:
        for name, cls in WORKLOADS.items():
            wl = cls(size)
            workdir = WORK / f"digests-{size}-{name}-{os.getpid()}"
            try:
                wl.setup(str(workdir), PINNED_SEED)
                state = wl.load(str(workdir))
                first = _run_pass(wl, state, NullTracer(), None)
                second = _run_pass(wl, state, NullTracer(), first["digests"])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if not (first["complete"] and second["complete"]):
                sys.exit(f"perfbench: {size}/{name} failed or is not deterministic")
            table.setdefault(size, {})[name] = first["digests"]
            print(f"{size}/{name}: {first['digests']}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("features", "crossval", "merge", "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_package()

    if args.worker:
        worker(args)
        return 0
    if args.record_digests:
        record_digests()
        return 0

    prov = provenance(args.seed)
    names = ("features", "crossval", "merge") if args.workload == "all" else (args.workload,)
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        c, a, f, m = run_workload(name, args, prov)
        ok, attempted, failed = ok and c, attempted + a, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        units = _units(args.trace)
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
