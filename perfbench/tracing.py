"""Outside-in layer tracing for the benchmark.

The tracer replaces package functions with timing wrappers in the
namespaces that call them (for example `hdseizure.evaluation.encode_windows`
is what the cross-validation code calls, so that is the name wrapped),
records nested spans in memory, and restores every original on
`uninstall`. Nothing under `src/` knows about it.

Coarse calls (one per record, fold or merge) become spans with a parent.
Hot kernels (`Accumulator.add`, Hamming distances, ...) run thousands of
times per pass, so each is folded into one aggregate row per parent span:
call count and total seconds.

A target whose module or attribute no longer exists is skipped, so its
metrics read zero calls instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

# metric names reported for every traced pass, in output order
TIME_METRICS = (
    "features.extract_s", "features.bandpass_s", "features.kernel_s",
    "dataio.read_record_s", "dataio.write_features_s", "dataio.load_model_s",
    "encoding.encode_s", "encoding.fit_ranges_s", "encoding.codebooks_s",
    "training.train_s",
    "hypervector.accumulate_s", "hypervector.normalize_s",
    "hypervector.hamming_s", "hypervector.pack_rows_s",
    "generalization.generalize_s", "generalization.evolution_s",
    "similarity.pairwise_s", "similarity.wilcoxon_s", "similarity.separability_s",
    "hybrid.compose_s",
    "evaluation.postprocess_s", "evaluation.metrics_s", "evaluation.self_s",
)
COUNT_METRICS = (
    "features.windows", "features.samples",
    "dataio.bytes_read", "dataio.bytes_written",
    "encoding.encoded_rows", "encoding.codebook_builds",
    "training.samples", "training.models", "training.mispredictions",
    "hypervector.normalize_calls",
    "generalization.merge_steps",
)
RATIO_METRICS = ("encoding.reencode_ratio",)


def _arg(bound, name):
    return bound.arguments[name]


def _extract_counts(tr, bound, result):
    tr.counts["features.windows"] += result.num_windows
    tr.counts["features.samples"] += _arg(bound, "record").samples.size


def _file_read(tr, bound, result):
    tr.counts["dataio.bytes_read"] += os.path.getsize(_arg(bound, "path"))


def _file_written(tr, bound, result):
    tr.counts["dataio.bytes_written"] += os.path.getsize(_arg(bound, "path"))


def _encode_counts(tr, bound, result):
    values = _arg(bound, "values")
    tr.counts["encoding.encoded_rows"] += len(values)
    tr.rows.update(row.tobytes() for row in values)


def _codebook_counts(tr, bound, result):
    tr.counts["encoding.codebook_builds"] += 1


def _train_counts(tr, bound, result):
    tr.counts["training.samples"] += len(_arg(bound, "samples"))
    tr.counts["training.models"] += 1


def _generalize_steps(tr, bound, result):
    cfg = _arg(bound, "cfg")
    tr.counts["generalization.merge_steps"] += len(_arg(bound, "cohort")) * cfg.iterations


def _evolution_steps(tr, bound, result):
    tr.counts["generalization.merge_steps"] += len(_arg(bound, "cohort")) * _arg(bound, "repetitions")


# (module, attribute path, metric that receives the time or None, hot, count hook)
TARGETS = (
    ("hdseizure.features", "extract_features", "features.extract_s", False, _extract_counts),
    ("hdseizure.features", "bandpass_filter", "features.bandpass_s", False, None),
    ("hdseizure.dataio", "read_record", "dataio.read_record_s", False, _file_read),
    ("hdseizure.dataio", "write_features", "dataio.write_features_s", False, _file_written),
    ("hdseizure.dataio", "load_model", "dataio.load_model_s", False, _file_read),
    ("hdseizure.evaluation", "encode_windows", "encoding.encode_s", False, _encode_counts),
    ("hdseizure.evaluation", "fit_ranges", "encoding.fit_ranges_s", False, None),
    ("hdseizure.evaluation", "build_codebooks", "encoding.codebooks_s", False, _codebook_counts),
    ("hdseizure.evaluation", "train", "training.train_s", False, _train_counts),
    ("hdseizure.training", "train_online", None, False, None),
    ("hdseizure.evaluation", "cv_personalized", None, False, None),
    ("hdseizure.evaluation", "cv_generalized", None, False, None),
    ("hdseizure.evaluation", "transfer_eval", None, False, None),
    ("hdseizure.evaluation", "generalize", "generalization.generalize_s", False, _generalize_steps),
    ("hdseizure.generalization", "generalize", "generalization.generalize_s", False, _generalize_steps),
    ("hdseizure.generalization", "evolution_curve", "generalization.evolution_s", False, _evolution_steps),
    ("hdseizure.similarity", "pairwise_matrices", "similarity.pairwise_s", False, None),
    ("hdseizure.similarity", "wilcoxon_signed_rank", "similarity.wilcoxon_s", False, None),
    ("hdseizure.similarity", "separability", "similarity.separability_s", False, None),
    ("hdseizure.evaluation", "compose_hybrid", "hybrid.compose_s", False, None),
    ("hdseizure.hybrid", "compose_hybrid", "hybrid.compose_s", False, None),
    ("hdseizure.evaluation", "bayes_postprocess", "evaluation.postprocess_s", True, None),
    ("hdseizure.evaluation", "moving_average_postprocess", "evaluation.postprocess_s", True, None),
    ("hdseizure.evaluation", "duration_metrics", "evaluation.metrics_s", True, None),
    ("hdseizure.evaluation", "episode_metrics", "evaluation.metrics_s", True, None),
    ("hdseizure.hypervector", "Accumulator.add", "hypervector.accumulate_s", True, None),
    ("hdseizure.hypervector", "Accumulator.normalize", "hypervector.normalize_s", True, None),
    ("hdseizure.training", "hamming_distance", "hypervector.hamming_s", True, None),
    ("hdseizure.generalization", "hamming_distance", "hypervector.hamming_s", True, None),
    ("hdseizure.evaluation", "hamming_to_rows", "hypervector.hamming_s", True, None),
    ("hdseizure.generalization", "hamming_to_rows", "hypervector.hamming_s", True, None),
    ("hdseizure.similarity", "hamming_to_rows", "hypervector.hamming_s", True, None),
    ("hdseizure.evaluation", "pack_rows", "hypervector.pack_rows_s", True, None),
    ("hdseizure.generalization", "pack_rows", "hypervector.pack_rows_s", True, None),
    ("hdseizure.similarity", "pack_rows", "hypervector.pack_rows_s", True, None),
)

#: spans whose uncovered time is reported as evaluation.self_s
SELF_TIME_SPANS = {"cv_personalized", "cv_generalized", "transfer_eval"}


def _resolve(module_name, path):
    """(owner, attribute name, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans and per-pass layer metrics while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.stage = None
        self.subject = None
        self.spans = []  # finished span and aggregate records
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.rows = set()
        self.installed = []  # (owner, attr, original)
        self._origin = time.perf_counter()
        self._stack = []  # open span ids
        self._child = defaultdict(float)  # span id -> seconds covered by children
        self._agg = {}  # (parent, name) -> [calls, seconds, layer, stage, subject]
        self._next_id = 0
        self._self_time = 0.0

    # ---- install / uninstall ----

    def install(self):
        for module_name, path, metric, hot, hook in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            layer = metric.split(".")[0] if metric else module_name.rsplit(".", 1)[-1]
            wrapper = self._wrap(original, path, layer, metric, hot, hook)
            setattr(owner, attr, wrapper)
            self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # ---- spans ----

    @contextlib.contextmanager
    def span(self, name, stage=None, subject=None):
        """A span around benchmark code; sets the stage/subject context."""
        saved = (self.stage, self.subject)
        if stage is not None:
            self.stage = stage
        if subject is not None:
            self.subject = subject
        sid, start = self._open()
        try:
            yield
        finally:
            self._close(sid, start, name, "bench", None)
            self.stage, self.subject = saved

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid, start, name, layer, windows):
        end = time.perf_counter()
        self._stack.pop()
        seconds = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            self._child[parent] += seconds
        if name in SELF_TIME_SPANS:
            self._self_time += seconds - self._child[sid]
        self._child.pop(sid, None)
        self.spans.append({
            "kind": "span", "id": sid, "parent": parent, "name": name, "layer": layer,
            "start": start - self._origin, "end": end - self._origin,
            "seconds": seconds, "workload": self.workload, "stage": self.stage,
            "subject": self.subject, "fold": None, "windows": windows,
        })
        return seconds

    def _wrap(self, fn, name, layer, metric, hot, hook):
        tracer = self
        signature = inspect.signature(fn)
        wants_stats = name == "train_online" and "stats" in signature.parameters

        if hot:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._hot(name, layer, metric, time.perf_counter() - t0)
            return hot_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = None
            if wants_stats and "stats" not in kwargs:
                stats = kwargs["stats"] = {}
            sid, start = tracer._open()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                windows = getattr(result, "num_windows", None)
                seconds = tracer._close(sid, start, name, layer, windows)
                if metric is not None:
                    tracer.times[metric] += seconds
            if stats is not None:
                tracer.counts["training.mispredictions"] += stats.get("mispredictions", 0)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound, result)
            return result
        return wrapper

    def _hot(self, name, layer, metric, seconds):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            self._child[parent] += seconds
        entry = self._agg.get((parent, name))
        if entry is None:
            entry = self._agg[(parent, name)] = [0, 0.0, layer, self.stage, self.subject]
        entry[0] += 1
        entry[1] += seconds
        self.times[metric] += seconds

    # ---- per-pass results ----

    def end_pass(self) -> dict:
        """Layer metrics of the pass just run; resets the per-pass state."""
        calls = defaultdict(int)
        for (parent, name), (n, seconds, layer, stage, subject) in self._agg.items():
            calls[name] += n
            self.spans.append({
                "kind": "aggregate", "parent": parent, "name": name, "layer": layer, "calls": n,
                "seconds": seconds, "workload": self.workload, "stage": stage,
                "subject": subject,
            })
        self._agg.clear()
        times = dict(self.times)
        times["features.kernel_s"] = times.get("features.extract_s", 0.0) - times.get(
            "features.bandpass_s", 0.0
        )
        times["evaluation.self_s"] = self._self_time
        counts = dict(self.counts)
        counts["hypervector.normalize_calls"] = calls["Accumulator.normalize"]
        out = {k: times.get(k, 0.0) for k in TIME_METRICS}
        out.update({k: counts.get(k, 0) for k in COUNT_METRICS})
        distinct = len(self.rows)
        out["encoding.reencode_ratio"] = counts.get("encoding.encoded_rows", 0) / distinct if distinct else 0.0
        self.times.clear()
        self.counts.clear()
        self.rows.clear()
        self._self_time = 0.0
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class NullTracer:
    """Stand-in used for untraced passes: spans cost nothing."""

    def span(self, name, stage=None, subject=None):
        return contextlib.nullcontext()
