"""Benchmark workloads: input generation (set-up), the timed stages of one
pass, and the byte blobs each stage's output is digested from.

Every stage calls the package through module attributes looked up at call
time (`features.extract_features`, not a name imported once), so the
tracer's wrappers see the benchmark's own calls too.

Sizes are chosen so that one pass takes a few seconds on one core and a
run repeats it several times; see README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os

from hdseizure import dataio, encoding, evaluation, features, generalization, hybrid

# the package re-exports a `similarity` function under the submodule's name
similarity = importlib.import_module("hdseizure.similarity")

PINNED_SEED = 0

# Personalized-model cohort shaped like the merge acceptance test's cohort.
MODEL_COHORT_KW = dict(s_flip=0.36, ns_flip=0.32, class_overlap_flip=0.42)
MERGE_KW = dict(alpha_corr=1.0, alpha_wrong=0.75)
HYBRID_MODE = "NSgen-Spers"

SIZES = {
    "full": {
        # One subject, CHB-MIT-like 10:1 non-seizure to seizure time.
        "features": dict(records=3, fs=256.0, channels=18, non_seizure_sec=40.0,
                         seizure_sec=4.0, window_sec=4.0),
        # gain 1.6 keeps F1 below 1 so the online trainer mispredicts.
        "crossval": dict(subjects=6, records=3, fs=256.0, channels=4, non_seizure_sec=24.0,
                         seizure_sec=12.0, seizure_amp_gain=1.6, window_sec=4.0,
                         dim=encoding.DEFAULT_DIM, levels=encoding.DEFAULT_LEVELS),
        "merge": dict(subjects=120, dim=10000, repetitions=10),
    },
    # A few-second configuration for the self-test and the golden check.
    "tiny": {
        "features": dict(records=3, fs=64.0, channels=2, non_seizure_sec=8.0,
                         seizure_sec=8.0, window_sec=2.0),
        "crossval": dict(subjects=4, records=3, fs=64.0, channels=2, non_seizure_sec=8.0,
                         seizure_sec=8.0, seizure_amp_gain=1.6, window_sec=2.0,
                         dim=256, levels=8),
        "merge": dict(subjects=12, dim=256, repetitions=3),
    },
}

STEP_SEC = 0.5


def _feature_config(p):
    return features.FeatureConfig(window_sec=p["window_sec"], step_sec=STEP_SEC)


def _signal_cohort(p, seed, subjects=1):
    spec = dataio.CohortSpec(
        num_subjects=subjects,
        records_per_subject=p["records"],
        fs=p["fs"],
        num_channels=p["channels"],
        seizure_sec=p["seizure_sec"],
        non_seizure_sec=p["non_seizure_sec"],
        seizure_amp_gain=p.get("seizure_amp_gain", dataio.CohortSpec.seizure_amp_gain),
        seed=seed,
    )
    return dataio.generate_synthetic_cohort(spec)


def digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def _num(x) -> bytes:
    return repr(float(x)).encode()


def _vector_blobs(model):
    return [model.seizure.bits.tobytes(), model.non_seizure.bits.tobytes()]


class Workload:
    """One workload: `setup` writes inputs, `load` reads them untimed,
    `stage_names` run in order on a shared per-pass dict."""

    name = ""
    stage_names = ()
    #: stages whose items make up the workload's headline rate (items_per_s)
    headline_stages = ()
    #: what each wall-clock rate is called on this workload
    aliases = {}

    def __init__(self, size: str):
        self.p = SIZES[size][self.name]

    def setup(self, workdir, seed):
        raise NotImplementedError

    def load(self, workdir):
        raise NotImplementedError

    def run_stage(self, stage, state, out, tracer):
        """Run one stage, filling `out`; returns the items it processed."""
        raise NotImplementedError

    def blobs(self, stage, state, out):
        """Byte strings that digest the stage's deterministic output."""
        raise NotImplementedError

    def quality(self, out) -> dict:
        return {}


class FeaturesWorkload(Workload):
    """read_cohort -> extract_features per record -> write_features,
    the work of `hdseizure features`."""

    name = "features"
    stage_names = ("read", "extract", "write")
    headline_stages = ("extract",)
    aliases = {"items_per_s": "extract_windows_per_s", "stage1_per_s": "read_windows_per_s",
               "stage2_per_s": "extract_only_windows_per_s", "stage3_per_s": "write_windows_per_s"}

    def setup(self, workdir, seed):
        cohort = _signal_cohort(self.p, seed)
        dataio.write_cohort(cohort, os.path.join(workdir, "records"), writer=dataio.write_record)

    def load(self, workdir):
        return {"records": os.path.join(workdir, "records"),
                "out": os.path.join(workdir, "features_out"),
                "config": _feature_config(self.p)}

    def run_stage(self, stage, state, out, tracer):
        if stage == "read":
            out["cohort"] = dataio.read_cohort(state["records"])
            # the read stage's rate is counted in the windows the pass will produce
            wlen = round(self.p["window_sec"] * self.p["fs"])
            step = round(STEP_SEC * self.p["fs"])
            out["windows"] = sum(
                features.window_count(r.samples.shape[1], wlen, step)
                for subject in out["cohort"] for r in subject
            )
        elif stage == "extract":
            feats = []
            for subject in out["cohort"]:
                row = []
                for rec in subject:
                    with tracer.span("record", subject=rec.subject_id):
                        row.append(features.extract_features(rec, state["config"]))
                feats.append(row)
            out["features"] = feats
        elif stage == "write":
            dataio.write_cohort(out["features"], state["out"], writer=dataio.write_features)
        else:
            raise ValueError(stage)
        return out["windows"]

    def blobs(self, stage, state, out):
        blobs = []
        if stage == "read":
            for r in (r for subject in out["cohort"] for r in subject):
                blobs += [r.samples.tobytes(), r.labels.tobytes(), _num(r.fs),
                          ",".join(r.channels).encode()]
        elif stage == "extract":
            for fm in (fm for subject in out["features"] for fm in subject):
                blobs += [fm.values.tobytes(), fm.window_labels.tobytes(),
                          fm.window_start_sec.tobytes()]
        else:
            for name in sorted(os.listdir(state["out"])):
                with open(os.path.join(state["out"], name), "rb") as fh:
                    blobs.append(name.encode() + b"\0" + fh.read())
        return blobs


def _report_blobs(reports):
    blobs = []
    for r in reports:
        blobs.append(f"{r.subject_id}\0{r.model_kind}".encode())
        blobs.append(json.dumps({k: repr(v) for k, v in r.metrics.items()}, sort_keys=True).encode())
        blobs.append(r.p_seizure.tobytes())
    return blobs


class CrossvalWorkload(Workload):
    """Personalized leave-one-record-out, leave-one-subject-out and
    first-half -> second-half NSgen-Spers transfer on pre-extracted features."""

    name = "crossval"
    stage_names = ("loro", "loso", "transfer")
    headline_stages = stage_names
    aliases = {"items_per_s": "crossval_windows_per_s", "stage1_per_s": "loro_windows_per_s",
               "stage2_per_s": "loso_windows_per_s", "stage3_per_s": "transfer_windows_per_s"}

    def setup(self, workdir, seed):
        cfg = _feature_config(self.p)
        cohort = _signal_cohort(self.p, seed, subjects=self.p["subjects"])
        feats = [[features.extract_features(rec, cfg) for rec in recs] for recs in cohort]
        dataio.write_cohort(feats, os.path.join(workdir, "features"), writer=dataio.write_features)

    def load(self, workdir):
        cohort = dataio.read_feature_cohort(os.path.join(workdir, "features"))
        cfg = evaluation.EvalConfig(dim=self.p["dim"], num_levels=self.p["levels"], step_sec=STEP_SEC)
        half = len(cohort) // 2
        return {"cohort": cohort, "cfg": cfg, "source": cohort[:half], "target": cohort[half:]}

    @staticmethod
    def _windows(cohort):
        return sum(fm.num_windows for recs in cohort for fm in recs)

    def run_stage(self, stage, state, out, tracer):
        cohort, cfg = state["cohort"], state["cfg"]
        if stage == "loro":
            reports = []
            for recs in cohort:
                with tracer.span("subject", subject=recs[0].subject_id):
                    reports.append(evaluation.cv_personalized(recs, cfg))
            items = self._windows(cohort)
        elif stage == "loso":
            reports = evaluation.cv_generalized(cohort, cfg)
            items = self._windows(cohort)
        elif stage == "transfer":
            reports = evaluation.transfer_eval(state["source"], state["target"], HYBRID_MODE, cfg)
            items = self._windows(state["target"])
        else:
            raise ValueError(stage)
        out[stage] = reports
        return items

    def blobs(self, stage, state, out):
        return _report_blobs(out[stage])

    def quality(self, out):
        q = {}
        if "loro" in out and "loso" in out:
            for stage in ("loro", "loso"):
                mean = evaluation.summarize(out[stage])
                q[f"{stage}_f1_episode"] = mean["episode.raw.f1"]
                q[f"{stage}_f1_duration"] = mean["duration.raw.f1"]
        if "transfer" in out:
            q["transfer_sensitivity"] = evaluation.summarize(out["transfer"])["duration.raw.sensitivity"]
        return q


class MergeWorkload(Workload):
    """Load personalized model files, merge them with every method at one
    and two iterations, trace the evolution curve, then compare: pairwise
    similarities with a Wilcoxon test, the separability of every merged
    model, and one hybrid per subject."""

    name = "merge"
    stage_names = ("load", "merge", "compare")
    headline_stages = ("merge",)
    aliases = {"items_per_s": "merge_steps_per_s", "stage1_per_s": "load_models_per_s",
               "stage2_per_s": "merge_stage_steps_per_s", "stage3_per_s": "compare_subjects_per_s"}

    def setup(self, workdir, seed):
        models = dataio.synthetic_model_cohort(
            self.p["subjects"], dim=self.p["dim"], seed=seed, **MODEL_COHORT_KW
        )
        books = encoding.build_codebooks(1, 2, self.p["dim"], seed)
        root = os.path.join(workdir, "models")
        os.makedirs(root, exist_ok=True)
        for m in models:
            dataio.save_model(m, books, os.path.join(root, f"{m.subject_id}.hdcm"))

    def load(self, workdir):
        root = os.path.join(workdir, "models")
        return {"paths": [os.path.join(root, n) for n in sorted(os.listdir(root))]}

    def merge_steps(self):
        n = self.p["subjects"]
        per_method = sum(n * it for it in (1, 2))
        return len(generalization.MERGE_METHODS) * per_method + n * self.p["repetitions"]

    def run_stage(self, stage, state, out, tracer):
        if stage == "load":
            out["models"] = [dataio.load_model(path)[0] for path in state["paths"]]
            return len(out["models"])
        models = out["models"]
        if stage == "merge":
            merged = {}
            for method in generalization.MERGE_METHODS:
                for iterations in (1, 2):
                    cfg = generalization.MergeConfig(method=method, iterations=iterations, **MERGE_KW)
                    merged[method, iterations] = generalization.generalize(models, cfg)
            cfg = generalization.MergeConfig(method="waddsub", **MERGE_KW)
            _, out["curve"] = generalization.evolution_curve(
                models, cfg, repetitions=self.p["repetitions"]
            )
            out["merged"] = merged
            return self.merge_steps()
        if stage == "compare":
            mats = similarity.pairwise_matrices(models)
            off = mats.n - 1
            s_means = (mats.s_to_s.sum(axis=1) - mats.s_to_s.diagonal()) / off
            ns_means = (mats.ns_to_ns.sum(axis=1) - mats.ns_to_ns.diagonal()) / off
            out["wilcoxon"] = similarity.wilcoxon_signed_rank(s_means, ns_means)
            out["separability"] = {
                key: similarity.separability(m, models) for key, m in out["merged"].items()
            }
            gen = out["merged"]["waddsub", 1]
            out["hybrids"] = [hybrid.compose_hybrid(m, gen, HYBRID_MODE) for m in models]
            out["matrices"] = mats
            return mats.n
        raise ValueError(stage)

    def blobs(self, stage, state, out):
        if stage == "load":
            return [b for m in out["models"] for b in _vector_blobs(m)]
        if stage == "merge":
            blobs = [b for m in out["merged"].values() for b in _vector_blobs(m)]
            return blobs + [s.tobytes() for s in out["curve"].series()]
        mats = out["matrices"]
        blobs = [mats.s_to_s.tobytes(), mats.ns_to_ns.tobytes(), mats.s_to_ns.tobytes(),
                 *(_num(v) for v in out["wilcoxon"]),
                 *(_num(v) for v in out["separability"].values())]
        return blobs + [b for h in out["hybrids"] for b in _vector_blobs(h)]

    def quality(self, out):
        if "separability" not in out:
            return {}
        return {"waddsub_separability": out["separability"]["waddsub", 1]}


WORKLOADS = {w.name: w for w in (FeaturesWorkload, CrossvalWorkload, MergeWorkload)}
