"""Merging personalized models and transferring them across cohorts.

Part 1 merges a synthetic prototype cohort with each method and tracks
how the generalized model stabilizes as subjects are added. Part 2
builds two signal cohorts that share background statistics but have
disjoint seizure rhythms, then shows why the NSgen-Spers hybrid
transfers where a plain generalized model struggles.

Run: python3 demos/merging_and_transfer.py  (takes ~10 s)
"""

import numpy as np

from hdseizure import (
    CohortSpec,
    EvalConfig,
    FeatureConfig,
    MergeConfig,
    evolution_curve,
    extract_features,
    generalize,
    generate_synthetic_cohort,
    plateau_onset,
    separability,
    summarize,
    synthetic_model_cohort,
    transfer_eval,
)

print("-- part 1: merge methods --")
# flip rates chosen so class prototypes overlap about as much as trained ones do
models = synthetic_model_cohort(num_subjects=60, dim=4096, s_flip=0.36,
                                ns_flip=0.32, class_overlap_flip=0.42, seed=3)
for method in ("avrg", "wsub", "waddsub"):
    cfg = MergeConfig(method=method, alpha_wrong=0.75)
    gen = generalize(models, cfg)
    print(f"  {method:8s} separability = {separability(gen, models):.4f}")

cfg = MergeConfig(method="waddsub", alpha_wrong=0.75)
_, mean = evolution_curve(models, cfg, repetitions=10, seed=0)
print(f"  waddsub evolution plateaus after {plateau_onset(mean)} of {len(models)} subjects")

print("\n-- part 2: cross-cohort transfer --")
base = dict(num_subjects=4, records_per_subject=3, fs=64.0, num_channels=4,
            seizure_sec=16.0, non_seizure_sec=16.0, seed=9)
fcfg = FeatureConfig(window_sec=4.0, step_sec=0.5)


def featurize(spec):
    return [[extract_features(rec, fcfg) for rec in recs]
            for recs in generate_synthetic_cohort(spec)]


# same seed -> identical backgrounds; only the seizure rhythms differ
source = featurize(CohortSpec(seizure_freq_range=(3.0, 4.5), **base))
target = featurize(CohortSpec(seizure_freq_range=(6.5, 8.0), **base))

ecfg = EvalConfig(dim=1024, num_levels=12, seed=9)
for mode in ("generalized", "NSgen-Spers"):
    mean = summarize(transfer_eval(source, target, mode=mode, cfg=ecfg))
    print(f"  {mode:12s} duration sensitivity {mean['duration.raw.sensitivity']:.3f}   "
          f"F1 {mean['duration.raw.f1']:.3f}")
print("  (the hybrid keeps the transferred NS prototype but learns S locally)")
