"""Small end-to-end run: synthetic EEG -> features -> personalized model.

Generates a toy cohort, extracts windowed features, cross-validates a
personalized model for one subject, and compares the raw window
decisions against the two postprocessing stages.

Run: python3 demos/personalized_pipeline.py  (takes a few seconds)
"""

from hdseizure import (
    CohortSpec,
    EvalConfig,
    FeatureConfig,
    cv_personalized,
    extract_features,
    generate_synthetic_cohort,
)

spec = CohortSpec(
    num_subjects=1,
    records_per_subject=4,
    fs=64.0,
    num_channels=4,
    seizure_sec=16.0,
    non_seizure_sec=16.0,
    seed=5,
)
cohort = generate_synthetic_cohort(spec)
print(f"generated {len(cohort)} subject(s), {len(cohort[0])} records of "
      f"{spec.seizure_sec + spec.non_seizure_sec:.0f} s at {spec.fs:.0f} Hz")

fcfg = FeatureConfig(window_sec=4.0, step_sec=0.5)
records = [extract_features(rec, fcfg) for rec in cohort[0]]
fm = records[0]
print(f"features: {fm.values.shape[0]} windows x {fm.values.shape[1]} values "
      f"({len(fm.channels)} channels x {fm.features_per_channel} per channel)")

# small dimension keeps the demo fast; accuracy saturates long before 10000
cfg = EvalConfig(dim=1024, num_levels=12, seed=5)
report = cv_personalized(records, cfg)
print(f"\nleave-one-record-out for subject {report.subject_id!r}:")
for stage in ("raw", "bayes", "movavg"):
    f1e = report.metrics[f"episode.{stage}.f1"]
    f1d = report.metrics[f"duration.{stage}.f1"]
    tpr = report.metrics[f"duration.{stage}.sensitivity"]
    print(f"  {stage:7s} F1 episode {f1e:.3f}   F1 duration {f1d:.3f}   sensitivity {tpr:.3f}")

raw = report.predictions["raw"]
flips = int((raw != report.truth).sum())
print(f"\n{len(raw)} windows evaluated, {flips} raw disagreements with the labels")
