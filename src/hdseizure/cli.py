"""Command-line surface: one subcommand per pipeline stage.

Settings resolve in three layers: built-in defaults, then a `key = value`
config file (--config), then command-line flags. Every settings key has a
flag of the same name with underscores as dashes.

Exit codes: 0 success, 1 INTERNAL, 2 usage, 3 CONFIG, 4 PARSE, 5 DATA.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .dataio import (
    CohortSpec,
    generate_synthetic_cohort,
    load_model,
    read_cohort,
    read_feature_cohort,
    save_model,
    write_cohort,
    write_evolution_csv,
    write_features,
    write_matrices_csv,
    write_record,
    write_report,
    write_reports_csv,
    write_sweep_csv,
)
from .errors import (
    CorruptModelError,
    DegenerateCohortError,
    DegenerateInputError,
    IncompatibleModelsError,
    InsufficientDataError,
    MissingClassError,
    ParseError,
)
from .evaluation import (
    TRANSFER_MODES,
    EvalConfig,
    _train_cohort,
    cv_generalized,
    cv_personalized,
    per_subject_scores,
    summarize,
    transfer_eval,
)
from .features import AZC_BAND, FeatureConfig, extract_features
from .generalization import MergeConfig, evolution_curve, generalize, plateau_onset
from .hybrid import HYBRID_MODES, compose_hybrid, sweep_selection
from .similarity import pairwise_matrices, wilcoxon_signed_rank
from .training import TrainConfig

EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_PARSE = 4
EXIT_DATA = 5

#: key -> (type, default); every key doubles as a --flag
SETTINGS = {
    "dim": (int, 10000),
    "levels": (int, 20),
    "seed": (int, 0),
    "fs": (float, 256.0),
    "window_sec": (float, 4.0),
    "step_sec": (float, 0.5),
    "train_mode": (str, "online"),
    "alpha": (float, 1.0),
    "epochs": (int, 1),
    "method": (str, "waddsub"),
    "alpha_corr": (float, 1.0),
    "alpha_wrong": (float, 1.0),
    "iterations": (int, 1),
    "wrong_weight_convention": (str, "distance"),
    "bayes_window_sec": (float, 5.0),
    "bayes_threshold": (float, 1.5),
    "movavg_window_sec": (float, 5.0),
    "subjects": (int, 20),
    "records_per_subject": (int, 3),
    "channels": (int, 18),
    "seizure_sec": (float, 60.0),
    "non_seizure_sec": (float, 60.0),
    "shared_background_weight": (float, 0.7),
    "seizure_freq_min": (float, 3.0),
    "seizure_freq_max": (float, 8.0),
    "seizure_amp_gain": (float, 3.0),
    "repetitions": (int, 10),
    "sweep_thresholds": (str, "0.0:1.0:21"),
}


def read_config(path) -> dict:
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        typ = SETTINGS[key][0]
        try:
            out[key] = typ(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} expects {typ.__name__}, got {value!r}"
            ) from None
    return out


def resolve_settings(args) -> dict:
    settings = {k: default for k, (_, default) in SETTINGS.items()}
    if getattr(args, "config", None):
        settings.update(read_config(args.config))
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def eval_config(s: dict) -> EvalConfig:
    return EvalConfig(
        dim=s["dim"],
        num_levels=s["levels"],
        seed=s["seed"],
        train=TrainConfig(mode=s["train_mode"], alpha=s["alpha"],
                          epochs=s["epochs"], seed=s["seed"]),
        merge=MergeConfig(method=s["method"], alpha_corr=s["alpha_corr"],
                          alpha_wrong=s["alpha_wrong"], iterations=s["iterations"],
                          wrong_weight_convention=s["wrong_weight_convention"]),
        step_sec=s["step_sec"],
        bayes_window_sec=s["bayes_window_sec"],
        bayes_threshold=s["bayes_threshold"],
        movavg_window_sec=s["movavg_window_sec"],
    )


def _parse_thresholds(text: str) -> np.ndarray:
    """Either 'start:stop:count' or a comma-separated list; at least one,
    and every one finite."""
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            # bounds near or at infinity give inf or NaN steps, rejected below
            with np.errstate(invalid="ignore", over="ignore"):
                values = np.linspace(float(start), float(stop), int(count))
        else:
            values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        values = np.array([])
    if not values.size or not np.isfinite(values).all():
        raise ValueError(
            "sweep_thresholds expects finite 'start:stop:count' with count >= 1 or a "
            f"comma list, got {text!r}"
        )
    return values


def _codebook_ref(books) -> str:
    h = hashlib.sha1()
    h.update(f"{books.seed}:{books.dim}:{books.num_levels}:{books.num_features}".encode())
    if books.is_fitted:
        h.update(books.feature_min.tobytes())
        h.update(books.feature_max.tobytes())
    return h.hexdigest()[:12]


def _same_encoder(a, b) -> bool:
    """Same key and feature ranges (None when unfitted)."""
    return a.key == b.key and all(np.array_equal(getattr(a, k), getattr(b, k))
                                  for k in ("feature_min", "feature_max"))


def _load_model_dir(dirpath):
    paths = sorted(
        os.path.join(dirpath, n) for n in os.listdir(dirpath) if n.endswith(".hdcm")
    )
    if not paths:
        raise InsufficientDataError(f"no .hdcm model files in {dirpath}")
    models, books = [], None
    for path in paths:
        model, these = load_model(path)
        if books is None:
            books = these
        elif not _same_encoder(books, these):
            raise IncompatibleModelsError(f"{path} was built with a different encoder")
        models.append(model)
    return models, books


def _read_features_at_step(dirpath, step_sec: float):
    """read_feature_cohort, rejecting a record whose windows do not start
    step_sec apart, as postprocessing counts its windows in steps. The
    tolerance is 1 %, or the half sample by which extract_features may
    round the step at the lowest rate it accepts."""
    if not step_sec > 0:
        raise ValueError(f"step_sec must be positive, got {step_sec}")
    tolerance = max(0.01 * step_sec, 0.5 / (2 * AZC_BAND[1]))
    cohort = read_feature_cohort(dirpath)
    for fm in (fm for records in cohort for fm in records):
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(fm.window_start_sec)
            off = np.flatnonzero(~(np.abs(steps - step_sec) <= tolerance))
        if off.size:
            raise IncompatibleModelsError(
                f"{os.path.join(dirpath, f'{fm.subject_id}__{fm.record_id}.csv')}: windows "
                f"start {steps[off[0]]:.6g} s apart, but step_sec is {step_sec:g} s")
    return cohort


def _write_report_set(reports, kind: str, outdir):
    os.makedirs(outdir, exist_ok=True)
    for report in reports:
        write_report(report, os.path.join(outdir, f"{kind}_{report.subject_id}.json"))
    write_reports_csv(reports, os.path.join(outdir, f"{kind}.csv"))


def _f1_line(reports) -> str:
    s = summarize(reports)
    return f"F1E={s['episode.raw.f1']:.3f} F1D={s['duration.raw.f1']:.3f}"


# ---- subcommands ----

def cmd_synth(args, s):
    spec = CohortSpec(
        num_subjects=s["subjects"],
        records_per_subject=s["records_per_subject"],
        fs=s["fs"],
        num_channels=s["channels"],
        seizure_sec=s["seizure_sec"],
        non_seizure_sec=s["non_seizure_sec"],
        shared_background_weight=s["shared_background_weight"],
        seizure_freq_range=(s["seizure_freq_min"], s["seizure_freq_max"]),
        seizure_amp_gain=s["seizure_amp_gain"],
        seed=s["seed"],
    )
    cohort = generate_synthetic_cohort(spec)
    write_cohort(cohort, args.out, writer=write_record)
    total = sum(len(records) for records in cohort)
    print(f"synth: {len(cohort)} subjects, {total} records -> {args.out}")
    return 0


def cmd_features(args, s):
    cohort = read_cohort(args.cohort)
    fcfg = FeatureConfig(window_sec=s["window_sec"], step_sec=s["step_sec"])
    feats = [[extract_features(rec, fcfg) for rec in records] for records in cohort]
    write_cohort(feats, args.out, writer=write_features)
    nwin = sum(fm.num_windows for recs in feats for fm in recs)
    print(f"features: {nwin} windows x {feats[0][0].num_features} features -> {args.out}")
    return 0


def cmd_train(args, s):
    cohort = read_feature_cohort(args.features)
    books, models = _train_cohort(cohort, eval_config(s))
    ref = _codebook_ref(books)
    source = os.path.basename(os.path.normpath(args.features))
    os.makedirs(args.out, exist_ok=True)
    for model in models:
        model = replace(model, codebook_ref=ref, source_cohort=source)
        save_model(model, books, os.path.join(args.out, f"{model.subject_id}.hdcm"))
    print(f"train: {len(models)} personalized models -> {args.out}")
    return 0


def cmd_generalize(args, s):
    models, books = _load_model_dir(args.models)
    cfg = eval_config(s)
    merged = generalize(models, cfg.merge, tie_break_seed=s["seed"])
    save_model(merged, books, args.out)
    print(f"generalize: merged {len(models)} models ({cfg.merge.method}) -> {args.out}")
    return 0


def cmd_evolution(args, s):
    models, _ = _load_model_dir(args.models)
    cfg = eval_config(s)
    _, mean = evolution_curve(models, cfg.merge,
                              repetitions=s["repetitions"], seed=s["seed"])
    write_evolution_csv(mean, args.out)
    print(
        f"evolution: {len(models)} subjects x {s['repetitions']} shuffles, "
        f"plateau at {plateau_onset(mean)} -> {args.out}"
    )
    return 0


def cmd_similarity(args, s):
    models, _ = _load_model_dir(args.models)
    mats = pairwise_matrices(models)
    write_matrices_csv(mats, args.out)
    ss, nsns, sns = mats.off_diagonal_means()
    line = f"similarity: n={mats.n} S-S={ss:.3f} NS-NS={nsns:.3f} S-NS={sns:.3f}"
    iu = np.triu_indices(mats.n, 1)
    cross = (mats.s_to_ns[iu] + mats.s_to_ns.T[iu]) / 2
    try:
        _, p_ns = wilcoxon_signed_rank(mats.ns_to_ns[iu], mats.s_to_s[iu])
        _, p_s = wilcoxon_signed_rank(mats.s_to_s[iu], cross)
        line += f" p(NSNS,SS)={p_ns:.2g} p(SS,SNS)={p_s:.2g}"
    except DegenerateInputError:
        line += " (too few pairs for Wilcoxon)"
    print(line + f" -> {args.out}")
    return 0


def cmd_hybrid(args, s):
    pers, pers_books = load_model(args.pers)
    gen, gen_books = load_model(args.gen)
    if not _same_encoder(pers_books, gen_books):
        raise IncompatibleModelsError("parents were built with different encoders")
    composed = compose_hybrid(pers, gen, args.mode)
    save_model(composed, pers_books, args.out)
    print(f"hybrid: {args.mode} from {args.pers} + {args.gen} -> {args.out}")
    return 0


def cmd_eval(args, s):
    if args.emit_curves and args.mode != "both":
        raise ValueError("--emit-curves needs --mode both")
    thresholds = _parse_thresholds(s["sweep_thresholds"]) if args.emit_curves else None
    cohort = _read_features_at_step(args.features, s["step_sec"])
    cfg = eval_config(s)
    # everything is computed before the first write, so a failure leaves no
    # partial report set behind
    reports = {}
    if args.mode in ("personalized", "both"):
        reports["personalized"] = [cv_personalized(recs, cfg) for recs in cohort]
    if args.mode in ("generalized", "both"):
        reports["generalized"] = cv_generalized(cohort, cfg)
    if args.emit_curves:
        _, models = _train_cohort(cohort, cfg)
        _, mean = evolution_curve(models, cfg.merge,
                                  repetitions=s["repetitions"], seed=s["seed"])
        sweeps = {
            stage: sweep_selection(
                per_subject_scores(reports["generalized"], stage),
                per_subject_scores(reports["personalized"], stage),
                thresholds,
            )
            for stage in ("raw", "bayes")
        }
    parts = []
    for kind, kind_reports in reports.items():
        _write_report_set(kind_reports, kind, args.out)
        parts.append(f"{kind} {_f1_line(kind_reports)}")
    if args.emit_curves:
        write_evolution_csv(mean, os.path.join(args.out, "evolution.csv"))
        for stage, sweep in sweeps.items():
            write_sweep_csv(sweep, os.path.join(args.out, f"sweep_{stage}.csv"))
        parts.append(f"curves plateau={plateau_onset(mean)}")
    print(f"eval: n={len(cohort)} " + " | ".join(parts) + f" -> {args.out}")
    return 0


def cmd_transfer(args, s):
    target = _read_features_at_step(args.target_features, s["step_sec"])
    cfg = eval_config(s)
    if args.source_models:
        models, books = _load_model_dir(args.source_models)
        reports = transfer_eval(models, target, args.mode, cfg, source_codebooks=books)
    else:
        source = _read_features_at_step(args.source_features, s["step_sec"])
        reports = transfer_eval(source, target, args.mode, cfg)
    _write_report_set(reports, f"transfer_{args.mode}", args.out)
    print(f"transfer: {args.mode} onto {len(target)} subjects, "
          f"{_f1_line(reports)} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdseizure",
        description="Hyperdimensional seizure-detection pipeline.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="settings file of 'key = value' lines")
    for key, (typ, default) in SETTINGS.items():
        common.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                            default=None, metavar=typ.__name__.upper(),
                            help=f"{key} (default {default})")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic signal cohort")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", parents=[common],
                       help="extract windowed features from a cohort")
    p.add_argument("--cohort", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", parents=[common],
                       help="train per-subject models")
    p.add_argument("--features", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generalize", parents=[common],
                       help="merge personalized models into one")
    p.add_argument("--models", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_generalize)

    p = sub.add_parser("evolution", parents=[common],
                       help="similarity evolution while merging subjects")
    p.add_argument("--models", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_evolution)

    p = sub.add_parser("similarity", parents=[common],
                       help="pairwise inter-model similarity matrices")
    p.add_argument("--models", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("hybrid", parents=[common],
                       help="compose a hybrid model from two parents")
    p.add_argument("--pers", required=True, metavar="FILE")
    p.add_argument("--gen", required=True, metavar="FILE")
    p.add_argument("--mode", choices=list(HYBRID_MODES), required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("eval", parents=[common],
                       help="cross-validated evaluation with reports")
    p.add_argument("--features", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--mode", choices=["personalized", "generalized", "both"],
                   default="both")
    p.add_argument("--emit-curves", action="store_true",
                   help="also write evolution and selection-sweep CSVs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transfer", parents=[common],
                       help="apply source-cohort models to a target cohort")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--source-features", metavar="DIR")
    src.add_argument("--source-models", metavar="DIR")
    p.add_argument("--target-features", required=True, metavar="DIR")
    p.add_argument("--mode", choices=TRANSFER_MODES, default="generalized")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_transfer)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = resolve_settings(args)
        return args.func(args, settings)
    except ParseError as exc:
        print(f"PARSE: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateCohortError as exc:
        print(f"DATA: {exc}", file=sys.stderr)
        if exc.total_weight is not None:
            print(
                f"hint: the class total weight is {0.0 - exc.total_weight:.4f} short of "
                f"positive; a smaller --alpha-wrong (now {settings['alpha_wrong']:g}) "
                "subtracts less of each wrong-class model",
                file=sys.stderr,
            )
        return EXIT_DATA
    except (CorruptModelError, DegenerateInputError, IncompatibleModelsError,
            InsufficientDataError, MissingClassError) as exc:
        print(f"DATA: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"CONFIG: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"DATA: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last resort
        print(f"INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
