"""Command-line surface: one subcommand per pipeline stage.

Settings resolve in three layers: the defaults of the config fields they
set, then a `key = value` config file (--config), then command-line flags.
A subcommand has a flag, the setting's name with dashes for underscores,
for each setting it reads and for no other; a config file may hold any.

Exit codes: 0 success, 1 INTERNAL, 2 usage, 3 CONFIG, 4 PARSE, 5 DATA.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import fields, replace

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

#: setting -> the config fields it sets, as (class, field), or as (class,
#: field, index) for an item of a tuple field, which the command assembles.
#: The first gives the setting's default, and the default's type is its type.
FIELDS = {
    "subjects": [(CohortSpec, "num_subjects")],
    "records_per_subject": [(CohortSpec, "records_per_subject")],
    "fs": [(CohortSpec, "fs")],
    "channels": [(CohortSpec, "num_channels")],
    "seizure_sec": [(CohortSpec, "seizure_sec")],
    "non_seizure_sec": [(CohortSpec, "non_seizure_sec")],
    "shared_background_weight": [(CohortSpec, "shared_background_weight")],
    "seizure_freq_min": [(CohortSpec, "seizure_freq_range", 0)],
    "seizure_freq_max": [(CohortSpec, "seizure_freq_range", 1)],
    "seizure_amp_gain": [(CohortSpec, "seizure_amp_gain")],
    "seed": [(CohortSpec, "seed"), (TrainConfig, "seed"), (EvalConfig, "seed")],
    "window_sec": [(FeatureConfig, "window_sec")],
    "step_sec": [(FeatureConfig, "step_sec"), (EvalConfig, "step_sec")],
    "dim": [(EvalConfig, "dim")],
    "levels": [(EvalConfig, "num_levels")],
    "train_mode": [(TrainConfig, "mode")],
    "alpha": [(TrainConfig, "alpha")],
    "epochs": [(TrainConfig, "epochs")],
    "method": [(MergeConfig, "method")],
    "alpha_corr": [(MergeConfig, "alpha_corr")],
    "alpha_wrong": [(MergeConfig, "alpha_wrong")],
    "iterations": [(MergeConfig, "iterations")],
    "wrong_weight_convention": [(MergeConfig, "wrong_weight_convention")],
    "bayes_window_sec": [(EvalConfig, "bayes_window_sec")],
    "bayes_threshold": [(EvalConfig, "bayes_threshold")],
    "movavg_window_sec": [(EvalConfig, "movavg_window_sec")],
}


def _field_default(cls, name, *index):
    default = next(f.default for f in fields(cls) if f.name == name)
    return default[index[0]] if index else default


#: setting -> default; the two that set no config field are the CLI's own
DEFAULTS = {
    **{key: _field_default(*targets[0]) for key, targets in FIELDS.items()},
    "repetitions": 10,
    "sweep_thresholds": "0.0:1.0:21",
}


def _settings_of(*classes) -> list:
    """The settings that set a field of any of `classes`."""
    return [key for key, targets in FIELDS.items() if any(t[0] in classes for t in targets)]


def _build(cls, s: dict, **given):
    """A `cls` whose fields take the values in `s` of the settings that set
    them, and `given`; every other field keeps its default."""
    kwargs = {name: value for key, value in s.items()
              for owner, name, *index in FIELDS.get(key, ()) if owner is cls and not index}
    return cls(**kwargs, **given)


def read_config(path) -> dict:
    """Every setting in a `key = value` file, typed; the file may hold
    settings for any command."""
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
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        typ = type(DEFAULTS[key])
        try:
            out[key] = typ(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} expects {typ.__name__}, got {value!r}"
            ) from None
    return out


def resolve_settings(args) -> dict:
    """Each setting the command reads: its flag, else the config file's
    value, else its default. Sets `args.given` to the settings that a flag
    or the file gave."""
    config = read_config(args.config) if args.config else {}
    out = {}
    args.given = set()
    for key in args.reads:
        flag = getattr(args, key)
        if flag is not None or key in config:
            args.given.add(key)
        out[key] = config.get(key, DEFAULTS[key]) if flag is None else flag
    return out


def eval_config(s: dict) -> EvalConfig:
    return _build(EvalConfig, s, train=_build(TrainConfig, s), merge=_build(MergeConfig, s))


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
    freqs = (s["seizure_freq_min"], s["seizure_freq_max"])
    cohort = generate_synthetic_cohort(_build(CohortSpec, s, seizure_freq_range=freqs))
    write_cohort(cohort, args.out, writer=write_record)
    total = sum(len(records) for records in cohort)
    print(f"synth: {len(cohort)} subjects, {total} records -> {args.out}")
    return 0


def cmd_features(args, s):
    cohort = read_cohort(args.cohort)
    fcfg = _build(FeatureConfig, s)
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
    merge = _build(MergeConfig, s)
    merged = generalize(models, merge, tie_break_seed=s["seed"])
    save_model(merged, books, args.out)
    print(f"generalize: merged {len(models)} models ({merge.method}) -> {args.out}")
    return 0


def cmd_evolution(args, s):
    models, _ = _load_model_dir(args.models)
    _, mean = evolution_curve(models, _build(MergeConfig, s),
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
        for key, value in (("dim", books.dim), ("levels", books.num_levels)):
            if key in args.given and s[key] != value:
                raise ValueError(f"{key} is {s[key]}, but the model files in "
                                 f"{args.source_models} have {key} {value}")
        reports = transfer_eval(models, target, args.mode, cfg, source_codebooks=books)
    else:
        source = _read_features_at_step(args.source_features, s["step_sec"])
        reports = transfer_eval(source, target, args.mode, cfg)
    _write_report_set(reports, f"transfer_{args.mode}", args.out)
    print(f"transfer: {args.mode} onto {len(target)} subjects, "
          f"{_f1_line(reports)} -> {args.out}")
    return 0


def _add_command(sub, name, func, help, reads=(), **paths):
    """A subcommand with --config, a flag for each setting it reads, and a
    required flag for each of `paths`, given as metavars."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", metavar="FILE",
                   help="settings file of 'key = value' lines, for any command")
    for key in reads:
        default = DEFAULTS[key]
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=type(default),
                       metavar=type(default).__name__.upper(),
                       help=f"{key} (default {default})")
    for flag, metavar in paths.items():
        p.add_argument(f"--{flag.replace('_', '-')}", required=True, metavar=metavar)
    p.set_defaults(func=func, reads=tuple(reads))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdseizure",
        description="Hyperdimensional seizure-detection pipeline.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    merge = _settings_of(MergeConfig)
    protocol = _settings_of(EvalConfig, TrainConfig, MergeConfig)
    _add_command(sub, "synth", cmd_synth, "generate a synthetic signal cohort",
                 _settings_of(CohortSpec), out="DIR")
    _add_command(sub, "features", cmd_features, "extract windowed features from a cohort",
                 _settings_of(FeatureConfig), cohort="DIR", out="DIR")
    _add_command(sub, "train", cmd_train, "train per-subject models",
                 ["dim", "levels", *_settings_of(TrainConfig)], features="DIR", out="DIR")
    _add_command(sub, "generalize", cmd_generalize, "merge personalized models into one",
                 [*merge, "seed"], models="DIR", out="FILE")
    _add_command(sub, "evolution", cmd_evolution,
                 "similarity evolution while merging subjects",
                 [*merge, "seed", "repetitions"], models="DIR", out="FILE")
    _add_command(sub, "similarity", cmd_similarity,
                 "pairwise inter-model similarity matrices", models="DIR", out="FILE")

    p = _add_command(sub, "hybrid", cmd_hybrid, "compose a hybrid model from two parents",
                     pers="FILE", gen="FILE")
    p.add_argument("--mode", choices=list(HYBRID_MODES), required=True)
    p.add_argument("--out", required=True, metavar="FILE")

    p = _add_command(sub, "eval", cmd_eval, "cross-validated evaluation with reports",
                     [*protocol, "repetitions", "sweep_thresholds"], features="DIR", out="DIR")
    p.add_argument("--mode", choices=["personalized", "generalized", "both"],
                   default="both")
    p.add_argument("--emit-curves", action="store_true",
                   help="also write evolution and selection-sweep CSVs")

    p = _add_command(sub, "transfer", cmd_transfer,
                     "apply source-cohort models to a target cohort", protocol)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--source-features", metavar="DIR")
    src.add_argument("--source-models", metavar="DIR")
    p.add_argument("--target-features", required=True, metavar="DIR")
    p.add_argument("--mode", choices=TRANSFER_MODES, default="generalized")
    p.add_argument("--out", required=True, metavar="DIR")
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
