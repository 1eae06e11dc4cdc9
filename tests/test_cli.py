import argparse
import csv
import filecmp
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from test_dataio import ENCODER_FAULTS, model_file_bytes, mutated_model_files, with_encoder_fault

from hdseizure import cli
from hdseizure.dataio import load_model, read_features, read_record, save_model, synthetic_model_cohort
from hdseizure.encoding import build_codebooks
from hdseizure.errors import CorruptModelError, ParseError
from hdseizure.features import FEATURE_NAMES

COHORT_SETTINGS = ["subjects", "records_per_subject", "fs", "channels", "seizure_sec",
                   "non_seizure_sec", "seizure_freq_min", "seizure_freq_max",
                   "seizure_amp_gain", "seed"]
ENCODER_SETTINGS = ["dim", "levels", "seed", "train_mode"]
MERGE_SETTINGS = ["method", "alpha_corr", "alpha_wrong", "iterations", "wrong_weight_convention"]
PROTOCOL_SETTINGS = [*ENCODER_SETTINGS, *MERGE_SETTINGS, "step_sec"]
#: the settings each command reads, as the config objects it builds and
#: its own code read them; it takes a flag for these and for no other
READS = {
    "synth": COHORT_SETTINGS,
    "features": ["window_sec", "step_sec"],
    "train": ENCODER_SETTINGS,
    "generalize": [*MERGE_SETTINGS, "seed"],
    "evolution": [*MERGE_SETTINGS, "seed", "repetitions"],
    "similarity": [],
    "hybrid": [],
    "eval": [*PROTOCOL_SETTINGS, "repetitions"],
    "transfer": PROTOCOL_SETTINGS,
}
#: all 21 settings
SETTINGS = list(dict.fromkeys(name for reads in READS.values() for name in reads))


def flags(settings, command):
    """A --flag=value for each of `settings` ({name: value}) that `command` reads."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in settings.items()
            if name in READS[command]]


#: a tiny pipeline: 3 subjects of 3 records, 2 channels at 64 Hz, dim 256
TINY_SETTINGS = {"subjects": "3", "records_per_subject": "3", "fs": "64", "channels": "2",
                 "seizure_sec": "8", "non_seizure_sec": "8", "window_sec": "4",
                 "step_sec": "0.5", "dim": "256", "levels": "8", "seed": "7"}
TINY = {command: flags(TINY_SETTINGS, command) for command in READS}


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def build_pipeline(root):
    """synth -> features -> train, returning the three directories."""
    cohort = str(root / "cohort")
    feats = str(root / "feats")
    models = str(root / "models")
    assert run(["synth", *TINY["synth"], "--out", cohort]) == 0
    assert run(["features", *TINY["features"], "--cohort", cohort, "--out", feats]) == 0
    assert run(["train", *TINY["train"], "--features", feats, "--out", models]) == 0
    return cohort, feats, models


class TestUsage:
    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "hdseizure" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert run(["synth", "--out", "x", "--frobnicate", "1"]) == 2

    def test_missing_required_flag(self):
        assert run(["synth"]) == 2


#: the required flags of each command, so that its command line parses
REQUIRED = {
    "synth": ["--out", "o"],
    "features": ["--cohort", "c", "--out", "o"],
    "train": ["--features", "f", "--out", "o"],
    **dict.fromkeys(["generalize", "evolution", "similarity"], ["--models", "m", "--out", "o"]),
    "hybrid": ["--pers", "p", "--gen", "g", "--mode", "NSgen-Spers", "--out", "o"],
    "eval": ["--features", "f", "--out", "o"],
    "transfer": ["--source-features", "f", "--target-features", "f", "--out", "o"],
}


#: the settings that were deleted as constants, and the commands that read them
REMOVED = {
    "shared_background_weight": ["synth"],
    **dict.fromkeys(["alpha", "epochs"], ["train", "eval", "transfer"]),
    **dict.fromkeys(["bayes_window_sec", "bayes_threshold", "movavg_window_sec"],
                    ["eval", "transfer"]),
    "sweep_thresholds": ["eval"],
}


#: each command's own parser
SUBPARSERS = next(action.choices for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))


class TestSettingFlags:
    """A command takes a flag for each setting it reads, and no other."""

    @pytest.mark.parametrize("command", READS)
    @pytest.mark.parametrize("name", [*SETTINGS, *REMOVED])
    def test_flag_parses_only_where_read(self, capsys, command, name):
        # a removed setting is read by no command, so each one rejects its flag
        flag = f"--{name.replace('_', '-')}"
        argv = [command, *REQUIRED[command], flag, "2"]
        if name in READS[command]:
            args = cli.build_parser().parse_args(argv)
            assert getattr(args, name) == type(cli.DEFAULTS[name])("2")
        else:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["similarity", "--alpha-corr", "nan"], ["features", "--dim", "7"],
        ["generalize", "--dim", "4096", "--levels", "3"],
        # a prefix of one flag, and of two (--alpha-corr and --alpha-wrong)
        ["synth", "--sub", "2"], ["train", "--lev", "6"], ["transfer", "--alpha", "0.5"],
        *([command, f"--{name.replace('_', '-')}", "1"]
          for name, commands in REMOVED.items() for command in commands),
    ])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run([argv[0], *REQUIRED[argv[0]][:-1], str(out), *argv[1:]]) == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, parser in SUBPARSERS.items()
        for flag in parser._option_string_actions
        if flag.startswith("--") and flag[:-1] not in parser._option_string_actions])
    def test_flag_prefix_is_usage_error(self, capsys, command, flag):
        # each subparser is built with allow_abbrev=False, so a flag less its
        # last letter names no option, even where it could stand for only one
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, *REQUIRED[command], flag[:-1], "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[:-1]} 1" in capsys.readouterr().err

    def test_each_field_of_a_setting_has_its_default(self):
        for name, targets in cli.FIELDS.items():
            for cls, field, *index in targets:
                default = getattr(cls(), field)
                assert (default[index[0]] if index else default) == cli.DEFAULTS[name], name

    @pytest.mark.parametrize("command", READS)
    def test_help_shows_each_default(self, capsys, command):
        assert run([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for name in READS[command]:
            assert f"{name} (default {cli.DEFAULTS[name]})" in text


class TestConfigHandling:
    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny cohort\n"
            "subjects = 2\n"
            "records_per_subject = 3\n"
            "fs = 64\nchannels = 2\n"
            "seizure_sec = 4\nnon_seizure_sec = 4\n"
            "seed = 3\n"
        )
        out = tmp_path / "cohort"
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert "2 subjects, 6 records" in capsys.readouterr().out
        assert len(list(out.glob("*.csv"))) == 6

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nsubjects = 2\nrecords_per_subject = 3\n"
                       "fs = 64\nchannels = 2\nseizure_sec = 4\nnon_seizure_sec = 4\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["synth", "--config", str(cfg), "--seed", "2", "--out", str(a)]) == 0
        assert run(["synth", "--config", str(cfg), "--out", str(b)]) == 0
        rec_a = read_record(next(iter(sorted(a.glob("*.csv")))))
        rec_b = read_record(next(iter(sorted(b.glob("*.csv")))))
        assert not np.allclose(rec_a.samples, rec_b.samples)

    def test_config_may_hold_settings_another_command_reads(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subjects = 2\nfs = 64\nchannels = 2\nseizure_sec = 4\n"
                       "non_seizure_sec = 4\ndim = 7\nmethod = bogus\n")
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "cohort")]) == 0
        assert "2 subjects, 6 records" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["frobnicate", *REMOVED])
    def test_unknown_config_key(self, tmp_path, capsys, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = 1\n")
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == f"CONFIG: {cfg}:1: unknown setting {name!r}\n"
        assert not (tmp_path / "x").exists()

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = ten thousand\n")
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert "dim" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["synth", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith("CONFIG:")

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim 10000\n")
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_invalid_spec_value(self, tmp_path, capsys):
        assert run(["synth", "--subjects", "0", "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith("CONFIG:")


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        cohort, feats, models = build_pipeline(tmp_path)
        assert len(os.listdir(cohort)) == 9
        assert len(os.listdir(feats)) == 9
        assert sorted(os.listdir(models)) == ["s000.hdcm", "s001.hdcm", "s002.hdcm"]

        gen = str(tmp_path / "gen.hdcm")
        assert run(["generalize", *TINY["generalize"], "--models", models, "--out", gen]) == 0
        merged, _ = load_model(gen)
        assert merged.kind == "generalized"

        mats = str(tmp_path / "mats.csv")
        assert run(["similarity", *TINY["similarity"], "--models", models, "--out", mats]) == 0
        assert os.path.exists(mats)

        evo = str(tmp_path / "evo.csv")
        assert run(["evolution", *TINY["evolution"], "--repetitions", "3",
                    "--models", models, "--out", evo]) == 0
        assert "plateau at" in capsys.readouterr().out

        hyb = str(tmp_path / "hyb.hdcm")
        assert run(["hybrid", "--pers", os.path.join(models, "s000.hdcm"),
                    "--gen", gen, "--mode", "NSgen-Spers", "--out", hyb]) == 0
        composed, _ = load_model(hyb)
        assert composed.kind == "hybrid"
        pers, _ = load_model(os.path.join(models, "s000.hdcm"))
        assert composed.seizure == pers.seizure
        assert composed.non_seizure == merged.non_seizure

    def test_eval_writes_reports_and_curves(self, tmp_path, capsys):
        _, feats, _ = build_pipeline(tmp_path)
        out = str(tmp_path / "eval")
        assert run(["eval", *TINY["eval"], "--repetitions", "3", "--features", feats,
                    "--out", out, "--mode", "both", "--emit-curves"]) == 0
        names = set(os.listdir(out))
        assert {"personalized.csv", "generalized.csv", "evolution.csv",
                "sweep_raw.csv", "sweep_bayes.csv"} <= names
        for sid in ("s000", "s001", "s002"):
            assert f"personalized_{sid}.json" in names
            assert f"generalized_{sid}.json" in names
        doc = json.load(open(os.path.join(out, "personalized_s000.json")))
        assert doc["modelKind"] == "personalized"
        assert 0.0 <= doc["metrics"]["duration.raw.f1"] <= 1.0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.startswith("eval: n=3")
        assert "plateau=" in summary

    def test_emit_curves_needs_both_modes(self, tmp_path, capsys):
        _, feats, _ = build_pipeline(tmp_path)
        rc = run(["eval", *TINY["eval"], "--features", feats,
                  "--out", str(tmp_path / "e"), "--mode", "personalized",
                  "--emit-curves"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("CONFIG:")

    def test_transfer_matches_loso_on_same_cohort(self, tmp_path):
        _, feats, _ = build_pipeline(tmp_path)
        gen_out = str(tmp_path / "eval")
        assert run(["eval", *TINY["eval"], "--features", feats, "--out", gen_out,
                    "--mode", "generalized"]) == 0
        tr_out = str(tmp_path / "transfer")
        assert run(["transfer", *TINY["transfer"], "--source-features", feats,
                    "--target-features", feats, "--mode", "generalized",
                    "--out", tr_out]) == 0
        loso = open(os.path.join(gen_out, "generalized.csv")).read()
        degenerate = open(os.path.join(tr_out, "transfer_generalized.csv")).read()
        assert degenerate == loso

    def test_transfer_from_pretrained_models(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        out = str(tmp_path / "transfer")
        assert run(["transfer", *TINY["transfer"], "--source-models", models,
                    "--target-features", feats, "--mode", "NSgen-Spers",
                    "--out", out]) == 0
        assert "transfer: NSgen-Spers onto 3 subjects" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "transfer_NSgen-Spers.csv"))

    def test_transfer_models_reject_other_encoder_settings(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        out = str(tmp_path / "transfer")
        others = {k: v for k, v in TINY_SETTINGS.items() if k not in ("dim", "levels")}
        argv = ["transfer", *flags(others, "transfer"), "--source-models", models,
                "--target-features", feats, "--out", out]
        config = tmp_path / "levels.cfg"
        config.write_text("levels = 16\n")
        # the models were trained at dim 256 with 8 levels
        for given, named in ((["--dim", "512"], "dim is 512, but the model files in"),
                             (["--config", str(config)], "levels is 16, but the model files in")):
            capsys.readouterr()
            assert run([*argv, *given]) == 3
            err = capsys.readouterr().err
            assert err.startswith("CONFIG:") and named in err
            assert err.rstrip().endswith("have dim 256" if "--dim" in given else "have levels 8")
            assert not os.path.exists(out)
        assert run([*argv, "--dim", "256", "--levels", "8"]) == 0
        assert run(argv) == 0

    def test_generalize_avrg_single_subject_identity(self, tmp_path):
        _, _, models = build_pipeline(tmp_path)
        solo = tmp_path / "solo"
        solo.mkdir()
        (solo / "s000.hdcm").write_bytes(
            (tmp_path / "models" / "s000.hdcm").read_bytes()
        )
        out = str(tmp_path / "solo.hdcm")
        assert run(["generalize", *TINY["generalize"], "--method", "avrg",
                    "--models", str(solo), "--out", out]) == 0
        merged, _ = load_model(out)
        original, _ = load_model(str(solo / "s000.hdcm"))
        assert merged.seizure == original.seizure
        assert merged.non_seizure == original.non_seizure
        assert merged.kind == "generalized"


class TestErrorPaths:
    def test_missing_cohort_dir_is_data_error(self, tmp_path, capsys):
        rc = run(["features", *TINY["features"], "--cohort", str(tmp_path / "nope"),
                  "--out", str(tmp_path / "f")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("DATA:")

    def test_malformed_record_is_parse_error(self, tmp_path, capsys):
        d = tmp_path / "cohort"
        d.mkdir()
        (d / "s000__r00.csv").write_text("time_s,c1,label\n0.0,1.0,0\n0.5,x,1\n")
        rc = run(["features", *TINY["features"], "--cohort", str(d), "--out", str(tmp_path / "f")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("PARSE:")
        assert "line 3" in err

    def test_subject_without_seizures_is_named(self, tmp_path, capsys):
        cohort, feats = str(tmp_path / "cohort"), str(tmp_path / "feats")
        assert run(["synth", *TINY["synth"], "--out", cohort]) == 0
        for path in Path(cohort).glob("s001__*.csv"):
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0], *(l.rsplit(",", 1)[0] + ",0" for l in lines[1:])]) + "\n")
        assert run(["features", *TINY["features"], "--cohort", cohort, "--out", feats]) == 0
        for command in (["train"], ["eval", "--mode", "both"]):
            capsys.readouterr()
            assert run([command[0], *TINY[command[0]], *command[1:], "--features", feats,
                        "--out", str(tmp_path / "o")]) == 5
            assert capsys.readouterr().err.startswith("DATA: no seizure samples for subject 's001'")

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "models"
        d.mkdir()
        (d / "bad.hdcm").write_bytes(b"JUNKJUNKJUNKJUNK")
        rc = run(["generalize", *TINY["generalize"], "--models", str(d),
                  "--out", str(tmp_path / "g.hdcm")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("DATA:")

    def test_empty_model_dir_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "models"
        d.mkdir()
        rc = run(["generalize", *TINY["generalize"], "--models", str(d),
                  "--out", str(tmp_path / "g.hdcm")])
        assert rc == 5

    @pytest.mark.parametrize("command", ["evolution", "similarity"])
    def test_one_model_is_data_error(self, tmp_path, capsys, command):
        d = tmp_path / "models"
        d.mkdir()
        model = synthetic_model_cohort(1, dim=256, seed=0)[0]
        save_model(model, build_codebooks(1, 2, 256, 0), str(d / "s000.hdcm"))
        rc = run([command, "--models", str(d), "--out", str(tmp_path / "out.csv")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("DATA:")

    def test_degenerate_evolution_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "models"
        d.mkdir()
        books = build_codebooks(1, 2, 256, 0)
        for m in synthetic_model_cohort(6, dim=256, seed=1):
            save_model(m, books, str(d / f"{m.subject_id}.hdcm"))
        rc = run(["evolution", "--alpha-corr", "0", "--models", str(d),
                  "--out", str(tmp_path / "evolution.csv")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "total weight" in err
        assert not (tmp_path / "evolution.csv").exists()

    def test_default_alpha_wrong_hint(self, tmp_path, capsys):
        # the cohort shape on which the default merge cancels the seizure class
        d = tmp_path / "models"
        d.mkdir()
        books = build_codebooks(1, 2, 10000, 0)
        for m in synthetic_model_cohort(30, dim=10000, seed=0, s_flip=0.36,
                                        ns_flip=0.32, class_overlap_flip=0.42):
            save_model(m, books, str(d / f"{m.subject_id}.hdcm"))
        out = str(tmp_path / "evolution.csv")
        assert run(["evolution", "--models", str(d), "--out", out]) == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA: non-positive total weight -0.0568")
        assert "hint: the class total weight is 0.0568 short of positive" in err
        assert "--alpha-wrong (now 1)" in err
        assert run(["evolution", "--alpha-wrong", "0.75", "--models", str(d), "--out", out]) == 0

    @settings(max_examples=100, deadline=None)
    @given(buf=mutated_model_files())
    def test_mutated_model_file_exit_code(self, tmp_path_factory, buf):
        d = tmp_path_factory.mktemp("fuzzed_models")
        (d / "a.hdcm").write_bytes(model_file_bytes())
        (d / "b.hdcm").write_bytes(buf)
        try:
            load_model(str(d / "b.hdcm"))
            loads = True
        except (CorruptModelError, ParseError):
            loads = False
        rc = run(["generalize", "--models", str(d), "--out", str(d / "g.hdcm")])
        assert rc in ((0, 4, 5) if loads else (4, 5))

    def test_set_word_padding_byte_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "models"
        d.mkdir()
        data = bytearray(model_file_bytes())
        (d / "a.hdcm").write_bytes(bytes(data))
        # byte 14 of vector 0 lies in the word padding of a dim-100 file
        data[13 + struct.unpack_from("<I", data, 9)[0] + 14] = 0xFF
        (d / "b.hdcm").write_bytes(bytes(data))
        rc = run(["generalize", "--models", str(d), "--out", str(tmp_path / "g.hdcm")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "vector 0 has bits set past dim 100" in err
        assert not (tmp_path / "g.hdcm").exists()

    def test_mixed_encoders_rejected(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        other = tmp_path / "other_models"
        assert run(["train", *TINY["train"], "--levels", "6", "--features", feats,
                    "--out", str(other)]) == 0
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "a.hdcm").write_bytes((tmp_path / "models" / "s000.hdcm").read_bytes())
        (mixed / "b.hdcm").write_bytes((other / "s001.hdcm").read_bytes())
        rc = run(["generalize", *TINY["generalize"], "--models", str(mixed),
                  "--out", str(tmp_path / "g.hdcm")])
        assert rc == 5
        assert "different encoder" in capsys.readouterr().err

    def test_two_files_of_one_subject_are_data_error(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        first, copy = (os.path.join(models, name) for name in ("s000.hdcm", "s000_copy.hdcm"))
        Path(copy).write_bytes(Path(first).read_bytes())
        out = str(tmp_path / "out")
        for argv in (["generalize", "--models", models, "--out", out],
                     ["evolution", "--repetitions", "2", "--models", models, "--out", out],
                     ["similarity", "--models", models, "--out", out],
                     ["transfer", "--source-models", models, "--target-features", feats,
                      "--out", out]):
            capsys.readouterr()
            assert run([*argv[:1], *TINY[argv[0]], *argv[1:]]) == 5, argv[0]
            err = capsys.readouterr().err
            assert err == f"DATA: {first} and {copy} both hold subject 's000'\n", err
            assert not os.path.exists(out)

    def test_flipped_id_bit_is_data_error(self, tmp_path, capsys):
        _, _, models = build_pipeline(tmp_path)
        path = tmp_path / "models" / "s001.hdcm"
        path.write_bytes(with_encoder_fault(path.read_bytes(), "ID bit"))
        with pytest.raises(CorruptModelError, match="ID 0 vector"):
            load_model(path)
        rc = run(["generalize", *TINY["generalize"], "--models", models,
                  "--out", str(tmp_path / "g.hdcm")])
        assert rc == 5
        assert "ID 0 vector is not the one encoder seed 7 draws" in capsys.readouterr().err
        assert not (tmp_path / "g.hdcm").exists()

    def test_reversed_level_chain_is_data_error(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        bad = tmp_path / "reversed"
        bad.mkdir()
        for name in sorted(os.listdir(models)):
            data = Path(models, name).read_bytes()
            (bad / name).write_bytes(with_encoder_fault(data, "reversed chain"))
        rc = run(["transfer", *TINY["transfer"], "--source-models", str(bad),
                  "--target-features", feats, "--out", str(tmp_path / "t")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "level 0 vector is not the one encoder" in err

    def test_only_personalized_models_form_a_cohort(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        gen = os.path.join(models, "gen.hdcm")
        assert run(["generalize", *TINY["generalize"], "--models", models, "--out", gen]) == 0
        out = str(tmp_path / "out")
        for argv in (["generalize", "--models", models, "--out", out],
                     ["evolution", "--repetitions", "2", "--models", models, "--out", out],
                     ["similarity", "--models", models, "--out", out],
                     ["transfer", "--source-models", models, "--target-features", feats,
                      "--out", out]):
            capsys.readouterr()
            assert run([*argv[:1], *TINY[argv[0]], *argv[1:]]) == 5
            err = capsys.readouterr().err
            assert err.startswith("DATA:") and "subject '' is a generalized model" in err
            assert not os.path.exists(out)
        # a lone generalized source model is used as it is
        solo = tmp_path / "solo"
        solo.mkdir()
        os.replace(gen, solo / "gen.hdcm")
        assert run(["transfer", *TINY["transfer"], "--source-models", str(solo),
                    "--target-features", feats, "--out", out]) == 0

    def test_irregular_time_column_is_parse_error(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        assert run(["synth", *TINY["synth"], "--out", str(cohort)]) == 0
        path = cohort / "s001__r02.csv"
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:100] + lines[104:]))  # a 4-sample gap
        rc = run(["features", *TINY["features"], "--cohort", str(cohort),
                  "--out", str(tmp_path / "f")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("PARSE:") and "line 101" in err and "time column" in err


    def test_rate_too_low_for_features_is_data_error(self, tmp_path, capsys):
        cohort = str(tmp_path / "cohort")
        assert run(["synth", *TINY["synth"], "--fs", "32", "--out", cohort]) == 0
        rc = run(["features", *TINY["features"], "--cohort", cohort,
                  "--out", str(tmp_path / "f")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "32 Hz" in err and "fs > 40 Hz" in err

    @pytest.mark.parametrize("gain, rc", [("1e160", 5), ("1e100", 0)])
    def test_huge_finite_samples_are_data_error(self, tmp_path, capsys, gain, rc):
        cohort = str(tmp_path / "cohort")
        spans = ["--subjects", "2", "--fs", "64", "--seizure-sec", "8", "--non-seizure-sec", "8"]
        assert run(["synth", *spans, "--seizure-amp-gain", gain, "--out", cohort]) == 0
        capsys.readouterr()
        out = tmp_path / "f"
        assert run(["features", "--window-sec", "4", "--cohort", cohort,
                    "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("DATA: channel 'FP1-F7' has a sample of magnitude")
            assert "256-sample window overflow" in err
            assert not out.exists()
        else:
            assert err == ""

    @pytest.mark.parametrize("scale, rc", [(1e-200, 5), (1e-120, 0)])
    def test_tiny_samples_are_data_error(self, tmp_path, capsys, scale, rc):
        cohort = tmp_path / "cohort"
        assert run(["synth", *TINY["synth"], "--out", str(cohort)]) == 0

        def scaled(cells):
            if cells[0] == "time_s":
                return cells
            return [cells[0], *(repr(float(c) * scale) for c in cells[1:-1]), cells[-1]]

        # one record's samples scaled by `scale`; below a range of ~1.5e-154
        # its band powers would underflow towards 0
        records = TestFeatureNames.records(cohort, tmp_path, scaled)
        capsys.readouterr()
        out = tmp_path / "f"
        assert run(["features", *TINY["features"], "--cohort", str(records),
                    "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("DATA: subject 's001' record 'r01': channel 'ch01' spans only "), err
            assert "band powers underflow below a range of 1.49167e-154" in err
            assert not out.exists()
        else:
            assert err == ""
            fm = read_features(out / "s001__r01.csv")
            powers = [i for i, name in enumerate(fm.feature_names) if ":pow_" in name]
            assert len(powers) == 14 and (fm.values[:, powers].max(axis=0) > 0).all()

    @pytest.mark.parametrize("flag, value", [
        ("--step-sec", "0"), ("--step-sec", "0.001"), ("--window-sec", "0"), ("--step-sec", "-0.5"),
    ])
    def test_window_or_step_below_one_sample_is_config_error(self, tmp_path, capsys, flag, value):
        cohort = str(tmp_path / "cohort")
        assert run(["synth", *TINY["synth"], "--subjects", "1", "--out", cohort]) == 0
        out = tmp_path / "f"
        rc = run(["features", *TINY["features"], flag, value, "--cohort", cohort,
                  "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert err.startswith(f"CONFIG: {name} must be finite and at least one sample at 64 Hz")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seizure-amp-gain", "nan"), ("--seizure-amp-gain", "inf"), ("--fs", "inf"),
        ("--fs", "nan"), ("--non-seizure-sec", "inf"), ("--seizure-sec", "nan"),
    ])
    def test_non_finite_cohort_setting_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "cohort"
        rc = run(["synth", *TINY["synth"], flag, value, "--out", str(out)])
        assert rc == 3
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"CONFIG: {name} must be finite and > 0")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--seizure-sec", "1e308", "seizure_sec"), ("--fs", "1e308", "seizure_sec"),
        ("--seizure-sec", "1e-9", "seizure_sec"), ("--non-seizure-sec", "1e-9", "non_seizure_sec"),
    ])
    def test_cohort_span_not_a_sample_count_is_config_error(self, tmp_path, capsys,
                                                            flag, value, name):
        out = tmp_path / "cohort"
        rc = run(["synth", *TINY["synth"], flag, value, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            f"CONFIG: {name} must be finite and at least one sample")
        assert not out.exists()

    def test_hybrid_parents_swapped_is_data_error(self, tmp_path, capsys):
        _, _, models = build_pipeline(tmp_path)
        gen = str(tmp_path / "gen.hdcm")
        assert run(["generalize", *TINY["generalize"], "--models", models, "--out", gen]) == 0
        rc = run(["hybrid", *TINY["hybrid"], "--pers", gen,
                  "--gen", os.path.join(models, "s000.hdcm"),
                  "--mode", "NSgen-Spers", "--out", str(tmp_path / "h.hdcm")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "must be a personalized model" in err


def swap_channels(cells):
    return [cells[0], cells[2], cells[1], *cells[3:]]


def rename_channels(cells):
    return ["time_s", "Fz", "Cz", "label"] if cells[0] == "time_s" else cells


#: the channel names each record edit above gives, as a map from the originals
CHANNEL_MAPS = {swap_channels: {"ch01": "ch02", "ch02": "ch01"},
                rename_channels: {"ch01": "Fz", "ch02": "Cz"}}


class TestFeatureNames:
    """Records are pooled by feature name: every record of a cohort, and a
    raw transfer source and its target, must carry the same names. The
    records of a cohort must share one sampling rate too."""

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        """The tiny cohort and its features."""
        root = tmp_path_factory.mktemp("names")
        cohort, feats = root / "cohort", str(root / "feats")
        assert run(["synth", *TINY["synth"], "--out", str(cohort)]) == 0
        assert run(["features", *TINY["features"], "--cohort", str(cohort), "--out", feats]) == 0
        return cohort, feats

    @staticmethod
    def records(cohort, root, edit, names=("s001__r01.csv",)):
        """A copy of `cohort` whose records `names` have each row's cells
        passed through `edit`."""
        records = root / "records"
        records.mkdir()
        for path in sorted(cohort.iterdir()):
            lines = path.read_text().splitlines()
            if path.name in names:
                lines = [",".join(edit(line.split(","))) for line in lines]
            (records / path.name).write_text("\n".join(lines) + "\n")
        return records

    @staticmethod
    def relabelled(feats, root, channels, name="s001__r01.csv"):
        """A copy of the feature directory `feats` whose file `name` has its
        header's channel names mapped through `channels`."""
        out = root / "feats"
        out.mkdir()
        for path in sorted(Path(feats).iterdir()):
            header, body = path.read_text().split("\n", 1)
            if path.name == name:
                cells = [cell.partition(":") for cell in header.split(",")]
                header = ",".join(channels.get(ch, ch) + sep + feature for ch, sep, feature in cells)
            (out / path.name).write_text(header + "\n" + body)
        return str(out)

    @pytest.mark.parametrize("edit, first", [(swap_channels, "channel 'ch02'"),
                                             (rename_channels, "channel 'Fz'")])
    def test_features_rejects_one_record_named_apart(self, cohort, tmp_path, capsys, edit, first):
        records = self.records(cohort[0], tmp_path, edit)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["features", *TINY["features"], "--cohort", str(records),
                    "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == (f"DATA: subject 's001' record 'r01' has {first} at position 0, "
                       "where subject 's000' record 'r00' has 'ch01'\n"), err
        assert not out.exists()

    def test_a_repeated_column_is_parse_error(self, cohort, tmp_path, capsys):
        # ch02 renamed ch01 in one record's header, and in one feature file's
        records = self.records(cohort[0], tmp_path,
                               lambda cells: ["ch01" if c == "ch02" else c for c in cells])
        feats = self.relabelled(cohort[1], tmp_path, {"ch02": "ch01"})
        out = tmp_path / "out"
        for argv, name in ((["features", "--cohort", str(records)], "ch01"),
                           (["train", "--features", feats], f"ch01:{FEATURE_NAMES[0]}"),
                           (["eval", "--features", feats], f"ch01:{FEATURE_NAMES[0]}")):
            capsys.readouterr()
            assert run([argv[0], *TINY[argv[0]], *argv[1:], "--out", str(out)]) == 4, argv[0]
            err = capsys.readouterr().err
            assert err == f"PARSE: line 1: column {name!r} repeats in the header\n", err
            assert not out.exists()

    def test_features_rejects_a_missing_channel(self, cohort, tmp_path, capsys):
        records = self.records(cohort[0], tmp_path, lambda cells: [*cells[:2], cells[-1]])
        capsys.readouterr()
        assert run(["features", *TINY["features"], "--cohort", str(records),
                    "--out", str(tmp_path / "out")]) == 5
        assert capsys.readouterr().err == (
            "DATA: subject 's001' record 'r01' has no channel at position 1, "
            "where subject 's000' record 'r00' has 'ch02'\n")

    def test_features_rejects_a_record_at_another_rate(self, cohort, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(["synth", *flags({**TINY_SETTINGS, "fs": "128"}, "synth"),
                    "--out", str(other)]) == 0
        records = self.records(cohort[0], tmp_path, lambda cells: cells)
        (records / "s001__r02.csv").write_bytes((other / "s001__r02.csv").read_bytes())
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["features", *TINY["features"], "--cohort", str(records),
                    "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            "DATA: subject 's001' record 'r02' is sampled at 128 Hz, "
            "where subject 's000' record 'r00' is sampled at 64 Hz\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit, first", [(swap_channels, "'ch02:mean_amplitude' in column 0"),
                                             (rename_channels, "'Fz:mean_amplitude' in column 0")])
    def test_one_record_named_apart_is_data_error(self, cohort, tmp_path, capsys, edit, first):
        # `features` rejects such a cohort, so the header of one record's
        # feature file is edited instead
        cohort, clean = cohort
        bad = self.relabelled(clean, tmp_path, CHANNEL_MAPS[edit])
        out = tmp_path / "out"
        for argv in (["train", "--features", bad],
                     ["eval", "--mode", "both", "--features", bad],
                     ["transfer", "--source-features", bad, "--target-features", clean],
                     ["transfer", "--source-features", clean, "--target-features", bad]):
            capsys.readouterr()
            assert run([argv[0], *TINY[argv[0]], *argv[1:], "--out", str(out)]) == 5, argv
            err = capsys.readouterr().err
            assert err.startswith("DATA: subject 's001' record 'r01' has feature " + first), err
            # eval's leave-one-record-out pools one subject's records only
            assert "record 'r00' has 'ch01:mean_amplitude'" in err
            assert not out.exists()

    def test_transfer_source_named_apart_is_data_error(self, cohort, tmp_path, capsys):
        cohort, clean = cohort
        every = [path.name for path in cohort.iterdir()]
        records = self.records(cohort, tmp_path, rename_channels, names=every)
        renamed = str(tmp_path / "renamed")
        # a cohort whose records all carry the same other names is consistent
        assert run(["features", *TINY["features"], "--cohort", str(records),
                    "--out", renamed]) == 0
        out = tmp_path / "out"
        assert run(["train", *TINY["train"], "--features", renamed, "--out", str(out)]) == 0
        assert run(["transfer", *TINY["transfer"], "--source-features", renamed,
                    "--target-features", clean, "--out", str(tmp_path / "t")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA: subject 's000' record 'r00' has feature "
                              "'ch01:mean_amplitude' in column 0, where subject 's000' "
                              "record 'r00' has 'Fz:mean_amplitude'"), err
        assert not (tmp_path / "t").exists()


class TestFlatChannel:
    def test_features_warns_and_extracts(self, tmp_path):
        cohort = tmp_path / "cohort"
        assert run(["synth", *TINY["synth"], "--out", str(cohort)]) == 0
        # channel ch02 of one record is all zeros
        records = TestFeatureNames.records(
            cohort, tmp_path, lambda cells: cells if cells[0] == "time_s" else [*cells[:2], "0", cells[3]])
        feats = tmp_path / "feats"
        with pytest.warns(UserWarning) as caught:
            assert run(["features", *TINY["features"], "--cohort", str(records),
                        "--out", str(feats)]) == 0
        assert [str(w.message) for w in caught] == [
            "subject 's001' record 'r01': channel(s) 'ch02' are flat, every sample equal; "
            "their features describe no signal"]
        assert sorted(os.listdir(feats)) == sorted(os.listdir(cohort))


class TestEncoderRowsAtLoad:
    """Every command that loads model files rejects one whose level or ID
    rows are not the ones its encoder key draws, before it writes."""

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("encoder_rows")
        _, feats, models = build_pipeline(root)
        gen = str(root / "gen.hdcm")
        assert run(["generalize", *TINY["generalize"], "--models", models, "--out", gen]) == 0
        return feats, models, gen

    @pytest.mark.parametrize("command", ["generalize", "evolution", "similarity", "hybrid",
                                         "transfer"])
    @pytest.mark.parametrize("fault", ENCODER_FAULTS)
    def test_fault_is_data_error(self, tmp_path, capsys, pipeline, fault, command):
        feats, models, gen = pipeline
        bad = tmp_path / "models"
        bad.mkdir()
        for name in sorted(os.listdir(models)):
            (bad / name).write_bytes(with_encoder_fault(Path(models, name).read_bytes(), fault))
        bad_gen = tmp_path / "gen.hdcm"
        bad_gen.write_bytes(with_encoder_fault(Path(gen).read_bytes(), fault))
        out = tmp_path / "out"
        rc = run({
            "generalize": ["generalize", "--models", str(bad), "--out", str(out)],
            "evolution": ["evolution", "--repetitions", "2", "--models", str(bad),
                          "--out", str(out)],
            "similarity": ["similarity", "--models", str(bad), "--out", str(out)],
            "hybrid": ["hybrid", "--pers", str(bad / "s000.hdcm"), "--gen", str(bad_gen),
                       "--mode", "NSgen-Spers", "--out", str(out)],
            "transfer": ["transfer", *TINY["transfer"], "--source-models", str(bad),
                         "--target-features", feats, "--out", str(out)],
        }[command])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and ("vector is not the one encoder" in err
                                            or "levels need dim" in err)
        assert not out.exists()


class TestBadInputExitCodes:
    @pytest.fixture(scope="class")
    def feats(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bad_inputs")
        cohort, feats = str(root / "cohort"), str(root / "feats")
        assert run(["synth", *TINY["synth"], "--out", cohort]) == 0
        assert run(["features", *TINY["features"], "--cohort", cohort, "--out", feats]) == 0
        return feats

    @staticmethod
    def edited_copy(feats, dest, edit):
        """Copy a feature directory, passing s000__r01.csv's rows through `edit`."""
        dest.mkdir()
        for name in os.listdir(feats):
            text = open(os.path.join(feats, name)).read()
            if name == "s000__r01.csv":
                text = "".join(edit(i, line) for i, line in enumerate(text.splitlines(True)))
            (dest / name).write_text(text)
        return str(dest)

    def test_nan_feature_is_data_error(self, feats, tmp_path, capsys):
        def nan_cell(i, line):
            if i != 3:
                return line
            cells = line.split(",")
            cells[4] = "nan"
            return ",".join(cells)

        bad = self.edited_copy(feats, tmp_path / "nan_feats", nan_cell)
        rc = run(["eval", *TINY["eval"], "--features", bad, "--out", str(tmp_path / "e")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "non-finite" in err

    def test_feature_count_mismatch_is_data_error(self, feats, tmp_path, capsys):
        def drop_last_column(i, line):
            return line.rstrip("\r\n").rsplit(",", 1)[0] + "\n"

        bad = self.edited_copy(feats, tmp_path / "short_feats", drop_last_column)
        for command in (["eval", "--features", bad, "--out", str(tmp_path / "e")],
                        ["train", "--features", bad, "--out", str(tmp_path / "m")]):
            rc = run([command[0], *TINY[command[0]], *command[1:]])
            assert rc == 5, command[0]
            err = capsys.readouterr().err
            assert err.startswith("DATA:") and "disagree on feature count" in err

    @pytest.mark.parametrize("label", ["0.7", "nan", "2"])
    def test_bad_label_is_parse_error(self, feats, tmp_path, capsys, label):
        def bad_label(i, line):
            if i != 3:
                return line
            cells = line.split(",")
            cells[1] = label
            return ",".join(cells)

        bad = self.edited_copy(feats, tmp_path / "bad_labels", bad_label)
        for command in (["eval", "--features", bad, "--out", str(tmp_path / "e")],
                        ["train", "--features", bad, "--out", str(tmp_path / "m")]):
            rc = run([command[0], *TINY[command[0]], *command[1:]])
            assert rc == 4, command[0]
            err = capsys.readouterr().err
            assert err.startswith("PARSE:") and "line 4: label must be 0 or 1" in err

    def test_header_only_features_is_parse_error(self, feats, tmp_path, capsys):
        bad = self.edited_copy(feats, tmp_path / "no_rows", lambda i, line: line if i == 0 else "")
        rc = run(["eval", *TINY["eval"], "--features", bad, "--out", str(tmp_path / "e")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("PARSE:") and "no window rows" in err

    def test_step_mismatch_is_data_error(self, feats, tmp_path, capsys):
        # features extracted at a 1 s step, evaluated at TINY's 0.5 s
        cohort, wide, models = (str(tmp_path / n) for n in ("cohort", "wide", "models"))
        assert run(["synth", *TINY["synth"], "--out", cohort]) == 0
        assert run(["features", *TINY["features"], "--step-sec", "1", "--cohort", cohort,
                    "--out", wide]) == 0
        assert run(["train", *TINY["train"], "--features", feats, "--out", models]) == 0
        out = tmp_path / "out"
        for command in (["eval", "--features", wide],
                        ["transfer", "--source-features", wide, "--target-features", feats],
                        ["transfer", "--source-models", models, "--target-features", wide]):
            rc = run([command[0], *TINY[command[0]], *command[1:], "--out", str(out)])
            assert rc == 5, command
            err = capsys.readouterr().err
            assert err.startswith("DATA: " + os.path.join(wide, "s000__r00.csv"))
            assert "windows start 1 s apart, but step_sec is 0.5 s" in err
            assert not out.exists()
        assert run(["eval", *TINY["eval"], "--step-sec", "1", "--mode", "personalized",
                    "--features", wide, "--out", str(out)]) == 0
        # 0.3 s rounds to 19 samples at 64 Hz, a step 1.04 % short, which passes
        odd = str(tmp_path / "odd")
        assert run(["features", *TINY["features"], "--step-sec", "0.3", "--cohort", cohort,
                    "--out", odd]) == 0
        assert run(["transfer", *TINY["transfer"], "--step-sec", "0.3", "--source-models", models,
                    "--target-features", odd, "--out", str(tmp_path / "t")]) == 0

    def test_non_finite_postprocessing_fails_before_any_fold(
            self, feats, tmp_path, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            pytest.fail("a fold ran before the postprocessing settings were checked")

        for name in ("cv_personalized", "cv_generalized", "transfer_eval"):
            monkeypatch.setattr(cli, name, not_reached)
        out = tmp_path / "out"
        for command in (["eval", "--features", feats],
                        ["transfer", "--source-features", feats, "--target-features", feats]):
            rc = run([command[0], *TINY[command[0]], "--step-sec", "inf", *command[1:],
                      "--out", str(out)])
            assert rc == 3, command[0]
            assert capsys.readouterr().err.startswith("CONFIG: step_sec must be finite and > 0")
            assert not out.exists()

    def test_overflowing_alpha_is_config_error(self, feats, tmp_path):
        # run apart, so that a numpy overflow warning would be an error, not a pass
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "e"
        proc = subprocess.run(
            [sys.executable, "-m", "hdseizure.cli", "eval", *TINY["eval"], "--alpha-corr", "1e308",
             "--features", feats, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 3, proc.stderr
        assert "\nCONFIG: the alpha weights overflow float64" in "\n" + proc.stderr
        assert not out.exists()

    def test_huge_shortfall_prints_in_four_digits(self, feats, tmp_path, capsys):
        rc = run(["eval", *TINY["eval"], "--alpha-wrong", "1e308", "--features", feats,
                  "--out", str(tmp_path / "e")])
        assert rc == 5
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("DATA: non-positive total weight -")
        assert lines[1].startswith("hint: the class total weight is ")
        # each number in at most four significant digits
        assert all(len(line) < 160 for line in lines), lines

    def test_one_subject_is_data_error(self, feats, tmp_path, capsys):
        one = tmp_path / "one_subject"
        one.mkdir()
        for name in os.listdir(feats):
            if name.startswith("s000__"):
                (one / name).write_bytes(open(os.path.join(feats, name), "rb").read())
        rc = run(["eval", *TINY["eval"], "--features", str(one), "--out", str(tmp_path / "e")])
        assert rc == 5
        assert "needs >= 2 subjects" in capsys.readouterr().err

    def test_failed_eval_writes_no_reports(self, feats, tmp_path):
        one = tmp_path / "one_subject"
        one.mkdir()
        for name in os.listdir(feats):
            if name.startswith("s000__"):
                (one / name).write_bytes(open(os.path.join(feats, name), "rb").read())
        out = tmp_path / "e"
        rc = run(["eval", *TINY["eval"], "--features", str(one), "--out", str(out),
                  "--mode", "both"])
        assert rc == 5
        assert not out.exists() or not os.listdir(out)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for root in (out_a, out_b):
            root.mkdir()
            _, feats, models = build_pipeline(root)
            assert run(["generalize", *TINY["generalize"], "--models", models,
                        "--out", str(root / "gen.hdcm")]) == 0
            assert run(["eval", *TINY["eval"], "--features", feats,
                        "--out", str(root / "eval"), "--mode", "both"]) == 0
        for rel in ("cohort/s000__r00.csv", "feats/s002__r01.csv",
                    "models/s001.hdcm", "gen.hdcm",
                    "eval/personalized.csv", "eval/generalized.csv",
                    "eval/personalized_s000.json", "eval/generalized_s002.json"):
            assert filecmp.cmp(out_a / rel, out_b / rel, shallow=False), rel


def test_cli_tree_every_command_exits_0(tmp_path):
    """tests/cli_tree.py, the tree two checkouts are diffed on, runs clean."""
    script = Path(__file__).with_name("cli_tree.py")
    done = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(os.listdir(tmp_path / "log")) == 31


#: the pipeline, each command from the outputs of those before it; a
#: command's output, if it has one, goes to <case dir>/<key>
CHAIN = [
    ("synth --out {cohort}", "cohort"),
    ("features --cohort {cohort} --out {feats}", "feats"),
    ("train --features {feats} --out {models}", "models"),
    ("generalize --models {models} --out {gen}", "gen"),
    ("evolution --models {models} --out {out}/evolution.csv", None),
    ("similarity --models {models} --out {out}/similarity.csv", None),
    ("hybrid --pers {models}/s000.hdcm --gen {gen} --mode NSgen-Spers --out {out}/h.hdcm", None),
    ("eval --mode both --emit-curves --features {feats} --out {out}/eval", None),
    ("transfer --source-models {models} --target-features {feats} --out {out}/tm", None),
    ("transfer --source-features {feats} --target-features {feats} --mode NSgen-Spers "
     "--out {out}/tf", None),
]
#: the chain step that first reads each setting
FIRST_READER = {name: min(i for i, (template, _) in enumerate(CHAIN)
                          if name in READS[template.split()[0]]) for name in SETTINGS}
HOSTILE_BASE = {**TINY_SETTINGS, "repetitions": "2"}
#: Untested: 2**31 for these settings, which would ask for that many
#: dimensions, subjects, records, channels, merge passes or shuffles. They
#: get small values instead.
LONG_RUN = {"dim", "subjects", "records_per_subject", "channels", "iterations", "repetitions"}


def hostile_values(name):
    typ = type(cli.DEFAULTS[name])
    if typ is float:
        return ["nan", "inf", "-inf", "0", "-1", "1e308", "5e-324"]
    if typ is int:
        return ["0", "-1", *(("1", "2") if name in LONG_RUN else ("2147483648", "-2147483648"))]
    return ["", "x"]


def json_leaves(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from json_leaves(item)
    else:
        yield doc


def non_finite_numbers(root):
    """'file: value' for each non-finite number in the CSV and JSON files
    under root; model files must load, which requires finite ranges."""
    bad = []
    for path in sorted(Path(root).rglob("*")):
        if path.suffix == ".csv":
            with path.open(newline="") as fh:
                cells = [cell for row in csv.reader(fh) for cell in row]
        elif path.suffix == ".json":
            cells = list(json_leaves(json.loads(path.read_text())))
        else:
            if path.suffix == ".hdcm" or path.name == "gen":
                load_model(path)
            continue
        for cell in cells:
            try:
                number = float(cell)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(number):
                bad.append(f"{path.relative_to(root)}: {cell}")
    return bad


def run_chain(root, inputs, start, stop, extra=None):
    """Run CHAIN[start:stop] in root, each command with the settings of
    HOSTILE_BASE and `extra` ({name: value}) that it reads; returns the
    exit code that ended it."""
    inputs = dict(inputs)
    for template, key in CHAIN[start:stop]:
        if key:
            inputs[key] = os.path.join(root, key)
        argv = [token.format(out=root, **inputs) for token in template.split()]
        rc = run([argv[0], *flags(HOSTILE_BASE, argv[0]), *argv[1:],
                  *flags(extra or {}, argv[0])])
        if rc:
            return rc
    return 0


class TestHostileSettings:
    """One of the 21 settings at a hostile value, given to each command that
    reads it from the first to the end of the pipeline: the run fails with a usage, config,
    parse or data error, never an internal one (pytest also turns any
    RuntimeWarning into one), or it succeeds and writes only finite numbers."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("hostile_base"))
        assert run_chain(root, {}, 0, 4) == 0
        return {key: os.path.join(root, key) for _, key in CHAIN[:4]}

    def test_every_setting_has_a_reader(self):
        assert set(FIRST_READER) == set(cli.DEFAULTS) and len(cli.DEFAULTS) == 21

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in SETTINGS for value in hostile_values(name)
    ])
    def test_failure_is_typed_and_success_finite(self, tmp_path, inputs, name, value):
        rc = run_chain(str(tmp_path), inputs, FIRST_READER[name], len(CHAIN), {name: value})
        assert rc in (0, 2, 3, 4, 5)
        assert not non_finite_numbers(tmp_path)
