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
from hdseizure.dataio import load_model, read_record, save_model, synthetic_model_cohort
from hdseizure.encoding import build_codebooks
from hdseizure.errors import CorruptModelError, ParseError

TINY = [
    "--subjects", "3", "--records-per-subject", "3",
    "--fs", "64", "--channels", "2",
    "--seizure-sec", "8", "--non-seizure-sec", "8",
    "--window-sec", "4", "--step-sec", "0.5",
    "--dim", "256", "--levels", "8", "--seed", "7",
]


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def build_pipeline(root, extra=()):
    """synth -> features -> train, returning the three directories."""
    cohort = str(root / "cohort")
    feats = str(root / "feats")
    models = str(root / "models")
    assert run(["synth", *TINY, *extra, "--out", cohort]) == 0
    assert run(["features", *TINY, *extra, "--cohort", cohort, "--out", feats]) == 0
    assert run(["train", *TINY, *extra, "--features", feats, "--out", models]) == 0
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

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith("CONFIG:")

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
        assert run(["generalize", *TINY, "--models", models, "--out", gen]) == 0
        merged, _ = load_model(gen)
        assert merged.kind == "generalized"

        mats = str(tmp_path / "mats.csv")
        assert run(["similarity", *TINY, "--models", models, "--out", mats]) == 0
        assert os.path.exists(mats)

        evo = str(tmp_path / "evo.csv")
        assert run(["evolution", *TINY, "--repetitions", "3",
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
        assert run(["eval", *TINY, "--repetitions", "3", "--features", feats,
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
        rc = run(["eval", *TINY, "--features", feats,
                  "--out", str(tmp_path / "e"), "--mode", "personalized",
                  "--emit-curves"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("CONFIG:")

    def test_transfer_matches_loso_on_same_cohort(self, tmp_path):
        _, feats, _ = build_pipeline(tmp_path)
        gen_out = str(tmp_path / "eval")
        assert run(["eval", *TINY, "--features", feats, "--out", gen_out,
                    "--mode", "generalized"]) == 0
        tr_out = str(tmp_path / "transfer")
        assert run(["transfer", *TINY, "--source-features", feats,
                    "--target-features", feats, "--mode", "generalized",
                    "--out", tr_out]) == 0
        loso = open(os.path.join(gen_out, "generalized.csv")).read()
        degenerate = open(os.path.join(tr_out, "transfer_generalized.csv")).read()
        assert degenerate == loso

    def test_transfer_from_pretrained_models(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        out = str(tmp_path / "transfer")
        assert run(["transfer", *TINY, "--source-models", models,
                    "--target-features", feats, "--mode", "NSgen-Spers",
                    "--out", out]) == 0
        assert "transfer: NSgen-Spers onto 3 subjects" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "transfer_NSgen-Spers.csv"))

    def test_generalize_avrg_single_subject_identity(self, tmp_path):
        _, _, models = build_pipeline(tmp_path)
        solo = tmp_path / "solo"
        solo.mkdir()
        (solo / "s000.hdcm").write_bytes(
            (tmp_path / "models" / "s000.hdcm").read_bytes()
        )
        out = str(tmp_path / "solo.hdcm")
        assert run(["generalize", *TINY, "--method", "avrg",
                    "--models", str(solo), "--out", out]) == 0
        merged, _ = load_model(out)
        original, _ = load_model(str(solo / "s000.hdcm"))
        assert merged.seizure == original.seizure
        assert merged.non_seizure == original.non_seizure
        assert merged.kind == "generalized"


class TestErrorPaths:
    def test_missing_cohort_dir_is_data_error(self, tmp_path, capsys):
        rc = run(["features", *TINY, "--cohort", str(tmp_path / "nope"),
                  "--out", str(tmp_path / "f")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("DATA:")

    def test_malformed_record_is_parse_error(self, tmp_path, capsys):
        d = tmp_path / "cohort"
        d.mkdir()
        (d / "s000__r00.csv").write_text("time_s,c1,label\n0.0,1.0,0\n0.5,x,1\n")
        rc = run(["features", *TINY, "--cohort", str(d), "--out", str(tmp_path / "f")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("PARSE:")
        assert "line 3" in err

    def test_subject_without_seizures_is_named(self, tmp_path, capsys):
        cohort, feats = str(tmp_path / "cohort"), str(tmp_path / "feats")
        assert run(["synth", *TINY, "--out", cohort]) == 0
        for path in Path(cohort).glob("s001__*.csv"):
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0], *(l.rsplit(",", 1)[0] + ",0" for l in lines[1:])]) + "\n")
        assert run(["features", *TINY, "--cohort", cohort, "--out", feats]) == 0
        for command in (["train"], ["eval", "--mode", "both"]):
            capsys.readouterr()
            assert run([*command, *TINY, "--features", feats, "--out", str(tmp_path / "o")]) == 5
            assert capsys.readouterr().err.startswith("DATA: no seizure samples for subject 's001'")

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "models"
        d.mkdir()
        (d / "bad.hdcm").write_bytes(b"JUNKJUNKJUNKJUNK")
        rc = run(["generalize", *TINY, "--models", str(d),
                  "--out", str(tmp_path / "g.hdcm")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("DATA:")

    def test_empty_model_dir_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "models"
        d.mkdir()
        rc = run(["generalize", *TINY, "--models", str(d),
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
        assert run(["train", *TINY, "--levels", "6", "--features", feats,
                    "--out", str(other)]) == 0
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "a.hdcm").write_bytes((tmp_path / "models" / "s000.hdcm").read_bytes())
        (mixed / "b.hdcm").write_bytes((other / "s001.hdcm").read_bytes())
        rc = run(["generalize", *TINY, "--models", str(mixed),
                  "--out", str(tmp_path / "g.hdcm")])
        assert rc == 5
        assert "different encoder" in capsys.readouterr().err

    def test_flipped_id_bit_is_data_error(self, tmp_path, capsys):
        _, _, models = build_pipeline(tmp_path)
        path = tmp_path / "models" / "s001.hdcm"
        path.write_bytes(with_encoder_fault(path.read_bytes(), "ID bit"))
        with pytest.raises(CorruptModelError, match="ID 0 vector"):
            load_model(path)
        rc = run(["generalize", *TINY, "--models", models, "--out", str(tmp_path / "g.hdcm")])
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
        rc = run(["transfer", *TINY, "--source-models", str(bad),
                  "--target-features", feats, "--out", str(tmp_path / "t")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "level 0 vector is not the one encoder" in err

    def test_only_personalized_models_form_a_cohort(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        gen = os.path.join(models, "gen.hdcm")
        assert run(["generalize", *TINY, "--models", models, "--out", gen]) == 0
        out = str(tmp_path / "out")
        for argv in (["generalize", "--models", models, "--out", out],
                     ["evolution", "--repetitions", "2", "--models", models, "--out", out],
                     ["similarity", "--models", models, "--out", out],
                     ["transfer", "--source-models", models, "--target-features", feats,
                      "--out", out]):
            capsys.readouterr()
            assert run([*argv[:1], *TINY, *argv[1:]]) == 5
            err = capsys.readouterr().err
            assert err.startswith("DATA:") and "subject '' is a generalized model" in err
            assert not os.path.exists(out)
        # a lone generalized source model is used as it is
        solo = tmp_path / "solo"
        solo.mkdir()
        os.replace(gen, solo / "gen.hdcm")
        assert run(["transfer", *TINY, "--source-models", str(solo),
                    "--target-features", feats, "--out", out]) == 0

    def test_irregular_time_column_is_parse_error(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        assert run(["synth", *TINY, "--out", str(cohort)]) == 0
        path = cohort / "s001__r02.csv"
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:100] + lines[104:]))  # a 4-sample gap
        rc = run(["features", *TINY, "--cohort", str(cohort), "--out", str(tmp_path / "f")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("PARSE:") and "line 101" in err and "time column" in err


    def test_rate_too_low_for_features_is_data_error(self, tmp_path, capsys):
        cohort = str(tmp_path / "cohort")
        assert run(["synth", *TINY, "--fs", "32", "--out", cohort]) == 0
        rc = run(["features", *TINY, "--fs", "32", "--cohort", cohort,
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
        assert run(["features", "--fs", "64", "--window-sec", "4", "--cohort", cohort,
                    "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("DATA: channel 'FP1-F7' has a sample of magnitude")
            assert "256-sample window overflow" in err
            assert not out.exists()
        else:
            assert err == ""

    @pytest.mark.parametrize("flag, value", [
        ("--step-sec", "0"), ("--step-sec", "0.001"), ("--window-sec", "0"), ("--step-sec", "-0.5"),
    ])
    def test_window_or_step_below_one_sample_is_config_error(self, tmp_path, capsys, flag, value):
        cohort = str(tmp_path / "cohort")
        assert run(["synth", *TINY, "--subjects", "1", "--out", cohort]) == 0
        out = tmp_path / "f"
        rc = run(["features", *TINY, flag, value, "--cohort", cohort, "--out", str(out)])
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
        rc = run(["synth", *TINY, flag, value, "--out", str(out)])
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
        rc = run(["synth", *TINY, flag, value, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            f"CONFIG: {name} must be finite and at least one sample")
        assert not out.exists()

    def test_hybrid_parents_swapped_is_data_error(self, tmp_path, capsys):
        _, _, models = build_pipeline(tmp_path)
        gen = str(tmp_path / "gen.hdcm")
        assert run(["generalize", *TINY, "--models", models, "--out", gen]) == 0
        rc = run(["hybrid", *TINY, "--pers", gen, "--gen", os.path.join(models, "s000.hdcm"),
                  "--mode", "NSgen-Spers", "--out", str(tmp_path / "h.hdcm")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "must be a personalized model" in err


class TestEncoderRowsAtLoad:
    """Every command that loads model files rejects one whose level or ID
    rows are not the ones its encoder key draws, before it writes."""

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("encoder_rows")
        _, feats, models = build_pipeline(root)
        gen = str(root / "gen.hdcm")
        assert run(["generalize", *TINY, "--models", models, "--out", gen]) == 0
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
            "transfer": ["transfer", *TINY, "--source-models", str(bad),
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
        assert run(["synth", *TINY, "--out", cohort]) == 0
        assert run(["features", *TINY, "--cohort", cohort, "--out", feats]) == 0
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

    def test_non_finite_alpha_is_config_error(self, feats, tmp_path, capsys):
        rc = run(["train", *TINY, "--alpha", "inf", "--features", feats,
                  "--out", str(tmp_path / "m")])
        assert rc == 3
        assert "alpha must be finite" in capsys.readouterr().err

    def test_nan_feature_is_data_error(self, feats, tmp_path, capsys):
        def nan_cell(i, line):
            if i != 3:
                return line
            cells = line.split(",")
            cells[4] = "nan"
            return ",".join(cells)

        bad = self.edited_copy(feats, tmp_path / "nan_feats", nan_cell)
        rc = run(["eval", *TINY, "--features", bad, "--out", str(tmp_path / "e")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "non-finite" in err

    def test_feature_count_mismatch_is_data_error(self, feats, tmp_path, capsys):
        def drop_last_column(i, line):
            return line.rstrip("\r\n").rsplit(",", 1)[0] + "\n"

        bad = self.edited_copy(feats, tmp_path / "short_feats", drop_last_column)
        for command in (["eval", "--features", bad, "--out", str(tmp_path / "e")],
                        ["train", "--features", bad, "--out", str(tmp_path / "m")]):
            rc = run([command[0], *TINY, *command[1:]])
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
            rc = run([command[0], *TINY, *command[1:]])
            assert rc == 4, command[0]
            err = capsys.readouterr().err
            assert err.startswith("PARSE:") and "line 4: label must be 0 or 1" in err

    def test_header_only_features_is_parse_error(self, feats, tmp_path, capsys):
        bad = self.edited_copy(feats, tmp_path / "no_rows", lambda i, line: line if i == 0 else "")
        rc = run(["eval", *TINY, "--features", bad, "--out", str(tmp_path / "e")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("PARSE:") and "no window rows" in err

    def test_step_mismatch_is_data_error(self, feats, tmp_path, capsys):
        # features extracted at a 1 s step, evaluated at TINY's 0.5 s
        cohort, wide, models = (str(tmp_path / n) for n in ("cohort", "wide", "models"))
        assert run(["synth", *TINY, "--out", cohort]) == 0
        assert run(["features", *TINY, "--step-sec", "1", "--cohort", cohort, "--out", wide]) == 0
        assert run(["train", *TINY, "--features", feats, "--out", models]) == 0
        out = tmp_path / "out"
        for command in (["eval", "--features", wide],
                        ["transfer", "--source-features", wide, "--target-features", feats],
                        ["transfer", "--source-models", models, "--target-features", wide]):
            rc = run([command[0], *TINY, *command[1:], "--out", str(out)])
            assert rc == 5, command
            err = capsys.readouterr().err
            assert err.startswith("DATA: " + os.path.join(wide, "s000__r00.csv"))
            assert "windows start 1 s apart, but step_sec is 0.5 s" in err
            assert not out.exists()
        assert run(["eval", *TINY, "--step-sec", "1", "--mode", "personalized",
                    "--features", wide, "--out", str(out)]) == 0
        # 0.3 s rounds to 19 samples at 64 Hz, a step 1.04 % short, which passes
        odd = str(tmp_path / "odd")
        assert run(["features", *TINY, "--step-sec", "0.3", "--cohort", cohort, "--out", odd]) == 0
        assert run(["transfer", *TINY, "--step-sec", "0.3", "--source-models", models,
                    "--target-features", odd, "--out", str(tmp_path / "t")]) == 0

    @pytest.mark.parametrize("thresholds", ["0:1:0", "0:1:-2", "0.5,x", "0.5,nan", "0:inf:3"])
    def test_bad_sweep_thresholds_fail_before_cross_validation(
            self, feats, tmp_path, capsys, monkeypatch, thresholds):
        def not_reached(*args, **kwargs):
            pytest.fail("cross-validation ran before sweep_thresholds was checked")

        monkeypatch.setattr(cli, "cv_personalized", not_reached)
        out = tmp_path / "e"
        rc = run(["eval", *TINY, "--sweep-thresholds", thresholds, "--emit-curves",
                  "--features", feats, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("CONFIG: sweep_thresholds expects")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--bayes-threshold", "nan"), ("--bayes-threshold", "inf"),
        ("--bayes-window-sec", "inf"), ("--bayes-window-sec", "nan"),
        ("--movavg-window-sec", "inf"), ("--movavg-window-sec", "nan"),
        ("--step-sec", "inf"),
    ])
    def test_non_finite_postprocessing_fails_before_any_fold(
            self, feats, tmp_path, capsys, monkeypatch, flag, value):
        def not_reached(*args, **kwargs):
            pytest.fail("a fold ran before the postprocessing settings were checked")

        for name in ("cv_personalized", "cv_generalized", "transfer_eval"):
            monkeypatch.setattr(cli, name, not_reached)
        name = flag[2:].replace("-", "_")
        out = tmp_path / "out"
        for command in (["eval", "--features", feats],
                        ["transfer", "--source-features", feats, "--target-features", feats]):
            rc = run([command[0], *TINY, flag, value, *command[1:], "--out", str(out)])
            assert rc == 3, command[0]
            assert capsys.readouterr().err.startswith(f"CONFIG: {name} must be finite and > 0")
            assert not out.exists()

    @pytest.mark.parametrize("flag", ["--bayes-window-sec", "--movavg-window-sec"])
    def test_huge_postprocessing_window_runs(self, feats, tmp_path, flag):
        # the window spans every series whole; its ratio to the step overflows
        rc = run(["eval", *TINY, flag, "1e308", "--features", feats, "--out", str(tmp_path / "e")])
        assert rc == 0

    def test_overflowing_alpha_is_config_error(self, feats, tmp_path):
        # run apart, so that a numpy overflow warning would be an error, not a pass
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "e"
        proc = subprocess.run(
            [sys.executable, "-m", "hdseizure.cli", "eval", *TINY, "--alpha", "1e308",
             "--features", feats, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 3, proc.stderr
        assert "\nCONFIG: the alpha weights overflow float64" in "\n" + proc.stderr
        assert not out.exists()

    def test_one_subject_is_data_error(self, feats, tmp_path, capsys):
        one = tmp_path / "one_subject"
        one.mkdir()
        for name in os.listdir(feats):
            if name.startswith("s000__"):
                (one / name).write_bytes(open(os.path.join(feats, name), "rb").read())
        rc = run(["eval", *TINY, "--features", str(one), "--out", str(tmp_path / "e")])
        assert rc == 5
        assert "needs >= 2 subjects" in capsys.readouterr().err

    def test_failed_eval_writes_no_reports(self, feats, tmp_path):
        one = tmp_path / "one_subject"
        one.mkdir()
        for name in os.listdir(feats):
            if name.startswith("s000__"):
                (one / name).write_bytes(open(os.path.join(feats, name), "rb").read())
        out = tmp_path / "e"
        rc = run(["eval", *TINY, "--features", str(one), "--out", str(out), "--mode", "both"])
        assert rc == 5
        assert not out.exists() or not os.listdir(out)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for root in (out_a, out_b):
            root.mkdir()
            _, feats, models = build_pipeline(root)
            assert run(["generalize", *TINY, "--models", models,
                        "--out", str(root / "gen.hdcm")]) == 0
            assert run(["eval", *TINY, "--features", feats,
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
FIRST_READER = {
    **dict.fromkeys(["subjects", "records_per_subject", "fs", "channels", "seizure_sec",
                     "non_seizure_sec", "shared_background_weight", "seizure_freq_min",
                     "seizure_freq_max", "seizure_amp_gain", "seed"], 0),
    **dict.fromkeys(["window_sec", "step_sec"], 1),
    **dict.fromkeys(["dim", "levels", "train_mode", "alpha", "epochs"], 2),
    **dict.fromkeys(["method", "alpha_corr", "alpha_wrong", "iterations",
                     "wrong_weight_convention"], 3),
    "repetitions": 4,
    **dict.fromkeys(["bayes_window_sec", "bayes_threshold", "movavg_window_sec",
                     "sweep_thresholds"], 7),
}
HOSTILE_BASE = [
    "--subjects", "3", "--records-per-subject", "3", "--fs", "64", "--channels", "2",
    "--seizure-sec", "8", "--non-seizure-sec", "8", "--window-sec", "4", "--step-sec", "0.5",
    "--dim", "256", "--levels", "8", "--seed", "7", "--repetitions", "2",
    "--sweep-thresholds", "0:1:3",
]
#: Untested: 2**31 for these settings, which would ask for that many
#: dimensions, subjects, records, channels, epochs, merge passes or shuffles,
#: and a sweep_thresholds count of 2**31. They get small values instead.
LONG_RUN = {"dim", "subjects", "records_per_subject", "channels", "epochs", "iterations",
            "repetitions"}


def hostile_values(name):
    typ = cli.SETTINGS[name][0]
    if typ is float:
        return ["nan", "inf", "-inf", "0", "-1", "1e308", "5e-324"]
    if typ is int:
        return ["0", "-1", *(("1", "2") if name in LONG_RUN else ("2147483648", "-2147483648"))]
    if name == "sweep_thresholds":
        return ["nan:1:3", "0:inf:3", "-1e308:1e308:3", "0:1:0", "0:1:-1", "", "0,nan",
                "5e-324", "1e308"]
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


def run_chain(root, inputs, start, stop, extra=()):
    """Run CHAIN[start:stop] in root; returns the exit code that ended it."""
    inputs = dict(inputs)
    for template, key in CHAIN[start:stop]:
        if key:
            inputs[key] = os.path.join(root, key)
        argv = [token.format(out=root, **inputs) for token in template.split()]
        rc = run([argv[0], *HOSTILE_BASE, *argv[1:], *extra])
        if rc:
            return rc
    return 0


class TestHostileSettings:
    """One of the 28 settings at a hostile value, from the first command that
    reads it to the end of the pipeline: the run fails with a usage, config,
    parse or data error, never an internal one (pytest also turns any
    RuntimeWarning into one), or it succeeds and writes only finite numbers."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("hostile_base"))
        assert run_chain(root, {}, 0, 4) == 0
        return {key: os.path.join(root, key) for _, key in CHAIN[:4]}

    def test_every_setting_has_a_reader(self):
        assert set(FIRST_READER) == set(cli.SETTINGS) and len(cli.SETTINGS) == 28

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in cli.SETTINGS for value in hostile_values(name)
    ])
    def test_failure_is_typed_and_success_finite(self, tmp_path, inputs, name, value):
        flag = f"--{name.replace('_', '-')}={value}"
        rc = run_chain(str(tmp_path), inputs, FIRST_READER[name], len(CHAIN), [flag])
        assert rc in (0, 2, 3, 4, 5)
        assert not non_finite_numbers(tmp_path)
