import filecmp
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from test_dataio import model_file_bytes, mutated_model_files

from hdseizure import cli
from hdseizure.dataio import load_model, read_record, save_model, synthetic_model_cohort
from hdseizure.encoding import build_codebooks
from hdseizure.errors import CorruptModelError, ParseError

TINY = [
    "--subjects", "3", "--records-per-subject", "3",
    "--fs", "64", "--channels", "2",
    "--seizure-sec", "8", "--non-seizure-sec", "8",
    "--window-sec", "2", "--step-sec", "0.5",
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

    def test_reversed_level_chain_is_data_error(self, tmp_path, capsys):
        _, feats, models = build_pipeline(tmp_path)
        bad = tmp_path / "reversed"
        bad.mkdir()
        for name in sorted(os.listdir(models)):
            model, books = load_model(os.path.join(models, name))
            books.level_vectors.reverse()
            save_model(model, books, str(bad / name))
        rc = run(["transfer", *TINY, "--source-models", str(bad),
                  "--target-features", feats, "--out", str(tmp_path / "t")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "block-flip chain" in err

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

    def test_hybrid_parents_swapped_is_data_error(self, tmp_path, capsys):
        _, _, models = build_pipeline(tmp_path)
        gen = str(tmp_path / "gen.hdcm")
        assert run(["generalize", *TINY, "--models", models, "--out", gen]) == 0
        rc = run(["hybrid", *TINY, "--pers", gen, "--gen", os.path.join(models, "s000.hdcm"),
                  "--mode", "NSgen-Spers", "--out", str(tmp_path / "h.hdcm")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("DATA:") and "must be a personalized model" in err


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
