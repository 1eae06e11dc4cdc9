import math

import numpy as np
import pytest
from oracles import transfer_oracle

from hdseizure import evaluation
from hdseizure.errors import IncompatibleModelsError, InsufficientDataError
from hdseizure.evaluation import (
    EvalConfig,
    bayes_postprocess,
    cv_generalized,
    cv_personalized,
    duration_metrics,
    episode_metrics,
    moving_average_postprocess,
    per_subject_scores,
    summarize,
    transfer_eval,
)
from hdseizure.features import FeatureMatrix
from hdseizure.generalization import MergeConfig
from hdseizure.training import TrainConfig


# ---- brute-force references, written straight from the definitions ----

def duration_oracle(pred, truth):
    tp = fp = fn = 0
    for p, t in zip(pred, truth):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif t and not p:
            fn += 1
    tpr = 1.0 if tp + fn == 0 else tp / (tp + fn)
    ppv = 1.0 if tp + fp == 0 else tp / (tp + fp)
    f1 = 0.0 if tpr + ppv == 0 else 2 * tpr * ppv / (tpr + ppv)
    return tpr, ppv, f1


def episodes_of(seq):
    eps, start = [], None
    for i, v in enumerate(seq):
        if v and start is None:
            start = i
        if not v and start is not None:
            eps.append((start, i - 1))
            start = None
    if start is not None:
        eps.append((start, len(seq) - 1))
    return eps


def episode_oracle(pred, truth):
    pe, te = episodes_of(pred), episodes_of(truth)

    def overlaps(a, b):
        return a[0] <= b[1] and b[0] <= a[1]

    detected = sum(1 for t in te if any(overlaps(t, p) for p in pe))
    correct = sum(1 for p in pe if any(overlaps(p, t) for t in te))
    tpr = 1.0 if not te else detected / len(te)
    ppv = 1.0 if not pe else correct / len(pe)
    f1 = 0.0 if tpr + ppv == 0 else 2 * tpr * ppv / (tpr + ppv)
    return tpr, ppv, f1


def bayes_oracle(p, window_sec, threshold, step_sec):
    width = math.ceil(window_sec / step_sec)
    p = [min(max(v, 1e-6), 1 - 1e-6) for v in p]
    out = []
    for t in range(len(p)):
        prod = 1.0
        for v in p[max(0, t - width + 1) : t + 1]:
            prod *= v / (1 - v)
        out.append(1 if prod >= threshold else 0)
    return out


def movavg_oracle(pred, window_sec, step_sec):
    width = math.ceil(window_sec / step_sec)
    out = []
    for t in range(len(pred)):
        lo = max(0, t - (width - 1) // 2)
        hi = min(len(pred) - 1, t + width // 2)
        votes = pred[lo : hi + 1]
        out.append(1 if 2 * sum(votes) > len(votes) else 0)
    return out


class TestDurationMetrics:
    def test_hand_counted(self):
        # tp=1 fp=1 fn=0 -> tpr 1, ppv 0.5, f1 2/3
        tpr, ppv, f1 = duration_metrics([0, 1, 1, 0], [0, 1, 0, 0])
        assert tpr == 1.0
        assert ppv == 0.5
        assert f1 == pytest.approx(2 / 3)

    def test_perfect(self):
        assert duration_metrics([0, 1, 1], [0, 1, 1]) == (1.0, 1.0, 1.0)

    def test_no_truth_events(self):
        tpr, ppv, f1 = duration_metrics([0, 0, 0], [0, 0, 0])
        assert (tpr, ppv, f1) == (1.0, 1.0, 1.0)

    def test_no_predictions_with_truth(self):
        tpr, ppv, f1 = duration_metrics([0, 0, 0], [0, 1, 1])
        assert tpr == 0.0
        assert ppv == 1.0
        assert f1 == 0.0

    def test_all_false_positives(self):
        tpr, ppv, f1 = duration_metrics([1, 1], [0, 0])
        assert tpr == 1.0  # nothing to detect
        assert ppv == 0.0
        assert f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            duration_metrics([0, 1], [0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            duration_metrics([0, 2], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            duration_metrics([], [])


class TestEpisodeMetrics:
    def test_single_overlap(self):
        # one truth episode, one touching prediction
        tpr, ppv, f1 = episode_metrics([0, 0, 1, 1, 0], [0, 1, 1, 0, 0])
        assert (tpr, ppv, f1) == (1.0, 1.0, 1.0)

    def test_split_prediction_counts_once(self):
        # two predicted episodes inside one truth episode: tpr 1, ppv 1
        truth = [0, 1, 1, 1, 1, 1, 0]
        pred = [0, 1, 0, 0, 1, 1, 0]
        assert episode_metrics(pred, truth) == (1.0, 1.0, 1.0)

    def test_false_episode(self):
        truth = [0, 1, 1, 0, 0, 0]
        pred = [0, 1, 0, 0, 1, 0]
        tpr, ppv, _ = episode_metrics(pred, truth)
        assert tpr == 1.0
        assert ppv == 0.5

    def test_missed_episode(self):
        truth = [1, 1, 0, 0, 1, 1]
        pred = [1, 0, 0, 0, 0, 0]
        tpr, ppv, _ = episode_metrics(pred, truth)
        assert tpr == 0.5
        assert ppv == 1.0

    def test_empty_sides(self):
        assert episode_metrics([0, 0], [0, 0]) == (1.0, 1.0, 1.0)
        assert episode_metrics([0, 1], [0, 0])[1] == 0.0
        assert episode_metrics([0, 0], [1, 0])[0] == 0.0

    def test_runs_at_boundaries(self):
        tpr, ppv, f1 = episode_metrics([1, 0, 0, 1], [1, 0, 0, 1])
        assert (tpr, ppv, f1) == (1.0, 1.0, 1.0)


class TestAgainstBruteForce:
    def test_random_sequences_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            # mix dense and sparse event patterns
            p_one = rng.uniform(0.05, 0.8)
            pred = (rng.random(n) < p_one).astype(int)
            truth = (rng.random(n) < rng.uniform(0.05, 0.8)).astype(int)
            assert duration_metrics(pred, truth) == duration_oracle(pred, truth)
            assert episode_metrics(pred, truth) == episode_oracle(pred, truth)


class TestBayesPostprocess:
    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(0.01, 0.99, size=int(rng.integers(1, 60)))
            got = bayes_postprocess(p, 5.0, 1.5, 0.5)
            assert got.tolist() == bayes_oracle(p, 5.0, 1.5, 0.5)

    def test_confident_sequence_all_on(self):
        out = bayes_postprocess(np.full(12, 0.9), 5.0, 1.5, 0.5)
        assert out.tolist() == [1] * 12

    def test_uninformative_sequence_all_off(self):
        out = bayes_postprocess(np.full(12, 0.5), 5.0, 1.5, 0.5)
        assert out.tolist() == [0] * 12

    def test_window_grows_from_single_entry(self):
        # first output depends only on the first probability
        p = np.array([0.9, 0.01, 0.01, 0.01])
        out = bayes_postprocess(p, 5.0, 1.5, 0.5)
        assert out[0] == 1
        assert out[-1] == 0

    def test_extreme_probabilities_clipped(self):
        out = bayes_postprocess(np.array([1.0, 0.0, 1.0]), 2.0, 1.5, 0.5)
        assert set(out.tolist()) <= {0, 1}

    def test_invalid_arguments(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            bayes_postprocess(p, 0.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            bayes_postprocess(p, 5.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            bayes_postprocess(p, 5.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            bayes_postprocess(np.array([]), 5.0, 1.5, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["window_sec", "threshold", "step_sec"])
    def test_non_finite_arguments_named(self, name, value):
        kw = dict(window_sec=5.0, threshold=1.5, step_sec=0.5)
        kw[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            bayes_postprocess(np.array([0.9, 0.1]), **kw)


    def test_huge_window_equals_capped_width(self):
        p = np.random.default_rng(4).uniform(0.01, 0.99, 40)
        capped = bayes_postprocess(p, 2 * p.size * 0.5, 1.5, 0.5)
        assert bayes_postprocess(p, 1e3, 1.5, 0.5).tolist() == capped.tolist()
        assert bayes_postprocess(p, 1e308, 1.5, 0.5).tolist() == capped.tolist()
        assert bayes_postprocess([0.5, 0.6], 1e308, 1.5, 0.5).tolist() == \
            bayes_postprocess([0.5, 0.6], 2.0, 1.5, 0.5).tolist()


class TestMovingAverage:
    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pred = rng.integers(0, 2, size=int(rng.integers(1, 60)))
            got = moving_average_postprocess(pred, 5.0, 0.5)
            assert got.tolist() == movavg_oracle(pred.tolist(), 5.0, 0.5)

    def test_fills_short_gap(self):
        pred = [1, 1, 1, 0, 1, 1, 1]
        out = moving_average_postprocess(pred, 1.5, 0.5)  # width 3
        assert out.tolist() == [1, 1, 1, 1, 1, 1, 1]

    def test_removes_isolated_spike(self):
        pred = [0, 0, 0, 1, 0, 0, 0]
        out = moving_average_postprocess(pred, 1.5, 0.5)
        assert out.tolist() == [0] * 7

    def test_tie_goes_to_zero(self):
        # width 2: window [t-0, t+1] has a 50/50 split at the boundary
        pred = [0, 1, 1, 0]
        out = moving_average_postprocess(pred, 1.0, 0.5)
        assert out.tolist() == movavg_oracle(pred, 1.0, 0.5)
        assert out[0] == 0  # one vote of two -> tie -> 0

    def test_edges_shrink(self):
        pred = [1, 0, 0, 0, 0, 0, 1]
        out = moving_average_postprocess(pred, 5.0, 0.5)
        # width 10 swallows everything; 2 of <=10 votes never wins
        assert out.tolist() == [0] * 7

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            moving_average_postprocess([0, 1], -1.0, 0.5)
        with pytest.raises(ValueError):
            moving_average_postprocess([0, 1], 5.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["window_sec", "step_sec"])
    def test_non_finite_arguments_named(self, name, value):
        kw = dict(window_sec=5.0, step_sec=0.5)
        kw[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            moving_average_postprocess([0, 1], **kw)


    def test_huge_window_equals_capped_width(self):
        pred = np.random.default_rng(5).integers(0, 2, 40)
        capped = moving_average_postprocess(pred, 2 * pred.size * 0.5, 0.5)
        assert moving_average_postprocess(pred, 1e3, 0.5).tolist() == capped.tolist()
        assert moving_average_postprocess(pred, 1e308, 0.5).tolist() == capped.tolist()
        assert moving_average_postprocess([0, 1], 1e308, 0.5).tolist() == \
            moving_average_postprocess([0, 1], 2.0, 0.5).tolist()


class TestEvalConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_postprocessing_settings_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="^step_sec must be finite and > 0"):
            EvalConfig(step_sec=value)


# ---- protocol tests on small synthetic feature cohorts ----

NFEAT = 8


def make_subject(rng, subject_id, num_records=3, ns_windows=30, s_windows=10,
                 sep=4.0, noise=1.0, mu_ns=None, mu_s=None):
    if mu_ns is None:
        mu_ns = rng.normal(0.0, 1.0, NFEAT)
    if mu_s is None:
        mu_s = mu_ns + sep / math.sqrt(NFEAT)
    records = []
    for r in range(num_records):
        labels = np.concatenate(
            [np.zeros(ns_windows, np.uint8), np.ones(s_windows, np.uint8)]
        )
        values = rng.normal(mu_ns, noise, (labels.size, NFEAT))
        values[labels == 1] = rng.normal(mu_s, noise, (s_windows, NFEAT))
        records.append(
            FeatureMatrix(
                values=values,
                window_labels=labels,
                window_start_sec=np.arange(labels.size) * 0.5,
                feature_names=[f"c0:f{i}" for i in range(NFEAT)],
                record_id=f"{subject_id}-r{r}",
                subject_id=subject_id,
            )
        )
    return records


def small_cfg(**kw):
    defaults = dict(
        dim=256,
        num_levels=8,
        seed=5,
        train=TrainConfig(mode="online", seed=5),
        merge=MergeConfig(),
    )
    defaults.update(kw)
    return EvalConfig(**defaults)


class TestCvPersonalized:
    def test_separable_subject_perfect_episodes(self):
        rng = np.random.default_rng(0)
        records = make_subject(rng, "p1", sep=8.0, noise=0.5)
        report = cv_personalized(records, small_cfg())
        assert report.subject_id == "p1"
        assert report.model_kind == "personalized"
        assert report.metrics["episode.raw.f1"] == 1.0
        assert report.metrics["duration.raw.f1"] > 0.9

    def test_every_window_predicted_once(self):
        rng = np.random.default_rng(1)
        records = make_subject(rng, "p2", num_records=4)
        report = cv_personalized(records, small_cfg())
        total = sum(r.num_windows for r in records)
        assert report.truth.size == total
        for stage in ("raw", "bayes", "movavg"):
            assert report.predictions[stage].size == total
        assert report.p_seizure.size == total
        # truth is the records' labels in original order
        expect = np.concatenate([r.window_labels for r in records])
        assert np.array_equal(report.truth, expect)

    def test_metrics_in_unit_interval(self):
        rng = np.random.default_rng(2)
        records = make_subject(rng, "p3", sep=1.0, noise=2.0)
        report = cv_personalized(records, small_cfg())
        assert len(report.metrics) == 18
        for value in report.metrics.values():
            assert 0.0 <= value <= 1.0

    def test_shuffled_labels_near_chance(self):
        # destroy the feature/label link; duration sensitivity should sit
        # near the seizure prevalence classifier's chance band
        f1s = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            records = make_subject(rng, "p4", sep=6.0)
            for fm in records:
                rng.shuffle(fm.values, axis=0)
            report = cv_personalized(records, small_cfg(seed=seed))
            f1s.append(report.metrics["duration.raw.f1"])
        assert abs(float(np.mean(f1s)) - 0.25) < 0.15

    def test_requires_three_records(self):
        rng = np.random.default_rng(3)
        records = make_subject(rng, "p5", num_records=2)
        with pytest.raises(InsufficientDataError):
            cv_personalized(records, small_cfg())

    def test_records_disagreeing_on_feature_count_rejected(self):
        rng = np.random.default_rng(5)
        records = make_subject(rng, "p7")
        fm = records[1]
        records[1] = FeatureMatrix(
            values=fm.values[:, :-1],
            window_labels=fm.window_labels,
            window_start_sec=fm.window_start_sec,
            feature_names=fm.feature_names[:-1],
            record_id=fm.record_id,
            subject_id=fm.subject_id,
        )
        with pytest.raises(IncompatibleModelsError, match="feature count"):
            cv_personalized(records, small_cfg())

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        records = make_subject(rng, "p6")
        a = cv_personalized(records, small_cfg())
        b = cv_personalized(records, small_cfg())
        assert a.metrics == b.metrics
        assert np.array_equal(a.predictions["raw"], b.predictions["raw"])


def make_cohort(rng, n, prefix="s", **kw):
    return [make_subject(rng, f"{prefix}{i}", **kw) for i in range(n)]


class TestCvGeneralized:
    def test_report_per_subject(self):
        rng = np.random.default_rng(10)
        cohort = make_cohort(rng, 3)
        reports = cv_generalized(cohort, small_cfg())
        assert [r.subject_id for r in reports] == ["s0", "s1", "s2"]
        assert all(r.model_kind == "generalized" for r in reports)

    def test_identical_subjects_match_personalized(self):
        # clones of one subject: the merged model of the others should do
        # about as well as the subject's own model
        rng = np.random.default_rng(11)
        mu_ns = rng.normal(0.0, 1.0, NFEAT)
        mu_s = mu_ns + 6.0 / math.sqrt(NFEAT)
        cohort = [
            make_subject(rng, f"t{i}", mu_ns=mu_ns, mu_s=mu_s, noise=0.8)
            for i in range(4)
        ]
        cfg = small_cfg()
        gen = cv_generalized(cohort, cfg)
        for subject, gen_report in zip(cohort, gen):
            pers = cv_personalized(subject, cfg)
            delta = abs(
                gen_report.metrics["duration.raw.f1"]
                - pers.metrics["duration.raw.f1"]
            )
            assert delta < 0.05

    def test_requires_two_subjects(self):
        rng = np.random.default_rng(12)
        with pytest.raises(InsufficientDataError):
            cv_generalized(make_cohort(rng, 1), small_cfg())

    def test_unnamed_subjects_get_placeholder_names(self):
        rng = np.random.default_rng(13)
        cohort = make_cohort(rng, 3)
        for recs in cohort:
            for fm in recs:
                fm.subject_id = ""
        cfg = small_cfg()
        assert [r.subject_id for r in cv_generalized(cohort, cfg)] == [
            "subject0", "subject1", "subject2"
        ]
        # no target id to exclude by: every source subject is merged
        reports = transfer_eval(cohort, cohort[:2], "generalized", cfg)
        assert [r.subject_id for r in reports] == ["target", "target"]


    def test_repeated_subject_id_rejected(self):
        rng = np.random.default_rng(14)
        cohort = make_cohort(rng, 2) + [make_subject(rng, "s0")]
        with pytest.raises(IncompatibleModelsError, match="'s0' names more than one subject"):
            cv_generalized(cohort, small_cfg())

    def test_placeholder_name_may_not_repeat_an_id(self):
        rng = np.random.default_rng(15)
        cohort = [make_subject(rng, "subject1"), make_subject(rng, "")]
        with pytest.raises(IncompatibleModelsError, match="'subject1'"):
            cv_generalized(cohort, small_cfg())


class TestProtocolWork:
    """How often each protocol builds codebooks, fits ranges and trains."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build_codebooks": 0, "fit_ranges": 0, "train": 0}
        for name in counts:
            original = getattr(evaluation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        return counts

    def test_loro_trains_once_per_fold(self, calls):
        records = make_subject(np.random.default_rng(30), "p0")
        cv_personalized(records, small_cfg())
        assert calls == {"build_codebooks": 1, "fit_ranges": 3, "train": 3}

    @pytest.mark.parametrize("n", [2, 4])
    def test_loso_trains_every_other_subject_per_fold(self, calls, n):
        cv_generalized(make_cohort(np.random.default_rng(31), n), small_cfg())
        assert calls == {"build_codebooks": 1, "fit_ranges": n, "train": n * (n - 1)}

    def test_hybrid_transfer_trains_source_and_target(self, calls):
        rng = np.random.default_rng(32)
        source = make_cohort(rng, 3, prefix="src")
        target = make_cohort(rng, 2, prefix="tgt")
        transfer_eval(source, target, "NSgen-Spers", small_cfg())
        # one range fit and 3 source models for both targets, then each target's own class
        assert calls == {"build_codebooks": 1, "fit_ranges": 1, "train": 3 + 2}

    def test_shared_id_transfer_trains_each_eligible_set_once(self, calls):
        rng = np.random.default_rng(33)
        source = [make_subject(rng, sid) for sid in ("a", "b", "c")]
        target = [make_subject(rng, sid) for sid in ("a", "x", "y")]
        transfer_eval(source, target, "NSgen-Spers", small_cfg())
        # target a merges [b, c], x and y share [a, b, c]; then each target's own class
        assert calls == {"build_codebooks": 1, "fit_ranges": 2, "train": 2 + 3 + 3}

    @pytest.mark.parametrize("mode", evaluation.TRANSFER_MODES)
    def test_interleaved_eligible_sets_train_once(self, calls, mode):
        rng = np.random.default_rng(34)
        source = [make_subject(rng, sid) for sid in ("a", "b", "c")]
        target = [make_subject(rng, sid) for sid in ("x", "a", "y")]
        transfer_eval(source, target, mode, small_cfg())
        # x and y share [a, b, c] with a between them, a merges [b, c]
        own = len(target) if mode in evaluation.HYBRID_MODES else 0
        assert calls == {"build_codebooks": 1, "fit_ranges": 2, "train": 2 + 3 + own}

    def test_no_eligible_source_rejected_before_any_fold(self, calls):
        rng = np.random.default_rng(35)
        source = [make_subject(rng, "a")]
        target = [make_subject(rng, sid) for sid in ("x", "a")]
        with pytest.raises(InsufficientDataError, match="no source subjects left after exclusion"):
            transfer_eval(source, target, "generalized", small_cfg())
        assert calls == {"build_codebooks": 1, "fit_ranges": 0, "train": 0}


def assert_same_reports(got, want):
    """Byte-identical reports: ids, kinds, metrics, p(seizure) and every
    prediction stage."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.subject_id, a.model_kind) == (b.subject_id, b.model_kind)
        assert a.metrics == b.metrics
        assert a.truth.tobytes() == b.truth.tobytes()
        assert a.p_seizure.tobytes() == b.p_seizure.tobytes()
        assert a.predictions.keys() == b.predictions.keys() == {"raw", "bayes", "movavg"}
        for stage in a.predictions:
            assert a.predictions[stage].tobytes() == b.predictions[stage].tobytes()


class TestTransferMatchesPerTargetLoop:
    """Merging once per distinct eligible source set gives the reports of
    `transfer_oracle`, which trains and merges anew for every target."""

    MODES = list(evaluation.TRANSFER_MODES)

    @pytest.mark.parametrize("mode", MODES)
    def test_disjoint_raw_source(self, mode):
        rng = np.random.default_rng(40)
        source = make_cohort(rng, 3, prefix="src")
        target = make_cohort(rng, 3, prefix="tgt")
        cfg = small_cfg()
        assert_same_reports(transfer_eval(source, target, mode, cfg),
                            transfer_oracle(source, target, mode, cfg))

    @pytest.mark.parametrize("mode", MODES)
    def test_source_sharing_one_target_id(self, mode):
        rng = np.random.default_rng(41)
        source = [make_subject(rng, sid) for sid in ("a", "b", "c")]
        target = [make_subject(rng, sid) for sid in ("a", "x")]
        cfg = small_cfg()
        reports = transfer_eval(source, target, mode, cfg)
        assert [r.subject_id for r in reports] == ["a", "x"]
        assert_same_reports(reports, transfer_oracle(source, target, mode, cfg))

    @pytest.mark.parametrize("mode", MODES)
    def test_interleaved_eligible_sets(self, mode):
        # the fold for [a, b, c] scores x and y, with a's fold between them
        rng = np.random.default_rng(43)
        source = [make_subject(rng, sid) for sid in ("a", "b", "c")]
        target = [make_subject(rng, sid) for sid in ("x", "a", "y")]
        cfg = small_cfg()
        reports = transfer_eval(source, target, mode, cfg)
        assert [r.subject_id for r in reports] == ["x", "a", "y"]
        assert_same_reports(reports, transfer_oracle(source, target, mode, cfg))

    @pytest.mark.parametrize("mode", MODES)
    def test_pretrained_source_models(self, mode):
        rng = np.random.default_rng(42)
        source = [make_subject(rng, sid) for sid in ("a", "b", "c")]
        target = [make_subject(rng, sid) for sid in ("a", "x", "y")]
        cfg = small_cfg()
        books, models = evaluation._train_cohort(source, cfg)
        assert_same_reports(
            transfer_eval(models, target, mode, cfg, source_codebooks=books),
            transfer_oracle(models, target, mode, cfg, source_codebooks=books),
        )


class TestTransferEval:
    def test_degenerate_transfer_equals_loso(self):
        rng = np.random.default_rng(20)
        cohort = make_cohort(rng, 3)
        cfg = small_cfg()
        loso = cv_generalized(cohort, cfg)
        transfer = transfer_eval(cohort, cohort, "generalized", cfg)
        assert len(loso) == len(transfer) == 3
        for a, b in zip(loso, transfer):
            assert a.subject_id == b.subject_id
            assert a.model_kind == b.model_kind == "generalized"
            assert a.metrics == b.metrics
            assert a.p_seizure.tobytes() == b.p_seizure.tobytes()
            assert a.predictions.keys() == b.predictions.keys() == {"raw", "bayes", "movavg"}
            for stage in a.predictions:
                assert a.predictions[stage].tobytes() == b.predictions[stage].tobytes()

    def test_hybrid_mode_trains_target_class(self):
        rng = np.random.default_rng(21)
        source = make_cohort(rng, 3, prefix="src")
        target = make_cohort(rng, 2, prefix="tgt", sep=8.0, noise=0.5)
        cfg = small_cfg()
        reports = transfer_eval(source, target, "NSgen-Spers", cfg)
        assert [r.model_kind for r in reports] == ["NSgen-Spers"] * 2
        for r in reports:
            assert 0.0 <= r.metrics["duration.raw.f1"] <= 1.0

    def test_hybrid_beats_plain_on_disjoint_seizures(self):
        # shared non-seizure statistics, subject-specific seizure clusters
        # far from the source cohort's: swapping in the personal seizure
        # vector must recover sensitivity
        rng = np.random.default_rng(22)
        mu_ns = rng.normal(0.0, 1.0, NFEAT)
        source = [
            make_subject(rng, f"src{i}", mu_ns=mu_ns,
                         mu_s=mu_ns + 5.0 / math.sqrt(NFEAT), noise=0.6)
            for i in range(3)
        ]
        direction = np.zeros(NFEAT)
        direction[0] = -6.0
        target = [
            make_subject(rng, f"tgt{i}", mu_ns=mu_ns, mu_s=mu_ns + direction,
                         noise=0.6)
            for i in range(2)
        ]
        cfg = small_cfg()
        plain = summarize(transfer_eval(source, target, "generalized", cfg))
        hybrid = summarize(transfer_eval(source, target, "NSgen-Spers", cfg))
        assert (
            hybrid["duration.raw.sensitivity"]
            > plain["duration.raw.sensitivity"] + 0.1
        )

    def test_pretrained_models_path(self):
        from hdseizure.encoding import build_codebooks, fit_ranges
        from hdseizure.evaluation import train_personalized

        rng = np.random.default_rng(23)
        source = make_cohort(rng, 3, prefix="src")
        target = make_cohort(rng, 2, prefix="tgt")
        cfg = small_cfg()
        pooled = np.vstack([fm.values for recs in source for fm in recs])
        books = fit_ranges(
            build_codebooks(NFEAT, cfg.num_levels, cfg.dim, cfg.seed), pooled
        )
        models = [
            train_personalized(recs, books, cfg, subject_id=recs[0].subject_id)
            for recs in source
        ]
        reports = transfer_eval(models, target, "generalized", cfg,
                                source_codebooks=books)
        assert len(reports) == 2
        with pytest.raises(IncompatibleModelsError):
            transfer_eval(models, target, "generalized", cfg)

    def test_feature_count_mismatch_rejected(self):
        rng = np.random.default_rng(24)
        source = make_cohort(rng, 2, prefix="src")
        target = make_cohort(rng, 2, prefix="tgt")
        for recs in target:
            for i, fm in enumerate(recs):
                recs[i] = FeatureMatrix(
                    values=fm.values[:, :4],
                    window_labels=fm.window_labels,
                    window_start_sec=fm.window_start_sec,
                    feature_names=fm.feature_names[:4],
                    record_id=fm.record_id,
                    subject_id=fm.subject_id,
                )
        with pytest.raises(IncompatibleModelsError):
            transfer_eval(source, target, "generalized", small_cfg())

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(25)
        cohort = make_cohort(rng, 2)
        with pytest.raises(ValueError):
            transfer_eval(cohort, cohort, "Sgen-NSgen", small_cfg())


class TestEmptyInputs:
    """An empty cohort or a subject without records is named before any fold runs."""

    CASES = {  # case -> (edit of a valid (source, target) pair, message)
        "no source subjects": (lambda s, t: ([], t), "empty source cohort"),
        "one empty source subject": (lambda s, t: ([[]], t), "source subject 0 has no records"),
        "one empty target subject": (lambda s, t: (s, [[]]), "target subject 0 has no records"),
        "an empty source subject among others": (lambda s, t: (s + [[]], t),
                                                 "source subject 2 has no records"),
        "an empty target subject among others": (lambda s, t: (s, t + [[]]),
                                                 "target subject 2 has no records"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_transfer(self, case):
        edit, message = self.CASES[case]
        rng = np.random.default_rng(50)
        source, target = edit(make_cohort(rng, 2, prefix="src"), make_cohort(rng, 2, prefix="tgt"))
        with pytest.raises(InsufficientDataError, match=message):
            transfer_eval(source, target, "generalized", small_cfg())

    def test_cv_generalized_empty_subject(self):
        rec = make_subject(np.random.default_rng(51), "s0")[0]
        with pytest.raises(InsufficientDataError, match="subject 1 has no records"):
            cv_generalized([[rec], []], small_cfg())


class TestSummaries:
    def test_summarize_means(self):
        rng = np.random.default_rng(30)
        cohort = make_cohort(rng, 3)
        reports = cv_generalized(cohort, small_cfg())
        summary = summarize(reports)
        key = "duration.raw.f1"
        assert summary[key] == pytest.approx(
            np.mean([r.metrics[key] for r in reports])
        )
        assert len(summary) == 18

    def test_per_subject_scores_shape(self):
        rng = np.random.default_rng(31)
        cohort = make_cohort(rng, 3)
        reports = cv_generalized(cohort, small_cfg())
        scores = per_subject_scores(reports)
        assert scores["f1_episode"].shape == (3,)
        assert scores["f1_duration"].shape == (3,)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
