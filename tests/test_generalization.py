import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdseizure.dataio import synthetic_model_cohort
from hdseizure.errors import DegenerateCohortError, IncompatibleModelsError, InsufficientDataError
from hdseizure.generalization import (
    _SHUFFLE_BATCH,
    EvolutionCurve,
    MergeConfig,
    _merge_step,
    evolution_curve,
    generalize,
    plateau_onset,
    weight_correct,
    weight_wrong,
)
from hdseizure.hypervector import Hypervector, _SignedSums, random_hypervector
from hdseizure.similarity import _cohort_words
from hdseizure.training import ClassModel
from oracles import binarize_oracle, complement, evolution_oracle, merge_oracle


def make_model(seed, dim=64, subject_id="", codebook_ref=""):
    return ClassModel.from_vectors(
        seizure=random_hypervector(seed, 0, dim),
        non_seizure=random_hypervector(seed, 1, dim),
        subject_id=subject_id,
        codebook_ref=codebook_ref,
    )


def flip_cohort(n, dim=256, s_flip=0.3, ns_flip=0.1, seed=0):
    """Shared base vectors with per-subject bit flips: NS models agree more
    across subjects than S models do."""
    rng = np.random.default_rng(seed)
    base_s = random_hypervector(seed, 100, dim).to_bools()
    base_ns = random_hypervector(seed, 101, dim).to_bools()
    cohort = []
    for i in range(n):
        s = base_s.copy()
        ns = base_ns.copy()
        s[rng.random(dim) < s_flip] ^= 1
        ns[rng.random(dim) < ns_flip] ^= 1
        cohort.append(
            ClassModel.from_vectors(
                seizure=Hypervector.from_bools(s),
                non_seizure=Hypervector.from_bools(ns),
                subject_id=f"s{i:02d}",
            )
        )
    return cohort


def tied_cohort(dim, pairs=3):
    """Each model next to its complement: unit-weight sums over a full
    pair are exactly zero, so the tie-break vector decides those bits."""
    cohort = []
    for s in range(pairs):
        m = make_model(50 + s, dim=dim)
        cohort.append(m)
        cohort.append(ClassModel.from_vectors(seizure=complement(m.seizure), non_seizure=complement(m.non_seizure)))
    return cohort


class TestWeights:
    def test_weight_correct_examples(self):
        assert weight_correct(0.0, 1.0) == 1.0
        assert weight_correct(0.5, 1.0) == 0.5
        assert weight_correct(1.0, 2.0) == 0.0

    def test_weight_wrong_examples(self):
        assert weight_wrong(0.0, 1.0) == 0.0
        assert weight_wrong(0.5, 1.0) == 0.5
        assert weight_wrong(1.0, 0.5) == 0.5


class TestGeneralize:
    def test_single_subject_avrg_identity(self):
        m = make_model(1)
        gen = generalize([m], MergeConfig(method="avrg"))
        assert gen.seizure == m.seizure
        assert gen.non_seizure == m.non_seizure
        assert gen.kind == "generalized"

    def test_two_subject_avrg_bipolar_oracle(self):
        cohort = [make_model(2), make_model(3)]
        gen = generalize(cohort, MergeConfig(method="avrg"), tie_break_seed=7)
        for attr in ("seizure", "non_seizure"):
            summed = sum(getattr(m, attr).to_bools() * 2.0 - 1.0 for m in cohort)
            expected = binarize_oracle(summed, 7, 64)
            np.testing.assert_array_equal(getattr(gen, attr).to_bools(), expected)

    @pytest.mark.parametrize("method", ["wsub", "waddsub"])
    def test_weighted_methods_match_reference(self, method):
        cohort = [make_model(s) for s in (4, 5, 6)]
        cfg = MergeConfig(method=method, alpha_corr=0.8, alpha_wrong=1.2)
        gen = generalize(cohort, cfg, tie_break_seed=3)
        ref_s, ref_ns = merge_oracle(cohort, cfg, 3, 64)
        np.testing.assert_array_equal(gen.seizure.to_bools(), ref_s)
        np.testing.assert_array_equal(gen.non_seizure.to_bools(), ref_ns)

    def test_similarity_convention_matches_reference(self):
        cohort = [make_model(s) for s in (7, 8)]
        cfg = MergeConfig(method="waddsub", wrong_weight_convention="similarity")
        gen = generalize(cohort, cfg, tie_break_seed=1)
        ref_s, ref_ns = merge_oracle(cohort, cfg, 1, 64)
        np.testing.assert_array_equal(gen.seizure.to_bools(), ref_s)
        np.testing.assert_array_equal(gen.non_seizure.to_bools(), ref_ns)

    def test_iterative_matches_reference(self):
        cohort = [make_model(s) for s in (9, 10, 11)]
        cfg = MergeConfig(method="waddsub", iterations=3)
        gen = generalize(cohort, cfg, tie_break_seed=5)
        ref_s, ref_ns = merge_oracle(cohort, cfg, 5, 64)
        np.testing.assert_array_equal(gen.seizure.to_bools(), ref_s)
        np.testing.assert_array_equal(gen.non_seizure.to_bools(), ref_ns)

    def test_scale_invariance_waddsub(self):
        cohort = flip_cohort(6, seed=13)
        a = generalize(cohort, MergeConfig(method="waddsub", alpha_corr=1.0, alpha_wrong=0.8))
        b = generalize(cohort, MergeConfig(method="waddsub", alpha_corr=2.5, alpha_wrong=2.0))
        assert a.seizure == b.seizure
        assert a.non_seizure == b.non_seizure

    def test_avrg_order_invariance(self):
        cohort = flip_cohort(5, seed=17)
        cfg = MergeConfig(method="avrg")
        base = generalize(cohort, cfg, tie_break_seed=2)
        for perm in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            shuffled = generalize([cohort[i] for i in perm], cfg, tie_break_seed=2)
            assert shuffled.seizure == base.seizure
            assert shuffled.non_seizure == base.non_seizure

    def test_dimension_mismatch(self):
        cohort = [make_model(1, dim=64), make_model(2, dim=128)]
        with pytest.raises(IncompatibleModelsError):
            generalize(cohort, MergeConfig())
        with pytest.raises(IncompatibleModelsError):
            evolution_curve(cohort, MergeConfig(), repetitions=1)

    def test_empty_cohort(self):
        with pytest.raises(ValueError):
            generalize([], MergeConfig())
        with pytest.raises(InsufficientDataError):
            generalize([], MergeConfig())

    def test_degenerate_cohort_error(self):
        cohort = [make_model(s) for s in (20, 21, 22)]
        with pytest.raises(DegenerateCohortError):
            generalize(cohort, MergeConfig(method="wsub", alpha_wrong=50.0))

    @pytest.mark.parametrize("alpha_corr, alpha_wrong", [(1e308, 0.5), (0.5, 1e308)])
    def test_overflowing_weights_rejected(self, alpha_corr, alpha_wrong):
        # the weights are finite, but their sums overflow float64
        cohort = synthetic_model_cohort(10, dim=256, seed=0)
        cfg = MergeConfig(alpha_corr=alpha_corr, alpha_wrong=alpha_wrong)
        with pytest.raises(ValueError, match="alpha weights overflow float64"):
            generalize(cohort, cfg)
        with pytest.raises(ValueError, match="alpha weights overflow float64"):
            evolution_curve(cohort, cfg, repetitions=2)

    def test_codebook_ref_propagates_when_uniform(self):
        cohort = [make_model(s, codebook_ref="cb1") for s in (1, 2)]
        assert generalize(cohort, MergeConfig()).codebook_ref == "cb1"
        mixed = [make_model(1, codebook_ref="cb1"), make_model(2, codebook_ref="cb2")]
        assert generalize(mixed, MergeConfig()).codebook_ref == ""

    def test_bad_config(self):
        with pytest.raises(ValueError):
            MergeConfig(method="mean")
        with pytest.raises(ValueError):
            MergeConfig(iterations=0)
        with pytest.raises(ValueError):
            MergeConfig(alpha_corr=float("inf"))
        with pytest.raises(ValueError):
            MergeConfig(wrong_weight_convention="flipped")


@st.composite
def merge_cases(draw):
    dim = draw(st.sampled_from([64, 72, 200, 1001]))
    n = draw(st.integers(1, 6))
    cohort = []
    for _ in range(n):
        m = make_model(draw(st.integers(0, 8)), dim=dim)
        if draw(st.booleans()):  # complements make exact ties
            m = ClassModel.from_vectors(seizure=complement(m.seizure), non_seizure=complement(m.non_seizure))
        cohort.append(m)
    alphas = st.sampled_from([0.0, 0.5, 1.0, 1.7])
    cfg = MergeConfig(
        method=draw(st.sampled_from(["avrg", "wsub", "waddsub"])),
        wrong_weight_convention=draw(st.sampled_from(["distance", "similarity"])),
        alpha_corr=draw(alphas),
        alpha_wrong=draw(alphas),
        iterations=draw(st.integers(1, 3)),
    )
    # generalize merges in list order, so the cohort comes permuted
    order = draw(st.permutations(range(n)))
    return [cohort[i] for i in order], cfg, draw(st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(merge_cases())
def test_generalize_matches_oracle(case):
    cohort, cfg, seed = case
    totals = {}
    ref_s, ref_ns = merge_oracle(cohort, cfg, seed, cohort[0].dim, totals)
    if min(totals.values()) <= 0:
        with pytest.raises(DegenerateCohortError):
            generalize(cohort, cfg, tie_break_seed=seed)
        return
    gen = generalize(cohort, cfg, tie_break_seed=seed)
    np.testing.assert_array_equal(gen.seizure.to_bools(), ref_s)
    np.testing.assert_array_equal(gen.non_seizure.to_bools(), ref_ns)


def merge_steps_reference(bits, steps, cfg, seed, dim):
    """Straight-line float64 sums and total weights after the merge steps
    `steps` (the `corr` of each `_merge_step`) over the cohort bit rows
    `bits`: each target adds its correct-class row, then subtracts the
    wrong-class row, the one the other half's target adds."""
    values = np.zeros((len(steps[0]), dim))
    totals = [0.0] * len(values)
    for step, corr in enumerate(steps):
        h = len(corr) // 2
        signs = [binarize_oracle(v, seed, dim) for v in values]
        for t, c in enumerate(corr):
            if step == 0:
                w_corr = cfg.alpha_corr if cfg.method == "waddsub" else 1.0
                values[t] += w_corr * (bits[c] * 2.0 - 1.0)
                totals[t] += w_corr
                continue
            wrong = corr[(t + h) % (2 * h)]
            w_corr = 1.0 if cfg.method == "wsub" else cfg.alpha_corr * (1.0 - np.mean(bits[c] != signs[t]))
            w_wrong = cfg.alpha_wrong * np.mean(bits[wrong] != signs[t])
            values[t] += w_corr * (bits[c] * 2.0 - 1.0)
            values[t] -= w_wrong * (bits[wrong] * 2.0 - 1.0)
            totals[t] += w_corr
            totals[t] -= w_wrong
    return values, totals


class TestMergeStep:
    """The float64 sums themselves, not only their signs: the order of the
    two adds into one target changes how the sums round."""

    @pytest.mark.parametrize("method", ["wsub", "waddsub"])
    @pytest.mark.parametrize("shape", ["generalize", "evolve"])
    def test_sums_match_straight_line_reference(self, shape, method):
        dim, n, seed = 1001, 6, 3
        cohort = flip_cohort(n, dim=dim, seed=29)
        bits = [m.seizure.to_bools() for m in cohort] + [m.non_seizure.to_bools() for m in cohort]
        if shape == "generalize":  # targets NS, S, merging the cohort twice in list order
            steps = [[n + i, i] for i in (*range(n), *range(n))]
        else:  # targets the S of each of 3 shuffles, then their NS
            orders = np.stack([np.random.default_rng(r).permutation(n) for r in range(3)])
            steps = [np.concatenate([idx, n + idx]) for idx in orders.T]
        cfg = MergeConfig(method=method, alpha_wrong=0.75)
        sums = _SignedSums(len(steps[0]), dim, seed)
        _, rows = _cohort_words(cohort)
        for step, corr in enumerate(steps):
            _merge_step(sums, rows, corr, cfg, first=step == 0)
        values, totals = merge_steps_reference(bits, steps, cfg, seed, dim)
        assert sums.values.tobytes() == values.tobytes()
        assert sums.total_weight == totals


class TestEvolutionCurve:
    @pytest.mark.parametrize("dim", [256, 1001])
    @pytest.mark.parametrize("convention", ["distance", "similarity"])
    @pytest.mark.parametrize("method", ["avrg", "wsub", "waddsub"])
    @pytest.mark.parametrize("kind", ["flip", "tied"])
    def test_matches_oracle(self, kind, method, convention, dim):
        if kind == "flip":
            cohort = flip_cohort(6, dim=dim, seed=37)
            cfg = MergeConfig(method=method, wrong_weight_convention=convention, alpha_wrong=0.75)
        else:
            cohort = tied_cohort(dim)
            cfg = MergeConfig(method=method, wrong_weight_convention=convention, alpha_wrong=0.0)
        expect, degenerate = evolution_oracle(cohort, cfg, repetitions=3, seed=4)
        assert not degenerate
        curves, mean = evolution_curve(cohort, cfg, repetitions=3, seed=4)
        for curve, ref in zip(curves, expect):
            np.testing.assert_array_equal(np.array(curve.series()), ref)
        np.testing.assert_array_equal(np.array(mean.series()), np.mean(expect, axis=0))

    def test_more_shuffles_than_one_batch(self):
        cohort = flip_cohort(4, dim=72, seed=41)
        cfg = MergeConfig(method="waddsub", alpha_wrong=0.5)
        reps = _SHUFFLE_BATCH + 2
        expect, degenerate = evolution_oracle(cohort, cfg, repetitions=reps, seed=6)
        assert not degenerate
        curves, mean = evolution_curve(cohort, cfg, repetitions=reps, seed=6)
        assert len(curves) == reps
        for curve, ref in zip(curves, expect):
            np.testing.assert_array_equal(np.array(curve.series()), ref)
        np.testing.assert_array_equal(np.array(mean.series()), np.mean(expect, axis=0))

    # alpha_wrong 0 leaves every total weight at exactly zero
    @pytest.mark.parametrize("alpha_wrong", [1.0, 0.0])
    def test_degenerate_shuffle_raises_like_generalize(self, alpha_wrong):
        cohort = synthetic_model_cohort(6, dim=256, seed=1)
        cfg = MergeConfig(method="waddsub", alpha_corr=0.0, alpha_wrong=alpha_wrong)
        with pytest.raises(DegenerateCohortError):
            generalize(cohort, cfg)
        _, degenerate = evolution_oracle(cohort, cfg, repetitions=2, seed=0)
        assert degenerate
        with pytest.raises(DegenerateCohortError, match="shuffle"):
            evolution_curve(cohort, cfg, repetitions=2, seed=0)


    def test_identical_cohort_constant_ones(self):
        m = make_model(1, dim=256)
        cohort = [
            ClassModel.from_vectors(seizure=m.seizure, non_seizure=m.non_seizure, subject_id=f"s{i}")
            for i in range(4)
        ]
        curves, mean = evolution_curve(cohort, MergeConfig(method="avrg"), repetitions=2, seed=0)
        np.testing.assert_array_equal(mean.sim_ss, 1.0)
        np.testing.assert_array_equal(mean.sim_nsns, 1.0)

    def test_deterministic_across_calls(self):
        cohort = flip_cohort(6, seed=23)
        cfg = MergeConfig(method="waddsub")
        _, a = evolution_curve(cohort, cfg, repetitions=3, seed=11)
        _, b = evolution_curve(cohort, cfg, repetitions=3, seed=11)
        np.testing.assert_array_equal(a.sim_ss, b.sim_ss)
        np.testing.assert_array_equal(a.separability, b.separability)

    def test_shapes_and_bounds(self):
        cohort = flip_cohort(5, seed=29)
        curves, mean = evolution_curve(cohort, MergeConfig(), repetitions=4, seed=1)
        assert len(curves) == 4
        for c in curves:
            assert len(c.num_subjects) == 5
            for s in (c.sim_ss, c.sim_nsns, c.sim_sns, c.sim_nss):
                assert (s >= 0).all() and (s <= 1).all()
        np.testing.assert_allclose(
            mean.sim_ss, np.mean([c.sim_ss for c in curves], axis=0)
        )

    def test_repetitions_use_different_orders(self):
        cohort = flip_cohort(8, seed=31)
        # alpha_wrong 1.0 drives shuffle 1's seizure weight below zero here
        cfg = MergeConfig(alpha_wrong=0.5)
        curves, _ = evolution_curve(cohort, cfg, repetitions=2, seed=3)
        # identical first-step similarity would mean identical first subject
        assert not np.array_equal(curves[0].sim_ss, curves[1].sim_ss)

    def test_too_small_cohort(self):
        with pytest.raises(ValueError):
            evolution_curve([make_model(0)], MergeConfig(), repetitions=1, seed=0)
        with pytest.raises(InsufficientDataError):
            evolution_curve([make_model(0)], MergeConfig(), repetitions=1, seed=0)


class TestPlateauOnset:
    def make_curve(self, sep):
        sep = np.asarray(sep, dtype=np.float64)
        n = len(sep)
        flat = np.full(n, 0.5)
        return EvolutionCurve(
            num_subjects=np.arange(1, n + 1),
            sim_ss=flat,
            sim_nsns=flat,
            sim_sns=flat,
            sim_nss=flat,
            separability=sep,
        )

    def test_immediately_flat(self):
        curve = self.make_curve([0.3, 0.3001, 0.3002, 0.3003])
        assert plateau_onset(curve) == 1

    def test_onset_after_last_big_move(self):
        curve = self.make_curve([0.1, 0.2, 0.3, 0.301, 0.302, 0.3025])
        # the last >= 0.005 jump is into step 3, so the plateau starts there
        assert plateau_onset(curve) == 3

    def test_never_settles_reports_last(self):
        curve = self.make_curve([0.0, 0.1, 0.2, 0.3])
        assert plateau_onset(curve) == 4
