import numpy as np
import pytest

from hdseizure.errors import IncompatibleModelsError
from hdseizure.hybrid import compose_hybrid, sweep_selection
from hdseizure.hypervector import random_hypervector
from hdseizure.training import ClassModel
from oracles import select_models


def make_model(seed, kind, dim=64, **meta):
    return ClassModel(
        seizure=random_hypervector(seed, 0, dim),
        non_seizure=random_hypervector(seed, 1, dim),
        kind=kind,
        **meta,
    )


class TestComposeHybrid:
    def test_field_selection(self):
        pers = make_model(1, "personalized", subject_id="s01")
        gen = make_model(2, "generalized")
        h1 = compose_hybrid(pers, gen, "NSgen-Spers")
        assert h1.seizure == pers.seizure
        assert h1.non_seizure == gen.non_seizure
        assert h1.kind == "hybrid"
        assert h1.subject_id == "s01"
        h2 = compose_hybrid(pers, gen, "NSpers-Sgen")
        assert h2.seizure == gen.seizure
        assert h2.non_seizure == pers.non_seizure

    def test_identical_parents(self):
        pers = make_model(3, "personalized")
        gen = ClassModel(seizure=pers.seizure, non_seizure=pers.non_seizure, kind="generalized")
        h = compose_hybrid(pers, gen, "NSgen-Spers")
        assert h.seizure == pers.seizure and h.non_seizure == pers.non_seizure

    def test_complementary_modes_reconstruct_parents(self):
        pers = make_model(4, "personalized")
        gen = make_model(5, "generalized")
        a = compose_hybrid(pers, gen, "NSgen-Spers")
        b = compose_hybrid(pers, gen, "NSpers-Sgen")
        assert {a.seizure, b.seizure} == {pers.seizure, gen.seizure}
        assert {a.non_seizure, b.non_seizure} == {pers.non_seizure, gen.non_seizure}

    def test_no_new_content(self):
        pers = make_model(6, "personalized")
        gen = make_model(7, "generalized")
        h = compose_hybrid(pers, gen, "NSgen-Spers")
        assert h.seizure.bits is pers.seizure.bits
        assert h.non_seizure.bits is gen.non_seizure.bits

    def test_kind_and_dim_validation(self):
        pers = make_model(8, "personalized")
        gen = make_model(9, "generalized")
        with pytest.raises(ValueError):
            compose_hybrid(gen, pers, "NSgen-Spers")
        with pytest.raises(ValueError):
            compose_hybrid(pers, make_model(10, "generalized", dim=128), "NSgen-Spers")
        with pytest.raises(IncompatibleModelsError):
            compose_hybrid(pers, make_model(10, "generalized", dim=128), "NSgen-Spers")
        with pytest.raises(ValueError):
            compose_hybrid(pers, gen, "SpersNSgen")

    def test_parent_of_wrong_kind_is_incompatible(self):
        pers = make_model(8, "personalized")
        gen = make_model(9, "generalized")
        for args in ((gen, pers), (pers, pers), (gen, gen)):
            with pytest.raises(IncompatibleModelsError, match="must be a"):
                compose_hybrid(*args, "NSgen-Spers")


class TestSelectModels:
    def test_threshold_zero_all_gen(self):
        assignment, frac = select_models([0.2, 0.5, 0.9], [0.4, 0.4, 0.4], 0.0)
        assert assignment == ["gen"] * 3
        assert frac == 1.0

    def test_threshold_above_one_all_pers(self):
        assignment, frac = select_models([0.2, 0.5, 0.9], [0.4, 0.4, 0.4], 1.01)
        assert assignment == ["pers"] * 3
        assert frac == 0.0

    def test_spec_example(self):
        assignment, frac = select_models([0.5, 0.7, 0.9], [0.6, 0.6, 0.6], 0.6)
        assert assignment == ["pers", "gen", "gen"]
        assert frac == pytest.approx(2 / 3)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        gen = rng.uniform(0, 1, 20)
        pers = rng.uniform(0, 1, 20)
        prev = None
        for t in np.linspace(0, 1, 21):
            assignment, frac = select_models(gen, pers, t)
            if prev is not None:
                # raising the threshold never converts pers -> gen
                assert all(not (a == "pers" and b == "gen") for a, b in zip(prev, assignment))
            prev = assignment

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_models([0.1, 0.2], [0.3], 0.5)

    def test_sweep_applies_the_same_rule(self):
        rng = np.random.default_rng(4)
        gen = {"f1_episode": rng.uniform(0, 1, 12), "f1_duration": rng.uniform(0, 1, 12)}
        pers = {"f1_episode": rng.uniform(0, 1, 12), "f1_duration": rng.uniform(0, 1, 12)}
        # thresholds equal to a score check that ties go to gen
        thresholds = np.concatenate([np.linspace(0, 1, 21), gen["f1_episode"][:3]])
        sweep = sweep_selection(gen, pers, thresholds)
        for i, t in enumerate(thresholds):
            assignment, frac = select_models(gen["f1_episode"], pers["f1_episode"], t)
            assert sweep.fraction_gen[i] == pytest.approx(frac)
            for key, mean in (("f1_episode", sweep.mean_f1_episode),
                              ("f1_duration", sweep.mean_f1_duration)):
                chosen = [g if a == "gen" else p
                          for a, g, p in zip(assignment, gen[key], pers[key])]
                assert mean[i] == pytest.approx(np.mean(chosen))


class TestSweepSelection:
    def scores(self):
        gen = {"f1_episode": [0.8, 0.4, 0.6], "f1_duration": [0.7, 0.3, 0.5]}
        pers = {"f1_episode": [0.5, 0.9, 0.55], "f1_duration": [0.6, 0.8, 0.65]}
        return gen, pers

    def test_hand_enumeration(self):
        gen, pers = self.scores()
        sweep = sweep_selection(gen, pers, [0.0, 0.5, 0.7, 1.1])
        # t=0.0: all gen; t=0.5: subjects 0,2 gen; t=0.7: only 0; t=1.1: none
        np.testing.assert_allclose(sweep.fraction_gen, [1.0, 2 / 3, 1 / 3, 0.0])
        np.testing.assert_allclose(
            sweep.mean_f1_episode,
            [
                np.mean([0.8, 0.4, 0.6]),
                np.mean([0.8, 0.9, 0.6]),
                np.mean([0.8, 0.9, 0.55]),
                np.mean([0.5, 0.9, 0.55]),
            ],
        )

    def test_all_gen_when_scores_clear_thresholds(self):
        gen = {"f1_episode": [0.9, 0.95], "f1_duration": [0.9, 0.9]}
        pers = {"f1_episode": [0.1, 0.1], "f1_duration": [0.1, 0.1]}
        sweep = sweep_selection(gen, pers, [0.2, 0.5, 0.8])
        np.testing.assert_array_equal(sweep.fraction_gen, 1.0)
        np.testing.assert_allclose(sweep.mean_f1_episode, 0.925)

    def test_oracle_dominates_curve(self):
        rng = np.random.default_rng(3)
        gen = {k: rng.uniform(0, 1, 15) for k in ("f1_episode", "f1_duration")}
        pers = {k: rng.uniform(0, 1, 15) for k in ("f1_episode", "f1_duration")}
        sweep = sweep_selection(gen, pers, np.linspace(0, 1, 50))
        assert (sweep.oracle_f1_episode >= sweep.mean_f1_episode - 1e-12).all()
        assert (sweep.oracle_f1_duration >= sweep.mean_f1_duration - 1e-12).all()
        # and the oracle beats both pure strategies
        assert sweep.oracle_f1_episode >= max(
            np.mean(gen["f1_episode"]), np.mean(pers["f1_episode"])
        )
