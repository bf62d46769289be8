import numpy as np
import pytest

import hmmrisk as hr
from hmmrisk.labelling import identity_label_map

from conftest import all_paths, path_joint_probs, random_instance


class TestLabelMap:
    def test_partition_properties(self):
        labels = hr.LabelMap({1: "A", 2: "B", 3: "A", 4: "B"})
        assert labels.num_labels == 2
        assert labels.names == ("A", "B")
        assert labels.labels_for((2, 1, 4, 2)) == ("B", "A", "B", "B")
        classes = labels.classes()
        assert sorted(np.concatenate(classes).tolist()) == [0, 1, 2, 3]

    def test_rejects_gaps_and_negative_beta(self, four_state):
        with pytest.raises(ValueError):
            hr.LabelMap({1: "A", 3: "B"})
        with pytest.raises(ValueError):
            hr.averaged_label_posterior(four_state[2], identity_label_map(4), 1, 1, beta=-1.0)

    @pytest.mark.parametrize("num_states", [2, 5])
    def test_map_must_cover_the_models_states(self, four_state, num_states):
        # a smaller map once left class means of the unmapped states unfilled, a larger one raised IndexError
        summary = four_state[2]
        labels = hr.LabelMap({s: "ab"[s % 2] for s in range(1, num_states + 1)})
        message = f"the label map covers {num_states} states, the model has 4"
        for weights in (hr.RiskWeights(1, 1, 0, 0), hr.RiskWeights(0, 1, 0, 0)):  # the second weighs no pointwise term
            with pytest.raises(ValueError, match=message):
                hr.label_decode(summary, labels, weights)
        with pytest.raises(ValueError, match=message):
            hr.averaged_label_posterior(summary, labels, 2, 4)


class TestAveragedLabelPosterior:
    def test_identity_labelling_with_unit_beta(self):
        rng = np.random.default_rng(271)
        _, _, summary = random_instance(rng)
        labels = identity_label_map(summary.num_states)
        for t in range(1, summary.horizon + 1):
            for s in range(1, summary.num_states + 1):
                assert hr.averaged_label_posterior(summary, labels, t, s) == pytest.approx(
                    summary.smoothed[t - 1, s - 1], abs=1e-12
                )

    def test_two_state_class_means(self):
        # marginals {0.2, 0.4} within one class: arithmetic mean 0.3, geometric sqrt(0.08)
        model = hr.HmmModel(
            [0.2, 0.4, 0.4],
            [[0.2, 0.4, 0.4]] * 3,
            hr.Categorical([[1.0], [1.0], [1.0]]),
        )
        summary = hr.forward_backward(model, np.array([0]))
        np.testing.assert_allclose(summary.smoothed[0], [0.2, 0.4, 0.4])
        labels = hr.LabelMap({1: "x", 2: "x", 3: "y"})
        assert hr.averaged_label_posterior(summary, labels, 1, 1, beta=1.0) == pytest.approx(0.3)
        assert hr.averaged_label_posterior(summary, labels, 1, 2, beta=1.0) == pytest.approx(0.3)
        assert hr.averaged_label_posterior(summary, labels, 1, 1, beta=0.0) == pytest.approx(np.sqrt(0.08))

    def test_invariant_under_within_class_permutation(self):
        rng = np.random.default_rng(277)
        _, _, summary = random_instance(rng, num_states=3)
        labels = hr.LabelMap({1: "a", 2: "a", 3: "b"})
        swapped = hr.LabelMap({2: "a", 1: "a", 3: "b"})
        for t in range(1, summary.horizon + 1):
            assert hr.averaged_label_posterior(summary, labels, t, 1, beta=1.0) == pytest.approx(
                hr.averaged_label_posterior(summary, swapped, t, 2, beta=1.0), abs=1e-12
            )

    def test_geometric_below_arithmetic(self):
        rng = np.random.default_rng(281)
        for _ in range(10):
            _, _, summary = random_instance(rng, num_states=3)
            labels = hr.LabelMap({1: "a", 2: "a", 3: "b"})
            for t in range(1, summary.horizon + 1):
                assert hr.averaged_label_posterior(summary, labels, t, 1, beta=0.0) <= hr.averaged_label_posterior(
                    summary, labels, t, 1, beta=1.0
                ) + 1e-12

    def test_index_errors(self, four_state):
        _, _, summary = four_state
        labels = identity_label_map(4)
        with pytest.raises(IndexError):
            hr.averaged_label_posterior(summary, labels, 0, 1)
        with pytest.raises(IndexError):
            hr.averaged_label_posterior(summary, labels, 1, 5)

    def test_integral_positions_and_states_are_accepted(self, four_state):
        _, _, summary = four_state
        labels = identity_label_map(4)
        expect = hr.averaged_label_posterior(summary, labels, 2, 1)
        assert hr.averaged_label_posterior(summary, labels, 2.0, 1) == expect
        assert hr.averaged_label_posterior(summary, labels, 2, 1.0) == expect
        for t, s, message in ((1.5, 1, "position must be an integer, got 1.5"), (2, 1.5, "state must be an integer, got 1.5")):
            with pytest.raises(ValueError) as info:
                hr.averaged_label_posterior(summary, labels, t, s)
            assert str(info.value) == message
        for t, s, message in ((0, 1, "position 0 outside 1..4"), (1, 5.0, "state 5 outside 1..4")):
            with pytest.raises(IndexError) as info:
                hr.averaged_label_posterior(summary, labels, t, s)
            assert str(info.value) == message


class TestLabelDecode:
    def test_identity_labelling_reduces_to_hybrid(self):
        rng = np.random.default_rng(283)
        for beta1 in (0.0, 1.0, 1.7):
            _, _, summary = random_instance(rng, zero_frac=0.2)
            labels = identity_label_map(summary.num_states)
            weights = hr.RiskWeights(1.0, 0.5, 0.25, 0.0, beta1=beta1, beta3=1.0)
            decoded, names = hr.label_decode(summary, labels, weights)
            expect = hr.hybrid_decode(summary, weights)
            assert decoded.path == expect.path
            assert decoded.objective == pytest.approx(expect.objective, abs=1e-9)
            assert names == labels.labels_for(decoded.path)

    def test_four_state_label_classes_match_enumeration(self, four_state):
        model, obs, summary = four_state
        labels = hr.LabelMap({1: "A", 4: "A", 2: "B", 3: "B"})
        weights = hr.RiskWeights(1.0, 1e-9, 0.0, 0.0, beta1=1.0)
        decoded, names = hr.label_decode(summary, labels, weights)
        assert decoded.admissible
        # oracle: admissible path maximizing the summed class-averaged posteriors
        paths = all_paths(4, 4)
        joint = path_joint_probs(model, obs, paths)
        table = np.empty_like(summary.smoothed)
        for states in labels.classes():
            table[:, states] = summary.smoothed[:, states].mean(axis=1)[:, None]
        scores = table[np.arange(4)[None, :], paths - 1].sum(axis=1)
        scores[joint <= 0] = -np.inf
        best_labels = {labels.labels_for(p) for p in paths[scores >= scores.max() - 1e-12]}
        assert names in best_labels
        assert decoded.path == (2, 1, 4, 2)  # joint tie broken towards the smallest path

    def test_single_class_returns_lexicographic_choice(self):
        rng = np.random.default_rng(293)
        _, _, summary = random_instance(rng, num_states=3)
        labels = hr.LabelMap({1: "all", 2: "all", 3: "all"})
        weights = hr.RiskWeights(1.0, 0.0, 0.0, 0.0, beta1=1.0)
        decoded, names = hr.label_decode(summary, labels, weights)
        assert decoded.path == (1,) * summary.horizon
        assert set(names) == {"all"}
        # constant scores: the objective is the mean class-average risk
        table = summary.smoothed.mean(axis=1)
        assert decoded.objective == pytest.approx((1 - table).mean(), abs=1e-12)

    def test_admissible_with_positive_joint_weight(self):
        rng = np.random.default_rng(307)
        for _ in range(10):
            _, _, summary = random_instance(rng, num_states=3, zero_frac=0.3)
            labels = hr.LabelMap({1: "a", 2: "a", 3: "b"})
            weights = hr.RiskWeights(1.0, 0.5, 0.0, 0.0, beta1=1.0)
            decoded, _ = hr.label_decode(summary, labels, weights)
            assert decoded.admissible
