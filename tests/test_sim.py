import numpy as np
import pytest

import hmmrisk as hr


def noisy_two_state_model():
    return hr.HmmModel(
        [0.5, 0.5],
        [[0.85, 0.15], [0.2, 0.8]],
        hr.Categorical([[0.75, 0.25], [0.3, 0.7]]),
    )


def crisp_two_state_model():
    return hr.HmmModel(
        [0.5, 0.5],
        [[0.9, 0.1], [0.1, 0.9]],
        hr.Categorical([[0.999, 0.001], [0.001, 0.999]]),
    )


class TestRiskTrajectories:
    def test_single_state_has_zero_error(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.4, 0.6]]))
        out = hr.estimate_risk_trajectories(model, ["viterbi", "pmap"], [20, 50], 3, seed=0)
        for tag in ("viterbi", "pmap"):
            for horizon in (20, 50):
                mean, sd = out.stat(horizon, tag, "empirical_error")
                assert mean == 0.0
                assert sd == 0.0

    def test_near_deterministic_emissions_give_small_error(self):
        out = hr.estimate_risk_trajectories(
            crisp_two_state_model(), ["viterbi", "pmap"], [500], 50, seed=1
        )
        for tag in ("viterbi", "pmap"):
            mean, _ = out.stat(500, tag, "empirical_error")
            assert mean < 0.05

    def test_viterbi_error_dominates_pmap_within_one_standard_error(self):
        out = hr.estimate_risk_trajectories(
            noisy_two_state_model(), ["viterbi", "pmap"], [100, 500], 50, seed=2
        )
        for horizon in (100, 500):
            mv, sv = out.stat(horizon, "viterbi", "empirical_error")
            mp, _ = out.stat(horizon, "pmap", "empirical_error")
            assert mv >= mp - sv / np.sqrt(50)

    def test_deterministic_given_seed(self):
        model = noisy_two_state_model()
        a = hr.estimate_risk_trajectories(model, ["viterbi"], [50], 5, seed=7)
        b = hr.estimate_risk_trajectories(model, ["viterbi"], [50], 5, seed=7)
        assert a.records == b.records

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            hr.estimate_risk_trajectories(noisy_two_state_model(), ["pmap"], [10], 1, seed=0)

    @pytest.mark.parametrize(
        "tags, repeat",
        [(["viterbi", "viterbi"], "viterbi"), (["kblock:2", "pmap", "kblock:2.0"], "kblock:2"),
         (["rabiner:3.0", "rabiner:3"], "rabiner:3")],
    )
    def test_a_repeated_decoder_is_refused(self, tags, repeat):
        """Each decoder is decoded, and named in the records, once."""
        with pytest.raises(ValueError, match=f"^repeated decoder tag: {repeat}$"):
            hr.estimate_risk_trajectories(noisy_two_state_model(), tags, [10], 2, seed=0)

    def test_stat_of_an_unknown_key(self):
        trajectory = hr.estimate_risk_trajectories(noisy_two_state_model(), ["pmap"], [10], 2, seed=0)
        with pytest.raises(KeyError) as info:
            trajectory.stat(10, "pmap", "no_such_metric")
        assert info.value.args == ((10, "pmap", "no_such_metric"),)

    def test_trajectory_spread_shrinks_with_horizon(self):
        model = noisy_two_state_model()
        smaller = 0
        for run in range(10):
            out = hr.estimate_risk_trajectories(model, ["viterbi"], [100, 2000], 30, seed=1000 + run)
            _, sd_small = out.stat(100, "viterbi", "rbarinf_posterior")
            _, sd_big = out.stat(2000, "viterbi", "rbarinf_posterior")
            smaller += sd_big < sd_small
        assert smaller >= 9


class TestSandwichSweep:
    def test_bound_holds_on_every_sample(self):
        rows = hr.sandwich_constant_sweep(noisy_two_state_model(), [60, 200], [2, 3, 5, 9], 25, seed=3)
        assert len(rows) == 2 * 25 * 4
        for row in rows:
            assert 0.0 <= row["gap"] <= row["bound"] + 1e-9

    def test_gap_nonincreasing_in_k_per_sample(self):
        ks = [2, 3, 5, 9, 17]
        rows = hr.sandwich_constant_sweep(noisy_two_state_model(), [120], ks, 20, seed=4)
        by_sample = {}
        for row in rows:
            by_sample.setdefault(row["replicate"], {})[row["k"]] = row["gap"]
        for gaps in by_sample.values():
            seq = [gaps[k] for k in ks]
            assert all(b <= a + 1e-9 for a, b in zip(seq[:-1], seq[1:]))

    def test_large_k_gap_vanishes_on_unique_instances(self):
        rows = hr.sandwich_constant_sweep(crisp_two_state_model(), [40], [40], 20, seed=5)
        assert sum(row["gap"] <= 1e-12 for row in rows) >= 18

    def test_k_floor(self):
        with pytest.raises(ValueError):
            hr.sandwich_constant_sweep(noisy_two_state_model(), [20], [1], 3, seed=0)

    @pytest.mark.parametrize("ks", [[2, 2], [2, 3, 2.0]])
    def test_a_repeated_k_is_refused(self, ks):
        with pytest.raises(ValueError, match="^repeated k: 2$"):
            hr.sandwich_constant_sweep(noisy_two_state_model(), [20], ks, 3, seed=0)
