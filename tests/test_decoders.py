import tracemalloc

import numpy as np
import pytest

import hmmrisk as hr
from hmmrisk.decoders import combined_score_tables
from hmmrisk.errors import InstanceTooLargeError, KOutOfRangeError, NoFinitePathError
from hmmrisk.lattice import best_path

from conftest import all_paths, random_categorical_model, random_instance


def random_weights(rng):
    """Random weights, occasionally with zeroed components, in both families."""
    c = rng.random(4) * 2
    c[rng.random(4) < 0.35] = 0.0
    if c.sum() == 0:
        c[int(rng.integers(4))] = 1.0
    beta1 = 0.0 if rng.random() < 0.5 else float(rng.random() * 2)
    beta3 = 0.0 if rng.random() < 0.5 else float(rng.random() * 2)
    return hr.RiskWeights(*(float(x) for x in c), beta1=beta1, beta3=beta3)


class TestHybridSpecialCases:
    def test_pure_joint_weight_is_viterbi(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            model, obs, summary = random_instance(rng, zero_frac=0.2)
            decoded = hr.hybrid_decode(summary, hr.RiskWeights(0, 1, 0, 0))
            assert decoded.path == hr.viterbi(model, obs)
            assert decoded.objective == pytest.approx(decoded.risks.rbarinf_joint, abs=1e-9)

    def test_pure_pointwise_linear_is_pmap(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            _, _, summary = random_instance(rng)
            decoded = hr.hybrid_decode(summary, hr.RiskWeights(1, 0, 0, 0, beta1=1.0))
            expect = tuple(int(j) + 1 for j in np.argmax(summary.smoothed, axis=1))
            assert decoded.path == expect
            assert decoded.path == hr.pmap_decode(summary).path

    def test_four_state_k2_weights(self, four_state):
        _, _, summary = four_state
        decoded = hr.hybrid_decode(summary, hr.RiskWeights(1, 1, 0, 0, beta1=0.0))
        assert decoded.path == (2, 1, 4, 2)

    def test_objective_equals_risk_reevaluation(self):
        rng = np.random.default_rng(97)
        for _ in range(40):
            _, _, summary = random_instance(rng, zero_frac=0.15)
            weights = random_weights(rng)
            decoded = hr.hybrid_decode(summary, weights)
            expect = hr.risk.combined_risk(summary, decoded.path, weights)
            assert decoded.objective == pytest.approx(expect, abs=1e-9)

    def test_oracle_agreement_sample(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            _, _, summary = random_instance(rng, zero_frac=0.2)
            weights = random_weights(rng)
            decoded = hr.hybrid_decode(summary, weights)
            oracle = hr.brute_force_decode(summary, weights)
            assert decoded.objective == pytest.approx(oracle.objective, rel=1e-9, abs=1e-12)


class TestPmapFamily:
    def test_four_state_pmap_unique_and_inadmissible(self, four_state):
        _, _, summary = four_state
        decoded = hr.pmap_decode(summary)
        assert decoded.path == (2, 1, 1, 2)
        assert not decoded.admissible
        assert decoded.risks.rinf_posterior == 1.0

    def test_pmap_minimizes_pointwise_risk(self):
        rng = np.random.default_rng(103)
        model, obs, summary = random_instance(rng, num_states=3, horizon=6)
        paths = all_paths(3, 6)
        sm = summary.smoothed[np.arange(6)[None, :], paths - 1]
        r1 = 1 - sm.mean(axis=1)
        assert hr.pmap_decode(summary).objective == pytest.approx(r1.min(), abs=1e-12)

    def test_constrained_inactive_when_strictly_positive(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            _, _, summary = random_instance(rng, zero_frac=0.0)
            assert hr.constrained_pmap_decode(summary).path == hr.pmap_decode(summary).path

    def test_constrained_four_state_regression(self, four_state):
        _, _, summary = four_state
        decoded = hr.constrained_pmap_decode(summary)
        assert decoded.admissible
        assert decoded.path != (2, 1, 1, 2)
        oracle = hr.brute_force_decode(summary, "constrained-pmap")
        assert decoded.path == oracle.path == (2, 1, 4, 2)

    def test_constrained_matches_brute_force(self):
        rng = np.random.default_rng(109)
        for _ in range(15):
            _, _, summary = random_instance(rng, num_states=3, horizon=6, zero_frac=0.35)
            decoded = hr.constrained_pmap_decode(summary)
            oracle = hr.brute_force_decode(summary, "constrained-pmap")
            assert decoded.admissible
            assert decoded.objective == pytest.approx(oracle.objective, abs=1e-9)


class TestPvd:
    def test_single_state(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.5, 0.5]]))
        summary = hr.forward_backward(model, np.array([0, 1, 0]))
        assert hr.pvd_decode(summary).path == (1, 1, 1)

    def test_close_to_hybrid_with_tiny_path_weight(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            _, _, summary = random_instance(rng, zero_frac=0.0)
            pvd = hr.pvd_decode(summary)
            near = hr.hybrid_decode(summary, hr.RiskWeights(1.0, 1e-9, 0.0, 0.0, beta1=0.0))
            assert pvd.path == near.path

    def test_four_state_matches_brute_force(self, four_state):
        _, _, summary = four_state
        decoded = hr.pvd_decode(summary)
        oracle = hr.brute_force_decode(summary, "pvd")
        assert decoded.admissible
        assert decoded.path == oracle.path == (2, 1, 4, 2)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(127)
        for _ in range(15):
            _, _, summary = random_instance(rng, zero_frac=0.3)
            decoded = hr.pvd_decode(summary)
            oracle = hr.brute_force_decode(summary, "pvd")
            assert decoded.objective == pytest.approx(oracle.objective, abs=1e-9)
            assert decoded.admissible


class TestKBlockAndAlpha:
    def test_k1_is_pmap(self):
        rng = np.random.default_rng(131)
        _, _, summary = random_instance(rng)
        assert hr.kblock_pvd_decode(summary, 1).path == hr.pmap_decode(summary).path

    def test_four_state_k2(self, four_state):
        _, _, summary = four_state
        decoded = hr.kblock_pvd_decode(summary, 2)
        assert decoded.path == (2, 1, 4, 2)
        assert decoded.admissible

    def test_path_log_probability_nondecreasing_in_k(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            _, _, summary = random_instance(rng, zero_frac=0.25)
            horizon = summary.horizon
            values = []
            for k in range(1, horizon + 2):
                decoded = hr.kblock_pvd_decode(summary, k)
                values.append(hr.risk.posterior_log_probability(summary, decoded.path))
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-9)

    def test_alpha_zero_equals_viterbi_path(self):
        rng = np.random.default_rng(139)
        model, obs, summary = random_instance(rng)
        assert hr.alpha_interpolation_decode(summary, 0.0).path == hr.viterbi(model, obs)

    def test_alpha_reciprocal_k_matches_kblock(self):
        rng = np.random.default_rng(149)
        for _ in range(10):
            _, _, summary = random_instance(rng)
            k = int(rng.integers(1, 6))
            a = hr.alpha_interpolation_decode(summary, 1.0 / k)
            b = hr.kblock_pvd_decode(summary, k)
            assert a.path == b.path
            if np.isfinite(a.objective):
                assert a.objective * k == pytest.approx(b.objective, abs=1e-9)

    def test_alpha_sweep_monotone(self):
        rng = np.random.default_rng(151)
        _, _, summary = random_instance(rng, zero_frac=0.2)
        values = [
            hr.alpha_interpolation_decode(summary, a).risks.rbarinf_posterior
            for a in np.linspace(0, 1, 11)
        ]
        for prev, nxt in zip(values[:-1], values[1:]):
            assert nxt >= prev - 1e-9 or (np.isinf(prev) and np.isinf(nxt))

    def test_bad_arguments(self, four_state):
        _, _, summary = four_state
        with pytest.raises(KOutOfRangeError):
            hr.kblock_pvd_decode(summary, 0)
        with pytest.raises(ValueError):
            hr.alpha_interpolation_decode(summary, 1.5)


class TestRabinerBlockDecode:
    def test_k1_is_pmap(self):
        rng = np.random.default_rng(157)
        _, _, summary = random_instance(rng)
        decoded = hr.rabiner_block_decode(summary, 1)
        assert decoded.path == hr.pmap_decode(summary).path
        assert decoded.objective == pytest.approx(
            summary.smoothed.max(axis=1).sum(), abs=1e-12
        )

    def test_four_state_k2_golden(self, four_state):
        _, _, summary = four_state
        decoded = hr.rabiner_block_decode(summary, 2)
        assert decoded.path == (2, 1, 1, 2)
        assert not decoded.admissible
        oracle = hr.brute_force_decode(summary, "rabiner", k=2)
        assert oracle.path == (2, 1, 1, 2)
        assert decoded.objective == pytest.approx(oracle.objective, abs=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(163)
        for _ in range(15):
            _, _, summary = random_instance(rng, num_states=3, zero_frac=0.25)
            k = int(rng.integers(1, summary.horizon + 1))
            decoded = hr.rabiner_block_decode(summary, k)
            oracle = hr.brute_force_decode(summary, "rabiner", k=k)
            assert decoded.objective == pytest.approx(oracle.objective, rel=1e-9, abs=1e-12)

    def test_k_equals_horizon_is_viterbi(self, four_state):
        model, obs, summary = four_state
        decoded = hr.rabiner_block_decode(summary, 4)
        assert decoded.path == hr.viterbi(model, obs)

    def test_k_out_of_range(self, four_state):
        _, _, summary = four_state
        with pytest.raises(KOutOfRangeError):
            hr.rabiner_block_decode(summary, 5)

    def test_cap_bounds_k_tuples(self):
        """Every window block holds K^k floats per start, so K^k above the cap
        is refused before any block is built: 2^20 > 10^6 >= 2^19."""
        _, _, summary = random_instance(np.random.default_rng(173), num_states=2, horizon=20)
        with pytest.raises(KOutOfRangeError, match=r"K\^k exceeds the tabulation cap"):
            hr.rabiner_block_decode(summary, 20)
        decoded = hr.rabiner_block_decode(summary, 19)
        assert len(decoded.path) == 20


class TestViterbiPeak:
    def test_viterbi_smooths_window_free(self):
        """viterbi(model, obs) keeps no forward or backward table: its summary
        holds the emission likelihood and smoothed tables, so its peak stays
        below 4.5 (T, K) float64 tables, where the windowed tables gave 5.6."""
        horizon, num_states = 4000, 8
        model = random_categorical_model(np.random.default_rng(4), num_states=num_states, num_symbols=8)
        _, obs = hr.sample_trajectory(model, horizon, seed=4)
        expected = hr.viterbi(model, obs)  # warm: imports and first-call caches stay out of the peak
        tracemalloc.start()
        try:
            path = hr.viterbi(model, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path == expected == hr.viterbi_decode(hr.forward_backward(model, obs)).path
        assert peak < 4.5 * horizon * num_states * 8, peak / (horizon * num_states * 8)


class TestAdmissibility:
    def test_positive_joint_weight_guarantees_admissibility(self):
        rng = np.random.default_rng(167)
        for _ in range(40):
            _, _, summary = random_instance(rng, zero_frac=0.35)
            c2 = float(rng.random() + 0.1)
            beta1 = float(rng.choice([0.0, 1.0]))
            weights = hr.RiskWeights(float(rng.random()), c2, 0.0, float(rng.random()), beta1=beta1)
            assert hr.hybrid_decode(summary, weights).admissible

    def test_log_family_pointwise_plus_prior_guarantees_admissibility(self):
        rng = np.random.default_rng(173)
        for _ in range(40):
            _, _, summary = random_instance(rng, zero_frac=0.35)
            weights = hr.RiskWeights(
                float(rng.random() + 0.1), 0.0, 0.0, float(rng.random() + 0.1), beta1=0.0
            )
            assert hr.hybrid_decode(summary, weights).admissible

    def test_linear_family_counterexample_fixture(self):
        # With a linear pointwise term, zero-probability positions cost nothing,
        # so a high-prior path through an impossible state can win.
        model = hr.HmmModel(
            [0.99, 0.01],
            [[0.98, 0.02], [0.5, 0.5]],
            hr.Categorical([[1.0, 0.0], [0.5, 0.5]]),
        )
        summary = hr.forward_backward(model, np.array([0, 1, 0]))
        weights = hr.RiskWeights(1.0, 0.0, 0.0, 1.0, beta1=1.0)
        decoded = hr.hybrid_decode(summary, weights)
        oracle = hr.brute_force_decode(summary, weights)
        assert decoded.objective == pytest.approx(oracle.objective, abs=1e-12)
        assert decoded.path == oracle.path == (1, 1, 1)
        assert not decoded.admissible

    def test_viterbi_posterior_dominates_other_decoders(self):
        rng = np.random.default_rng(179)
        for _ in range(10):
            _, _, summary = random_instance(rng, zero_frac=0.2)
            best = hr.risk.posterior_log_probability(summary, hr.viterbi_decode(summary).path)
            others = [
                hr.pmap_decode(summary),
                hr.constrained_pmap_decode(summary),
                hr.pvd_decode(summary),
                hr.kblock_pvd_decode(summary, 2),
                hr.rabiner_block_decode(summary, 2),
            ]
            for decoded in others:
                assert best >= hr.risk.posterior_log_probability(summary, decoded.path) - 1e-9


class TestBridgeInequalities:
    def test_monotone_bridge_and_sandwich(self):
        rng = np.random.default_rng(181)
        for _ in range(15):
            _, _, summary = random_instance(rng, zero_frac=0.25)
            horizon = summary.horizon
            vit = hr.viterbi_decode(summary).risks
            rinf, r1 = [], []
            for k in range(1, horizon + 1):
                risks = hr.kblock_pvd_decode(summary, k).risks
                rinf.append(risks.rbarinf_posterior)
                r1.append(risks.rbar1_posterior)
                if k >= 2:
                    gap = risks.rbarinf_posterior - vit.rbarinf_posterior
                    assert 0.0 <= gap <= vit.rbar1_posterior / (k - 1) + 1e-9
            for a, b in zip(rinf[:-1], rinf[1:]):
                assert b <= a + 1e-9  # trivially true when a is +inf
            finite_r1 = [v for v in r1 if np.isfinite(v)]
            assert np.all(np.diff(finite_r1) >= -1e-9)


class TestLatticeKernel:
    def test_per_position_constant_shift_leaves_path_unchanged(self):
        rng = np.random.default_rng(193)
        _, _, summary = random_instance(rng)
        weights = hr.RiskWeights(1.0, 0.5, 0.0, 0.0, beta1=1.0)
        gains, init_extra, trans = combined_score_tables(summary, weights)
        path1, _ = best_path(gains, init_extra, trans)
        shifts = rng.random(summary.horizon)[:, None]
        path2, _ = best_path(gains + shifts, init_extra, trans)
        np.testing.assert_array_equal(path1, path2)

    def test_no_finite_path(self):
        gains = np.array([[0.0, 0.0], [0.0, 0.0]])
        trans = np.full((2, 2), -np.inf)
        with pytest.raises(NoFinitePathError):
            best_path(gains, np.zeros(2), trans)


class TestBruteForce:
    def test_single_state(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.5, 0.5]]))
        summary = hr.forward_backward(model, np.array([0, 1]))
        assert hr.brute_force_decode(summary, "viterbi").path == (1, 1)

    def test_instance_too_large(self):
        model = hr.HmmModel(
            np.full(10, 0.1), np.full((10, 10), 0.1), hr.Categorical(np.full((10, 2), 0.5))
        )
        summary = hr.forward_backward(model, np.zeros(8, dtype=int))
        with pytest.raises(InstanceTooLargeError):
            hr.brute_force_decode(summary, "viterbi")

    def test_unknown_objective(self, four_state):
        _, _, summary = four_state
        with pytest.raises(ValueError):
            hr.brute_force_decode(summary, "nonsense")

    def test_rabiner_objective_needs_k(self, four_state):
        _, _, summary = four_state
        with pytest.raises(ValueError) as info:
            hr.brute_force_decode(summary, "rabiner")
        assert str(info.value) == "the rabiner objective needs k"


class TestResolveDecoder:
    def test_known_tags(self, four_state):
        _, _, summary = four_state
        assert hr.resolve_decoder("viterbi")(summary).path == (2, 1, 2, 2)
        assert hr.resolve_decoder("pmap")(summary).path == (2, 1, 1, 2)
        assert hr.resolve_decoder("kblock:2")(summary).path == (2, 1, 4, 2)
        assert hr.resolve_decoder("rabiner:2")(summary).path == (2, 1, 1, 2)
        assert hr.resolve_decoder("alpha:0.5")(summary).path == (2, 1, 4, 2)
        assert hr.resolve_decoder("weights:0,1,0,0")(summary).path == (2, 1, 2, 2)
        assert hr.resolve_decoder("weights:0/1/0/0")(summary).path == (2, 1, 2, 2)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            hr.resolve_decoder("bogus")

    @pytest.mark.parametrize(
        "tag", ["viterbi", "pmap", "constrained-pmap", "pvd", "kblock:2", "alpha:0.5", "rabiner:2", "weights:1/0.5/0/0.2"]
    )
    def test_decode_many_agrees_with_resolve_decoder(self, four_state, tag):
        _, _, summary = four_state
        (decoded,) = next(hr.decode_many([summary], [tag]))
        assert decoded == hr.resolve_decoder(tag)(summary)

    @pytest.mark.parametrize("tag", ["kblock:0", "rabiner:x", "weights:1/2", "kblock:", "bogus"])
    def test_bad_tags_raise_the_same_error_on_both_paths(self, four_state, tag):
        _, _, summary = four_state
        errors = []
        for decode in (lambda: hr.resolve_decoder(tag)(summary), lambda: list(hr.decode_many([summary], [tag]))):
            with pytest.raises(ValueError) as info:
                decode()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("tag", ["viterbi", "pmap", "kblock:2", "rabiner:2"])
    def test_a_group_of_two_horizons_is_refused(self, four_state, tag):
        model, obs, summary = four_state
        shorter = hr.forward_backward(model, obs[:3])
        with pytest.raises(ValueError) as info:
            list(hr.decode_many([summary, shorter], [tag]))
        assert str(info.value) == "a group's summaries must share one horizon, got [3, 4]"
