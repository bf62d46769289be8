import numpy as np
import pytest

import hmmrisk as hr
from hmmrisk.errors import KOutOfRangeError

from conftest import all_paths, path_joint_probs, path_prior_probs, random_instance


def random_path(rng, num_states, horizon):
    return tuple(int(s) for s in rng.integers(1, num_states + 1, size=horizon))


class TestPowerRisk:
    def test_zero_at_p_one_for_any_beta(self):
        for beta in [0.0, 1e-6, 0.5, 1.0, 2.0, 7.3]:
            assert hr.risk.power_risk(1.0, beta) == pytest.approx(0.0, abs=1e-12)

    def test_beta_one_is_linear_loss(self):
        p = np.linspace(0, 1, 11)
        np.testing.assert_allclose(hr.risk.power_risk(p, 1.0), 1.0 - p, atol=1e-15)

    def test_continuity_at_beta_zero(self):
        assert abs(hr.risk.power_risk(0.5, 1e-6) - hr.risk.power_risk(0.5, 0.0)) < 1e-6

    def test_monotone_nonincreasing_in_p(self):
        rng = np.random.default_rng(0)
        for beta in [0.0, 0.3, 1.0, 2.5]:
            p = np.sort(rng.random(100))
            values = hr.risk.power_risk(p, beta)
            assert np.all(np.diff(values) <= 1e-15)


class TestEvaluateRisks:
    def test_single_state_risks_vanish(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.5, 0.5]]))
        summary = hr.forward_backward(model, np.array([0, 1, 0]))
        report = hr.evaluate_risks(summary, (1, 1, 1))
        assert report.r1_posterior == 0.0
        assert report.rbarinf_prior == 0.0
        assert report.rinf_posterior == 0.0

    def test_four_state_inadmissible_path(self, four_state):
        _, _, summary = four_state
        report = hr.evaluate_risks(summary, (2, 1, 1, 2))
        assert report.rinf_posterior == 1.0
        assert report.rbarinf_posterior == np.inf

    def test_joint_risk_matches_direct_product(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            model, obs, summary = random_instance(rng, num_states=3, horizon=6)
            path = random_path(rng, 3, 6)
            direct = path_joint_probs(model, obs, np.array([path]))[0]
            report = hr.evaluate_risks(summary, path)
            assert report.rbarinf_joint == pytest.approx(-np.log(direct) / 6, abs=1e-10)

    def test_report_identities(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            model, obs, summary = random_instance(rng, zero_frac=0.2)
            horizon = summary.horizon
            path = random_path(rng, summary.num_states, horizon)
            report = hr.evaluate_risks(summary, path)
            if np.isfinite(report.rbarinf_posterior):
                # conditional = joint + (1/T) log p(x)
                assert report.rbarinf_posterior == pytest.approx(
                    report.rbarinf_joint + summary.log_evidence / horizon, abs=1e-9
                )
                assert report.rinf_posterior == pytest.approx(
                    1.0 - np.exp(-horizon * report.rbarinf_posterior), abs=1e-9
                )
            else:
                assert report.rinf_posterior == 1.0

    def test_prior_chain_posterior_risks_are_the_prior_risks(self):
        """The prior chain is the summary of no observations, so its posterior
        risks of a path are the prior risks a summary reports, bit for bit."""
        rng = np.random.default_rng(61)
        for _ in range(300):
            model, obs, summary = random_instance(rng, horizon=int(rng.integers(1, 150)), zero_frac=0.3)
            path = random_path(rng, summary.num_states, summary.horizon)
            report = hr.evaluate_risks(summary, path)
            chain = hr.evaluate_risks(hr.PriorChain(model, summary.horizon), path)
            got = [chain.r1_posterior, chain.rbar1_posterior, chain.rbarinf_posterior, chain.rbarinf_joint]
            expect = [report.r1_prior, report.rbar1_prior, report.rbarinf_prior, report.rbarinf_prior]
            assert np.array_equal(np.array(got).view(np.uint64), np.array(expect).view(np.uint64)), (got, expect)

    def test_prior_fields(self):
        rng = np.random.default_rng(41)
        model, obs, summary = random_instance(rng, num_states=3, horizon=5)
        path = (2, 1, 3, 1, 2)
        prior = path_prior_probs(model, np.array([path]))[0]
        marg = hr.model.prior_marginals(model, 5)
        report = hr.evaluate_risks(summary, path)
        assert report.rbarinf_prior == pytest.approx(-np.log(prior) / 5, abs=1e-10)
        seq = marg[np.arange(5), np.asarray(path) - 1]
        assert report.r1_prior == pytest.approx(1 - seq.mean(), abs=1e-12)
        assert report.rbar1_prior == pytest.approx(-np.log(seq).mean(), abs=1e-12)


class TestKBlockLogRisk:
    def test_k1_equals_pointwise_log_risk(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            model, obs, summary = random_instance(rng)
            horizon = summary.horizon
            path = random_path(rng, summary.num_states, horizon)
            report = hr.evaluate_risks(summary, path)
            post = hr.kblock_logrisk(summary, path, 1)
            prior = hr.kblock_logrisk(hr.PriorChain(model, horizon), path, 1)
            assert post == pytest.approx(report.rbar1_posterior, abs=1e-9)
            assert prior == pytest.approx(report.rbar1_prior, abs=1e-9)

    def test_window_recursion_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            model, obs, summary = random_instance(rng)
            horizon = summary.horizon
            path = random_path(rng, summary.num_states, horizon)
            k = int(rng.integers(2, horizon + 1))
            report = hr.evaluate_risks(summary, path)
            for chain, rinf in (
                (summary, report.rbarinf_posterior),
                (hr.PriorChain(model, horizon), report.rbarinf_prior),
            ):
                lhs = hr.kblock_logrisk(chain, path, k)
                rhs = rinf + hr.kblock_logrisk(chain, path, k - 1)
                if np.isfinite(rhs):
                    assert lhs == pytest.approx(rhs, abs=1e-9)
                else:
                    assert lhs == np.inf

    def test_closed_form(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            model, obs, summary = random_instance(rng)
            horizon = summary.horizon
            path = random_path(rng, summary.num_states, horizon)
            report = hr.evaluate_risks(summary, path)
            for k in range(1, horizon + 1):
                expect = (k - 1) * report.rbarinf_posterior + report.rbar1_posterior
                got = hr.kblock_logrisk(summary, path, k)
                if np.isfinite(expect):
                    assert got == pytest.approx(expect, abs=1e-9)
                else:
                    assert got == np.inf

    def test_k_equals_horizon(self):
        rng = np.random.default_rng(59)
        model, obs, summary = random_instance(rng, num_states=3, horizon=5)
        path = (1, 2, 3, 2, 1)
        report = hr.evaluate_risks(summary, path)
        got = hr.kblock_logrisk(summary, path, 5)
        expect = 4 * report.rbarinf_posterior + report.rbar1_posterior
        if np.isfinite(expect):
            assert got == pytest.approx(expect, abs=1e-9)

    def test_k_out_of_range(self, four_state):
        _, _, summary = four_state
        with pytest.raises(KOutOfRangeError):
            hr.kblock_logrisk(summary, (2, 1, 2, 2), 0)
        with pytest.raises(KOutOfRangeError):
            hr.kblock_logrisk(summary, (2, 1, 2, 2), 5)


class TestRabinerBlockGain:
    def test_k1_is_position_sum(self):
        rng = np.random.default_rng(61)
        model, obs, summary = random_instance(rng)
        horizon = summary.horizon
        path = random_path(rng, summary.num_states, horizon)
        report = hr.evaluate_risks(summary, path)
        gain = hr.risk.rabiner_gain_batch(summary, path, 1)
        assert gain == pytest.approx(horizon * (1 - report.r1_posterior), abs=1e-9)

    def test_four_state_gain_ratio(self, four_state):
        _, _, summary = four_state
        a = 2.0
        ratio = hr.risk.rabiner_gain_batch(summary, (2, 1, 1, 2), 2) / hr.risk.rabiner_gain_batch(
            summary, (2, 2, 2, 2), 2
        )
        assert ratio == pytest.approx(80 * a / (32 * a + 13), abs=1e-9)

    def test_k_equals_horizon_is_path_posterior(self):
        rng = np.random.default_rng(67)
        model, obs, summary = random_instance(rng, num_states=3, horizon=6)
        path = (1, 3, 2, 2, 1, 3)
        paths = all_paths(3, 6)
        joint = path_joint_probs(model, obs, paths)
        expect = joint[np.all(paths == path, axis=1)][0] / joint.sum()
        assert hr.risk.rabiner_gain_batch(summary, path, 6) == pytest.approx(expect, abs=1e-10)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(71)
        model, obs, summary = random_instance(rng, num_states=3, horizon=5)
        paths = all_paths(3, 5)[:40]
        batch = hr.risk.rabiner_gain_batch(summary, paths, 2)
        for row, expect in zip(paths, batch):
            gain = hr.risk.rabiner_gain_batch(summary, tuple(row), 2)
            assert type(gain) is float and gain == pytest.approx(expect, abs=1e-12)


class TestCombinedRisk:
    def test_matches_field_combination(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            model, obs, summary = random_instance(rng)
            path = random_path(rng, summary.num_states, summary.horizon)
            report = hr.evaluate_risks(summary, path)
            weights = hr.RiskWeights(0.5, 1.5, 0.25, 2.0)  # beta1 = beta3 = 0
            expect = (
                0.5 * report.rbar1_posterior
                + 1.5 * report.rbarinf_joint
                + 0.25 * report.rbar1_prior
                + 2.0 * report.rbarinf_prior
            )
            got = hr.risk.combined_risk(summary, path, weights)
            if np.isfinite(expect):
                assert got == pytest.approx(expect, abs=1e-9)
            else:
                assert got == np.inf

    def test_power_family_terms(self):
        rng = np.random.default_rng(79)
        model, obs, summary = random_instance(rng)
        path = random_path(rng, summary.num_states, summary.horizon)
        weights = hr.RiskWeights(2.0, 0.0, 1.0, 0.0, beta1=1.0, beta3=0.5)
        sm = summary.smoothed[np.arange(summary.horizon), np.asarray(path) - 1]
        pm = summary.prior[np.arange(summary.horizon), np.asarray(path) - 1]
        expect = 2.0 * (1 - sm).mean() + 1.0 * ((1 - pm**0.5) / 0.5).mean()
        assert hr.risk.combined_risk(summary, path, weights) == pytest.approx(expect, abs=1e-12)


class TestRiskWeights:
    def test_rejects_negative_and_all_zero(self):
        with pytest.raises(ValueError):
            hr.RiskWeights(-1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            hr.RiskWeights(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            hr.RiskWeights(1.0, 0.0, 0.0, 0.0, beta1=-0.5)


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "beta1", "beta3"])
    def test_rejects_non_finite_weights_and_exponents(self, name, value):
        fields = {"c1": 1.0, "c2": 1.0, "c3": 0.0, "c4": 0.0, "beta1": 0.0, "beta3": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            hr.RiskWeights(**fields)


class TestStatePathValidation:
    """Every entry point that takes 1-based state labels validates them with
    one checker, which rejects fractional labels instead of truncating them."""

    def test_fractional_labels_are_rejected(self, four_state):
        model, _, summary = four_state
        fractional = (2, 1.7, 1, 2)
        calls = (
            lambda: hr.evaluate_risks(summary, fractional),
            lambda: hr.joint_log_likelihood(summary, fractional),
            lambda: hr.risk.combined_risk(summary, [(2, 1, 1, 2), fractional], hr.RiskWeights(1, 1, 0, 0)),
            lambda: hr.risk.rabiner_gain_batch(summary, [fractional], 2),
            lambda: hr.risk.rabiner_gain_batch(summary, fractional, 2),
            lambda: hr.kblock_logrisk(summary, fractional, 2),
            lambda: hr.kblock_logrisk(hr.PriorChain(model, 4), fractional, 2),
            lambda: hr.block_posterior(summary, 1, [2, 1.5]),
        )
        for call in calls:
            with pytest.raises(ValueError, match="integers"):
                call()

    def test_integral_floats_are_accepted(self, four_state):
        _, _, summary = four_state
        assert hr.evaluate_risks(summary, (2.0, 1.0, 1.0, 2.0)) == hr.evaluate_risks(summary, (2, 1, 1, 2))
        assert hr.block_posterior(summary, 1, [2.0, 1.0]) == hr.block_posterior(summary, 1, [2, 1])

    def test_range_length_and_shape(self, four_state):
        _, _, summary = four_state
        with pytest.raises(ValueError, match=r"1\.\.4"):
            hr.risk.rabiner_gain_batch(summary, [(2, 1, 1, 2), (2, 0, 1, 2)], 2)
        with pytest.raises(ValueError, match=r"1\.\.4"):
            hr.evaluate_risks(summary, (2, 5, 1, 2))
        with pytest.raises(ValueError, match="horizon"):
            hr.risk.rabiner_gain_batch(summary, (2, 1, 1), 2)
        with pytest.raises(ValueError, match="1-d"):
            hr.block_posterior(summary, 1, [[2, 1]])
        with pytest.raises(ValueError, match="non-empty"):
            hr.evaluate_risks(summary, ())
        with pytest.raises(ValueError, match="one 1-d path"):
            hr.evaluate_risks(summary, [(2, 1, 1, 2), (2, 1, 2, 2)])

    def test_block_length_and_path_length(self, four_state):
        _, _, summary = four_state
        for k in (0, 5):
            with pytest.raises(KOutOfRangeError) as info:
                hr.risk.rabiner_gain_batch(summary, (2, 1, 1, 2), k)
            assert str(info.value) == f"k must lie in 1..4, got {k}"
        with pytest.raises(ValueError) as info:
            hr.kblock_logrisk(summary, (2, 1, 1), 2)
        assert str(info.value) == "path length 3 does not match horizon 4"

    def test_window_scorers_share_one_k_rule_and_one_path_check(self, four_state):
        _, _, summary = four_state
        calls = (
            lambda k: hr.kblock_logrisk(summary, (2, 1, 1), k),  # k is checked before the path
            lambda k: hr.risk.rabiner_gain_batch(summary, (2, 1, 1, 2), k),
            lambda k: hr.rabiner_block_decode(summary, k),
        )
        for call in calls:
            for k in (0, 5, 5.0):  # an integral float out of range keeps the range message
                with pytest.raises(KOutOfRangeError) as info:
                    call(k)
                assert str(info.value) == f"k must lie in 1..4, got {k}"
        with pytest.raises(ValueError) as info:
            hr.kblock_logrisk(summary, [(2, 1, 1, 2), (2, 1, 2, 2)], 2)
        assert str(info.value) == "kblock_logrisk scores one 1-d path"
