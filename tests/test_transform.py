import json
import math
import pathlib

import numpy as np
import pytest

import hmmrisk as hr
from hmmrisk.errors import ZeroEvidenceError
from hmmrisk.inference import emission_likelihood

from conftest import all_paths, path_joint_probs, random_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def plain_linear_tables(model, obs, q):
    """Direct linear-domain transformed recursions; small instances only."""
    likes = emission_likelihood(model, obs)
    horizon, num_states = likes.shape
    alpha = np.empty((horizon, num_states))
    alpha[0] = model.initial * likes[0]
    for t in range(1, horizon):
        sums = ((alpha[t - 1][:, None] * model.transition) ** q).sum(axis=0) ** (1 / q)
        alpha[t] = sums * likes[t]
    beta = np.empty((horizon, num_states))
    beta[-1] = 1.0
    for t in range(horizon - 2, -1, -1):
        inner = (model.transition * (likes[t + 1] * beta[t + 1])[None, :]) ** q
        beta[t] = inner.sum(axis=1) ** (1 / q)
    return alpha, beta


class TestTransformedTables:
    def test_q1_plain_equals_unscaled_forward_backward(self):
        rng = np.random.default_rng(211)
        for horizon in (6, 20):
            model, obs, _ = random_instance(rng, num_states=3, horizon=horizon)
            tables = hr.transformed_forward_backward(model, obs, 1.0)
            alpha, beta = plain_linear_tables(model, obs, 1.0)
            np.testing.assert_allclose(np.exp(tables.alpha_q), alpha, rtol=1e-9)
            np.testing.assert_allclose(np.exp(tables.beta_q), beta, rtol=1e-9)

    def test_plain_log_tables_match_direct_arithmetic(self):
        rng = np.random.default_rng(223)
        for q in (1.0, 2.0, 3.5):
            model, obs, _ = random_instance(rng, num_states=3, horizon=8)
            tables = hr.transformed_forward_backward(model, obs, q)
            alpha, beta = plain_linear_tables(model, obs, q)
            np.testing.assert_allclose(np.exp(tables.alpha_q), alpha, rtol=1e-9)
            np.testing.assert_allclose(np.exp(tables.beta_q), beta, rtol=1e-9)

    def test_qinf_alpha_is_max_over_prefixes(self):
        rng = np.random.default_rng(227)
        model, obs, _ = random_instance(rng, num_states=3, horizon=6)
        tables = hr.transformed_forward_backward(model, obs, math.inf)
        paths = all_paths(3, 6)
        joint = path_joint_probs(model, obs, paths)
        likes = emission_likelihood(model, obs)
        for t in range(6):
            for j in range(1, 4):
                # max over prefixes ending in j at t of p(x^t, s^t)
                prefixes = all_paths(3, t + 1)
                keep = prefixes[:, t] == j
                vals = model.initial[prefixes[:, 0] - 1].copy()
                for u in range(1, t + 1):
                    vals *= model.transition[prefixes[:, u - 1] - 1, prefixes[:, u] - 1]
                for u in range(t + 1):
                    vals *= likes[u, prefixes[:, u] - 1]
                expect = vals[keep].max()
                assert np.exp(tables.alpha_q[t, j - 1]) == pytest.approx(expect, rel=1e-9)
        # the terminal max equals the Viterbi joint probability
        assert np.exp(tables.alpha_q[-1].max()) == pytest.approx(joint.max(), rel=1e-9)

    def test_single_state_collapse(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.25, 0.75]]))
        obs = np.array([0, 1, 0])
        for q in (1.0, 4.0, math.inf):
            tables = hr.transformed_forward_backward(model, obs, q)
            expect = np.cumsum(np.log([0.25, 0.75, 0.25]))
            np.testing.assert_allclose(tables.alpha_q[:, 0], expect, atol=1e-12)

    def test_rescaled_q1_matches_scaled_forward_backward(self):
        rng = np.random.default_rng(229)
        model, obs, summary = random_instance(rng)
        tables = hr.transformed_forward_backward(model, obs, 1.0, rescaled=True)
        np.testing.assert_allclose(tables.alpha_q, summary.scaled_forward, rtol=1e-12)
        np.testing.assert_allclose(tables.beta_q, summary.scaled_backward, rtol=1e-12)

    def test_rescaled_stays_finite_where_plain_linear_underflows(self):
        rng = np.random.default_rng(233)
        model, obs, _ = random_instance(rng, num_states=3, horizon=1000)
        plain = hr.transformed_forward_backward(model, obs, 2.0)
        assert plain.alpha_q[-1].max() < np.log(np.finfo(float).tiny)  # would underflow linearly
        for q in (1.0, 2.0, 4.0, 64.0, 1024.0, math.inf):
            tables = hr.transformed_forward_backward(model, obs, q, rescaled=True)
            assert np.all(np.isfinite(tables.alpha_q))
            assert np.all(np.isfinite(tables.beta_q))
            assert np.all(tables.alpha_q >= 0)

    def test_invalid_q_and_zero_evidence(self):
        model = hr.HmmModel([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            hr.transformed_forward_backward(model, np.array([0]), 0.5)
        with pytest.raises(ZeroEvidenceError):
            hr.transformed_forward_backward(model, np.array([0, 1]), 2.0)
        with pytest.raises(ZeroEvidenceError):
            hr.transformed_forward_backward(model, np.array([0, 1]), 2.0, rescaled=True)


class TestSymbolBySymbol:
    def test_q1_equals_pmap_both_modes(self):
        rng = np.random.default_rng(239)
        for _ in range(20):
            model, obs, summary = random_instance(rng, zero_frac=0.2)
            expect = hr.pmap_decode(summary).path
            for rescaled in (False, True):
                tables = hr.transformed_forward_backward(model, obs, 1.0, rescaled=rescaled)
                assert hr.symbol_by_symbol_decode(tables) == expect

    def test_qinf_equals_viterbi_on_unique_instances(self):
        rng = np.random.default_rng(241)
        found = 0
        while found < 10:
            model, obs, _ = random_instance(rng, num_states=3, horizon=6)
            paths = all_paths(3, 6)
            joint = path_joint_probs(model, obs, paths)
            order = np.sort(joint)[::-1]
            if order[0] <= order[1] * (1 + 1e-6):  # require a clearly unique optimum
                continue
            found += 1
            vit = hr.viterbi(model, obs)
            tables = hr.transformed_forward_backward(model, obs, math.inf)
            assert hr.symbol_by_symbol_decode(tables) == vit

    def test_four_state_qinf_membership(self, four_state):
        model, obs, _ = four_state
        paths = all_paths(4, 4)
        joint = path_joint_probs(model, obs, paths)
        best = joint.max()
        optimal = paths[joint >= best - 1e-12]
        tables = hr.transformed_forward_backward(model, obs, math.inf)
        decoded = hr.symbol_by_symbol_decode(tables)
        for t, state in enumerate(decoded):
            assert state in set(optimal[:, t])  # per-position membership in the argmax set

    def test_monotone_q_grid_reaches_the_limit(self):
        rng = np.random.default_rng(251)
        found = 0
        while found < 5:
            model, obs, _ = random_instance(rng, num_states=3, horizon=6)
            paths = all_paths(3, 6)
            joint = path_joint_probs(model, obs, paths)
            order = np.sort(joint)[::-1]
            if order[0] <= order[1] * (1 + 1e-6):
                continue
            found += 1
            limit = hr.symbol_by_symbol_decode(
                hr.transformed_forward_backward(model, obs, math.inf)
            )
            grid_paths = [
                hr.symbol_by_symbol_decode(hr.transformed_forward_backward(model, obs, q))
                for q in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
            ]
            assert grid_paths[-1] == limit
            joint_lp = [hr.joint_log_likelihood(hr.forward_backward(model, obs), p) for p in grid_paths]
            # eventually constant at the limit value
            assert joint_lp[-1] == pytest.approx(joint_lp[-2], abs=1e-12)


EMPTY_MODELS = {
    "categorical": hr.HmmModel([0.6, 0.4], [[0.7, 0.3], [0.25, 0.75]], hr.Categorical([[0.8, 0.2], [0.3, 0.7]])),
    "gaussian": hr.HmmModel([0.4, 0.6], [[0.8, 0.2], [0.3, 0.7]], hr.DiagonalGaussian([[0.0], [1.5]], [[1.0], [0.8]])),
}


@pytest.mark.parametrize("kind", sorted(EMPTY_MODELS))
@pytest.mark.parametrize("rescaled", [False, True])
@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_an_empty_sequence_is_rejected_like_forward_backward(kind, rescaled, q):
    """Both variants refuse an empty observation sequence with the ValueError forward_backward raises."""
    with pytest.raises(ValueError) as expected:
        hr.forward_backward(EMPTY_MODELS[kind], [])
    with pytest.raises(ValueError) as info:
        hr.transformed_forward_backward(EMPTY_MODELS[kind], [], q, rescaled=rescaled)
    assert str(info.value) == str(expected.value) == "observation sequence must be non-empty"


@pytest.mark.parametrize("kind", sorted(EMPTY_MODELS))
@pytest.mark.parametrize("grid", [[], [1.0], [2.0, math.inf]])
def test_the_probe_rejects_an_empty_sequence(kind, grid):
    """The probe refuses an empty sequence as forward_backward does, whatever its grid."""
    with pytest.raises(ValueError) as info:
        hr.rescaling_distortion_probe(EMPTY_MODELS[kind], np.array([], dtype=int), grid)
    assert str(info.value) == "observation sequence must be non-empty"


class TestDistortionProbe:
    def test_q1_row_always_agrees(self):
        rng = np.random.default_rng(257)
        for _ in range(10):
            model, obs, _ = random_instance(rng)
            rows = hr.rescaling_distortion_probe(model, obs, [1.0])
            assert rows[0]["agree"]

    def test_qinf_agrees_on_unique_viterbi(self):
        rng = np.random.default_rng(263)
        found = 0
        while found < 5:
            model, obs, _ = random_instance(rng, num_states=3, horizon=6)
            joint = path_joint_probs(model, obs, all_paths(3, 6))
            order = np.sort(joint)[::-1]
            if order[0] <= order[1] * (1 + 1e-6):
                continue
            found += 1
            rows = hr.rescaling_distortion_probe(model, obs, [math.inf])
            assert rows[0]["agree"]

    def test_persisted_disagreement_fixture(self):
        data = json.loads((FIXTURES / "rescaling_disagreement.json").read_text())
        model = hr.HmmModel(
            np.array(data["initial"]),
            np.array(data["transition"]),
            hr.Categorical(np.array(data["emission_table"])),
        )
        obs = np.array(data["observations"])
        rows = hr.rescaling_distortion_probe(model, obs, [1.0, data["q"], math.inf])
        assert rows[0]["agree"]  # q = 1
        assert not rows[1]["agree"]  # the recorded intermediate q
        assert list(rows[1]["plain_path"]) == data["plain_path"]
        assert list(rows[1]["rescaled_path"]) == data["rescaled_path"]
