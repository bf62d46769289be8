import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk.errors import ZeroEvidenceError
from hmmrisk.inference import emission_likelihood
from hmmrisk.lattice import _BLOCK

from conftest import all_paths, path_joint_probs, random_categorical_model, random_instance


def unscaled_forward_backward(model, obs):
    """Independent linear-domain recursions (usable for small T only)."""
    likes = emission_likelihood(model, obs)
    horizon, num_states = likes.shape
    alpha = np.empty((horizon, num_states))
    alpha[0] = model.initial * likes[0]
    for t in range(1, horizon):
        alpha[t] = (alpha[t - 1] @ model.transition) * likes[t]
    beta = np.empty((horizon, num_states))
    beta[-1] = 1.0
    for t in range(horizon - 2, -1, -1):
        beta[t] = (model.transition * likes[t + 1][None, :]) @ beta[t + 1]
    return alpha, beta


class TestForwardBackward:
    def test_single_state_collapses(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.25, 0.75]]))
        obs = np.array([0, 1, 1, 0])
        summary = hr.forward_backward(model, obs)
        np.testing.assert_allclose(summary.smoothed, 1.0)
        expected = np.log(0.25) * 2 + np.log(0.75) * 2
        assert summary.log_evidence == pytest.approx(expected, abs=1e-12)

    def test_four_state_first_row_pinned(self, four_state):
        _, _, summary = four_state
        np.testing.assert_array_equal(summary.smoothed[0], [0, 1, 0, 0])

    def test_smoothed_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            model, obs, summary = random_instance(rng, num_states=3, horizon=6)
            paths = all_paths(3, 6)
            joint = path_joint_probs(model, obs, paths)
            evidence = joint.sum()
            for t in range(6):
                for j in range(1, 4):
                    expect = joint[paths[:, t] == j].sum() / evidence
                    assert summary.smoothed[t, j - 1] == pytest.approx(expect, abs=1e-10)
            assert summary.log_evidence == pytest.approx(np.log(evidence), abs=1e-10)

    def test_smoothed_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, _, summary = random_instance(rng, zero_frac=0.3)
            np.testing.assert_allclose(summary.smoothed.sum(axis=1), 1.0, atol=1e-10)

    def test_unscaled_reconstruction(self):
        rng = np.random.default_rng(4)
        model, obs, summary = random_instance(rng, num_states=3, horizon=20)
        alpha, beta = unscaled_forward_backward(model, obs)
        evidence = alpha[-1].sum()
        np.testing.assert_allclose(alpha * beta / evidence, summary.smoothed, atol=1e-9)

    def test_zero_evidence_raises(self):
        model = hr.HmmModel([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ZeroEvidenceError):
            hr.forward_backward(model, np.array([0, 1]))

    def test_no_sequence_and_an_empty_sequence_are_rejected(self):
        model = hr.HmmModel([0.6, 0.4], [[0.7, 0.3], [0.25, 0.75]], hr.Categorical([[0.8, 0.2], [0.3, 0.7]]))
        with pytest.raises(ValueError) as info:
            hr.forward_backward_many(model, [])
        assert str(info.value) == "at least one observation sequence is needed"
        with pytest.raises(ValueError) as info:
            hr.forward_backward(model, [])
        assert str(info.value) == "observation sequence must be non-empty"

    def test_ruled_out_state_keeps_the_backward_pass_finite(self):
        """State 1 has initial probability 0 and no way in, and the points fit
        it alone: the scaled backward variable of the ruled-out state grew by
        about e^450 a step until it overflowed, and 0 * inf made the smoothed
        rows NaN.  The only admissible path is 2 2 2 2."""
        model = hr.HmmModel([0.0, 1.0], [[0.5, 0.5], [0.0, 1.0]], hr.DiagonalGaussian([[0.0], [30.0]], [[1.0], [1.0]]))
        obs = np.zeros(4)
        summary = hr.forward_backward(model, obs)
        assert np.all(np.isfinite(summary.scaled_backward))
        np.testing.assert_array_equal(summary.smoothed, [[0.0, 1.0]] * 4)
        tags = ["viterbi", "pmap", "pvd", "constrained-pmap", "kblock:2", "alpha:0.5", "weights:1/1/0/0", "rabiner:2"]
        assert [decoded.path for (decoded,) in hr.decode_many([summary], tags)] == [(2, 2, 2, 2)] * len(tags)
        assert hr.pmap_decode(summary).path == hr.pvd_decode(summary).path == hr.viterbi(model, obs) == (2, 2, 2, 2)
        assert hr.evaluate_risks(summary, (2, 2, 2, 2)).r1_posterior == 0.0
        for q in (1.0, 2.0):
            tables = hr.transformed_forward_backward(model, obs, q, rescaled=True)
            assert hr.symbol_by_symbol_decode(tables) == (2, 2, 2, 2)

    def test_log_evidence_shifts_under_table_scaling(self, four_state):
        model, obs, summary = four_state
        scale = 3.7
        scaled = hr.HmmModel(
            model.initial,
            model.transition,
            hr.DirectLikelihood(model.emission.table * scale),
        )
        shifted = hr.forward_backward(scaled, obs)
        expect = summary.log_evidence + len(obs) * np.log(scale)
        assert shifted.log_evidence == pytest.approx(expect, abs=1e-9)
        np.testing.assert_allclose(shifted.smoothed, summary.smoothed, atol=1e-12)


def reference_forward_backward_many(model, observations):
    """Reference: the batched recursions as they were before the backward pass
    read block-tabulated products, one loop step per position and direction.
    Returns (alpha, beta, scaling, smoothed, log_evidence), each with a leading
    sequence axis."""
    observations = list(observations)
    horizon = len(observations[0])
    num, num_states = len(observations), model.num_states
    likes = np.empty((num, horizon, num_states))
    for row, obs in zip(likes, observations):
        row[...] = emission_likelihood(model, obs)
    alpha = np.empty((num, horizon, num_states))
    scaling = np.empty((num, horizon))
    alpha_rows, like_rows, scale_rows = alpha.transpose(1, 0, 2), likes.transpose(1, 0, 2), scaling.T[:, :, None]
    a = np.empty((num, 1, num_states))
    np.multiply(model.initial, like_rows[0], out=a[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, (alpha_t, likes_t, scale_t) in enumerate(zip(alpha_rows, like_rows, scale_rows)):
            if t:
                np.matmul(alpha_rows[t - 1, :, None, :], model.transition, out=a)
                a[:, 0] *= likes_t
            np.add.reduce(a, axis=2, out=scale_t)
            np.divide(a[:, 0], scale_t, out=alpha_t)
    impossible = np.flatnonzero((scaling <= 0).any(axis=0))
    if len(impossible):
        raise ZeroEvidenceError(f"observation sequence impossible under the model at t={impossible[0] + 1}")
    beta = np.empty((num, horizon, num_states))
    beta[:, -1] = 1.0
    beta_rows = beta.transpose(1, 0, 2)
    weighted = np.empty((num, num_states, num_states))
    b = np.empty((num, num_states, 1))
    backward = zip(
        beta_rows[-2::-1], beta_rows[:0:-1, :, :, None], like_rows[:0:-1, :, None, :], scale_rows[:0:-1], alpha_rows[:0:-1]
    )
    for beta_t, beta_next, likes_next, scale_next, alpha_next in backward:
        np.multiply(model.transition, likes_next, out=weighted)
        weighted *= alpha_next[:, None, :] > 0  # a successor the forward pass ruled out adds nothing
        np.matmul(weighted, beta_next, out=b)
        np.divide(b[..., 0], scale_next, out=beta_t)
    return alpha, beta, scaling, alpha * beta, np.log(scaling).sum(axis=1)


def batch_instance(seed, num, num_states, horizon, zero_frac, emission, sampled):
    """A model with structural zeros at ``zero_frac`` and N sequences of length
    T.  Sampled sequences have positive evidence; the others are drawn
    independently of the model, so some are impossible, and Gaussian points
    lie up to 40 from the means, far enough for densities to underflow."""
    rng = np.random.default_rng(seed)
    base = random_categorical_model(rng, num_states, num_symbols=3, zero_frac=zero_frac)
    initial = base.initial.copy()
    if zero_frac and num_states > 1:
        initial[rng.random(num_states) < zero_frac] = 0.0
        initial = initial / initial.sum() if initial.sum() > 0 else base.initial
    if emission == "gaussian":
        means, variances = rng.normal(0, 2, (num_states, 1)), rng.uniform(0.3, 2.0, (num_states, 1))
        model = hr.HmmModel(initial, base.transition, hr.DiagonalGaussian(means, variances))
    elif emission == "direct":
        table = rng.uniform(0.0, 3.0, (horizon, num_states)) * (rng.random((horizon, num_states)) >= zero_frac)
        model = hr.HmmModel(initial, base.transition, hr.DirectLikelihood(table))
        return model, [rng.permutation(horizon) if n else np.arange(horizon) for n in range(num)]
    else:
        model = hr.HmmModel(initial, base.transition, base.emission)
    if sampled:
        return model, [hr.sample_trajectory(model, horizon, int(rng.integers(2**31)))[1] for _ in range(num)]
    if emission == "gaussian":
        return model, [rng.choice([-1.0, 1.0], horizon) * rng.uniform(0, 40.0, horizon) for _ in range(num)]
    return model, [rng.integers(0, 3, horizon) for _ in range(num)]


def backward_step(num, num_states):
    """Positions of one block of transition x likelihood products."""
    return max(1, _BLOCK // (num * num_states * num_states))


@st.composite
def batch_cases(draw):
    """N 1-4, K 1-8, and T short or next to the first or second multiple of the
    backward block: one before, at, and one or two after it."""
    num, num_states = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    step = backward_step(num, num_states)
    near_block = st.builds(lambda m, d: m * step + d, st.integers(1, 2), st.integers(-1, 2)).filter(lambda t: t >= 1)
    horizon = draw(st.one_of(st.integers(1, 40), near_block))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.6]))
    emission = draw(st.sampled_from(["categorical", "gaussian", "direct"]))
    return draw(st.integers(0, 2**32 - 1)), num, num_states, horizon, zero_frac, emission, draw(st.booleans())


def fb_outcome(fn, model, observations):
    try:
        return fn(model, observations)
    except ZeroEvidenceError as exc:
        return ZeroEvidenceError, str(exc)


@settings(max_examples=60, deadline=None)
@example((5, 1, 32, 2 * backward_step(1, 32) + 1, 0.3, "categorical", True))
@example((6, 3, 32, 2 * backward_step(3, 32) + 2, 0.0, "gaussian", True))
@example((7, 2, 32, backward_step(2, 32), 0.6, "direct", False))
@example((8, 1, 1, 2 * backward_step(1, 1) + 1, 0.0, "categorical", True))
@given(batch_cases())
def test_batched_recursions_match_per_step_reference_bit_for_bit(case):
    model, observations = batch_instance(*case)
    got = fb_outcome(hr.forward_backward_many, model, observations)
    expect = fb_outcome(reference_forward_backward_many, model, observations)
    if isinstance(expect, tuple) and expect[0] is ZeroEvidenceError:
        assert got == expect  # same error and message
        return
    alpha, beta, scaling, smoothed, log_evidence = expect
    assert len(got) == len(observations)
    for n, summary in enumerate(got):
        assert np.array_equal(summary.scaled_forward, alpha[n])
        assert np.array_equal(summary.scaled_backward, beta[n])
        assert np.array_equal(summary.scaling, scaling[n])
        assert np.array_equal(summary.smoothed, smoothed[n])
        assert np.array_equal(summary.log_evidence, log_evidence[n])


class TestBlockPosterior:
    def test_k1_reduces_to_smoothed(self):
        rng = np.random.default_rng(8)
        _, _, summary = random_instance(rng)
        for t in range(1, summary.horizon + 1):
            for j in range(1, summary.num_states + 1):
                assert hr.block_posterior(summary, t, [j]) == pytest.approx(
                    summary.smoothed[t - 1, j - 1], abs=1e-12
                )

    def test_four_state_pair_ratio(self, four_state):
        _, _, summary = four_state
        a = 2.0
        ratio = hr.block_posterior(summary, 1, [2, 1]) / hr.block_posterior(summary, 1, [2, 2])
        assert ratio == pytest.approx(40 * a / (16 * a + 6), abs=1e-9)
        # time-reversal symmetry of the instance
        assert hr.block_posterior(summary, 1, [2, 1]) == pytest.approx(
            hr.block_posterior(summary, 3, [1, 2]), abs=1e-12
        )

    def test_pairs_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            _, _, summary = random_instance(rng, num_states=3, horizon=6)
            for t in range(1, 6):
                total = sum(
                    hr.block_posterior(summary, t, [i, j])
                    for i in range(1, 4)
                    for j in range(1, 4)
                )
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_block_matches_enumeration(self):
        rng = np.random.default_rng(17)
        model, obs, summary = random_instance(rng, num_states=3, horizon=6)
        paths = all_paths(3, 6)
        joint = path_joint_probs(model, obs, paths)
        evidence = joint.sum()
        block = (2, 1, 3)
        expect = joint[np.all(paths[:, 1:4] == block, axis=1)].sum() / evidence
        assert hr.block_posterior(summary, 2, block) == pytest.approx(expect, abs=1e-10)

    def test_bounds_checks(self, four_state):
        _, _, summary = four_state
        with pytest.raises(IndexError):
            hr.block_posterior(summary, 4, [1, 2])
        with pytest.raises(IndexError):
            hr.block_posterior(summary, 0, [1])
        big = hr.HmmModel(
            np.full(40, 1 / 40), np.full((40, 40), 1 / 40), hr.Categorical(np.full((40, 2), 0.5))
        )
        big_summary = hr.forward_backward(big, np.zeros(8, dtype=int))
        assert hr.block_posterior(big_summary, 1, [1] * 5) == pytest.approx((1 / 40) ** 5)

    def test_positions_follow_the_rule_of_state_labels(self, four_state):
        _, _, summary = four_state
        assert hr.block_posterior(summary, 2.0, [1]) == hr.block_posterior(summary, 2, [1])
        assert hr.block_posterior(summary, np.float64(3.0), [1, 2]) == hr.block_posterior(summary, 3, [1, 2])
        for t in (1.5, np.nan, np.inf):
            with pytest.raises(ValueError) as info:
                hr.block_posterior(summary, t, [1])
            assert str(info.value) == f"position must be an integer, got {t}"
        with pytest.raises(IndexError) as info:  # out-of-range positions keep their error
            hr.block_posterior(summary, 4, [1, 2])
        assert str(info.value) == "block [4, 5] outside positions 1..4"

    def test_whole_path_block(self):
        # one block over all T = 21 positions: K^(k-1) = 2^20 states, evaluated in k gathers
        rng = np.random.default_rng(23)
        _, _, summary = random_instance(rng, num_states=2, horizon=21)
        path = rng.integers(1, 3, size=21)
        expect = np.exp(hr.risk.posterior_log_probability(summary, path))
        assert hr.block_posterior(summary, 1, path) == pytest.approx(expect, rel=1e-12)


class TestViterbi:
    def test_single_state(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.25, 0.75]]))
        assert hr.viterbi(model, np.array([0, 1])) == (1, 1)

    def test_four_state_lexicographic_representative(self, four_state):
        model, obs, _ = four_state
        assert hr.viterbi(model, obs) == (2, 1, 2, 2)

    def test_four_state_tie_set_by_enumeration(self, four_state):
        model, obs, _ = four_state
        paths = all_paths(4, 4)
        joint = path_joint_probs(model, obs, paths)
        best = joint.max()
        ties = {tuple(p) for p in paths[joint >= best - 1e-12]}
        assert ties == {(2, 1, 2, 2), (2, 2, 1, 2), (2, 1, 4, 2), (2, 4, 1, 2)}

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            model, obs, _ = random_instance(rng, num_states=3, horizon=7, zero_frac=0.2)
            paths = all_paths(3, 7)
            joint = path_joint_probs(model, obs, paths)
            decoded = hr.viterbi(model, obs)
            got = joint[np.all(paths == decoded, axis=1)][0]
            assert got == pytest.approx(joint.max(), rel=1e-10)

    def test_zero_evidence(self):
        model = hr.HmmModel([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ZeroEvidenceError):
            hr.viterbi(model, np.array([0, 1]))
