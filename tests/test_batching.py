"""A batch equals its stacked singles: the max-sum kernel, the sampler,
forward-backward, the lattice decoders and the grouped Monte Carlo studies.

The step-by-step loops the batched kernels replaced are kept here as
references; where the arithmetic is unchanged the results must be equal bit
for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
import hmmrisk.sim as sim
from hmmrisk import io as hio
from hmmrisk.cli import main
from hmmrisk.errors import NoFinitePathError
from hmmrisk.lattice import TIE_TOL, best_path

from conftest import random_categorical_model

FAST = settings(max_examples=60, deadline=None)


def greedy_best_path(gains, init_extra, trans):
    """Reference: backward cost-to-go sweep, then greedy forward selection of
    the smallest state within TIE_TOL, one position at a time."""
    horizon = gains.shape[0]
    phi = np.empty_like(gains)
    phi[-1] = gains[-1]
    for t in range(horizon - 2, -1, -1):
        phi[t] = gains[t] + np.max(trans + phi[t + 1][None, :], axis=1)
    start = init_extra + phi[0]
    best = float(start.max())
    if not np.isfinite(best):
        raise NoFinitePathError("all candidate paths have -inf score")
    path = [int(np.flatnonzero(start >= best - TIE_TOL)[0])]
    for t in range(1, horizon):
        vals = trans[path[-1]] + phi[t]
        path.append(int(np.flatnonzero(vals >= vals.max() - TIE_TOL)[0]))
    return np.array(path), best


def loop_sample_trajectory(model, horizon, seed):
    """Reference: the hidden chain drawn one position at a time."""
    rng = np.random.default_rng(seed)
    states = np.empty(horizon, dtype=int)
    cdf = np.cumsum(model.transition, axis=1)
    u = rng.random(horizon)
    states[0] = np.searchsorted(np.cumsum(model.initial), u[0], side="right")
    for t in range(1, horizon):
        states[t] = np.searchsorted(cdf[states[t - 1]], u[t], side="right")
    states = np.minimum(states, model.num_states - 1)
    return tuple(int(s) + 1 for s in states), model.emission.sample(states, rng)


# Few distinct values (and -inf) make exact ties between paths common.
TIED = st.sampled_from([-np.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def lattice_batches(draw):
    num = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 9))
    states = draw(st.integers(1, 4))
    if draw(st.booleans()):

        def values(shape):
            size = int(np.prod(shape))
            return np.array(draw(st.lists(TIED, min_size=size, max_size=size))).reshape(shape)

    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

        def values(shape):
            out = rng.normal(size=shape)
            out[rng.random(shape) < 0.2] = -np.inf
            return out

    gains = values((num, horizon, states))
    init_extra = values((num, states))
    trans = values((num, states, states)) if draw(st.booleans()) else values((states, states))
    return gains, init_extra, trans


class TestBestPathBatch:
    @FAST
    @given(lattice_batches())
    def test_rows_match_single_calls_and_greedy_reference(self, batch):
        gains, init_extra, trans = batch
        rows = []
        for n in range(len(gains)):
            row_trans = trans[n] if trans.ndim == 3 else trans
            try:
                single = best_path(gains[n], init_extra[n], row_trans)
            except NoFinitePathError:
                with pytest.raises(NoFinitePathError):
                    greedy_best_path(gains[n], init_extra[n], row_trans)
                rows.append(None)
                continue
            path, score = greedy_best_path(gains[n], init_extra[n], row_trans)
            np.testing.assert_array_equal(single[0], path)
            assert single[1] == score
            rows.append(single)
        if any(row is None for row in rows):
            with pytest.raises(NoFinitePathError):
                best_path(gains, init_extra, trans)
            return
        paths, scores = best_path(gains, init_extra, trans)
        assert paths.shape == gains.shape[:2] and scores.shape == (len(gains),)
        for n, (path, score) in enumerate(rows):
            np.testing.assert_array_equal(paths[n], path)
            assert scores[n] == score

    def test_exact_tie_returns_lexicographically_smallest(self):
        # two disjoint paths (identity transitions) with the same gains in reversed order
        rng = np.random.default_rng(11)
        values = rng.integers(-5, 5, size=50).astype(float)
        gains = np.stack([values, values[::-1]], axis=1)
        trans = np.where(np.eye(2) > 0, 0.0, -np.inf)
        batch = np.stack([gains, gains[:, ::-1]])
        paths, scores = best_path(batch, np.zeros(2), trans)
        np.testing.assert_array_equal(paths, np.zeros((2, 50), dtype=int))
        assert scores[0] == scores[1] == values.sum()

    def test_wide_state_space_uses_small_successor_dtype(self):
        rng = np.random.default_rng(5)
        gains = rng.normal(size=(3, 40, 300))
        trans = rng.normal(size=(300, 300))
        paths, _ = best_path(gains, np.zeros(300), trans)
        for n in range(3):
            np.testing.assert_array_equal(paths[n], greedy_best_path(gains[n], np.zeros(300), trans)[0])


def gaussian_model():
    return hr.HmmModel(
        [0.3, 0.7],
        [[0.9, 0.1], [0.25, 0.75]],
        hr.DiagonalGaussian([[0.0, 1.0], [1.5, -0.5]], [[1.0, 0.5], [0.7, 1.2]]),
    )


@st.composite
def generative_models(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return gaussian_model()
    return random_categorical_model(rng, zero_frac=draw(st.sampled_from([0.0, 0.3])))


class TestSamplerBatch:
    @FAST
    @given(generative_models(), st.integers(1, 40), st.integers(0, 2**31), st.integers(1, 5))
    def test_rows_equal_single_draws_and_loop_reference(self, model, horizon, seed, num):
        paths, observations = hr.sample_trajectories(model, horizon, range(seed, seed + num))
        assert paths.shape == (num, horizon)
        for r in range(num):
            single_path, single_obs = hr.sample_trajectory(model, horizon, seed + r)
            loop_path, loop_obs = loop_sample_trajectory(model, horizon, seed + r)
            assert tuple(paths[r].tolist()) == single_path == loop_path
            np.testing.assert_array_equal(observations[r], single_obs)
            np.testing.assert_array_equal(single_obs, loop_obs)


class TestForwardBackwardBatch:
    @FAST
    @given(generative_models(), st.integers(1, 30), st.integers(0, 2**31), st.integers(1, 4))
    def test_rows_agree_with_single_sequences(self, model, horizon, seed, num):
        _, observations = hr.sample_trajectories(model, horizon, range(seed, seed + num))
        summaries = hr.forward_backward_many(model, observations)
        assert len(summaries) == num
        for obs, summary in zip(observations, summaries):
            single = hr.forward_backward(model, obs)
            for name in ("scaled_forward", "scaled_backward", "scaling", "smoothed", "emission_likelihood", "prior"):
                np.testing.assert_allclose(getattr(summary, name), getattr(single, name), rtol=0, atol=1e-12)
            assert summary.log_evidence == pytest.approx(single.log_evidence, rel=0, abs=1e-12)

    def test_model_tables_are_shared_within_a_batch(self):
        model = gaussian_model()
        _, observations = hr.sample_trajectories(model, 20, range(3))
        first, second, _ = hr.forward_backward_many(model, observations)
        assert first.prior is second.prior
        assert first.log_prior is second.log_prior
        assert first.log_transition is second.log_transition

    def test_unequal_lengths_are_rejected(self):
        model = gaussian_model()
        with pytest.raises(ValueError, match="equal length"):
            hr.forward_backward_many(model, [np.zeros((5, 2)), np.zeros((6, 2))])

    def test_zero_evidence_names_the_first_impossible_position(self):
        model = hr.HmmModel([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(hr.ZeroEvidenceError, match="t=3"):
            hr.forward_backward_many(model, [[0, 0, 0, 0], [0, 0, 1, 1]])


ALL_TAGS = ["viterbi", "pmap", "pvd", "constrained-pmap", "kblock:1", "kblock:3", "alpha:0.25", "rabiner:2", "weights:1/0.5/0.2/0.1/1/0.5"]


class TestDecodeMany:
    def test_every_tag_matches_its_single_summary_decoder(self):
        rng = np.random.default_rng(77)
        model = random_categorical_model(rng, num_states=3, zero_frac=0.3)
        _, observations = hr.sample_trajectories(model, 25, range(100, 104))
        summaries = hr.forward_backward_many(model, observations)
        for tag, decoded in zip(ALL_TAGS, hr.decode_many(summaries, ALL_TAGS)):
            assert len(decoded) == len(summaries)
            for summary, got in zip(summaries, decoded):
                assert got == hr.resolve_decoder(tag)(summary)

    def test_no_summaries_give_empty_lists(self):
        assert list(hr.decode_many([], ["viterbi", "pmap", "rabiner:2"])) == [[], [], []]

    def test_unknown_tag(self, four_state):
        _, _, summary = four_state
        with pytest.raises(ValueError):
            list(hr.decode_many([summary], ["bogus"]))


class TestGroupedStudies:
    @pytest.mark.parametrize("cells", [1, 600])
    def test_trajectories_do_not_depend_on_group_size(self, monkeypatch, cells):
        model = random_categorical_model(np.random.default_rng(3), num_states=2)
        args = (model, ["viterbi", "pmap", "pvd", "kblock:3", "alpha:0.5", "rabiner:2"], [30, 120], 7, 41)
        default = hr.estimate_risk_trajectories(*args)
        monkeypatch.setattr(sim, "_GROUP_CELLS", cells)
        assert hr.estimate_risk_trajectories(*args).records == default.records

    @pytest.mark.parametrize("cells", [1, 600])
    def test_gap_sweep_does_not_depend_on_group_size(self, monkeypatch, cells):
        args = (gaussian_model(), [30, 120], [2, 3, 5], 7, 43)
        default = hr.sandwich_constant_sweep(*args)
        monkeypatch.setattr(sim, "_GROUP_CELLS", cells)
        assert hr.sandwich_constant_sweep(*args) == default


class TestObservationValidation:
    @pytest.mark.parametrize("obs", [[0, 1, -1, 0], [0, 1, 1.7, 0], [0, 1, 2, 0], [[0, 1], [1, 0]]])
    def test_bad_categorical_symbols_raise(self, obs):
        model = hr.HmmModel([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], hr.Categorical([[0.8, 0.2], [0.3, 0.7]]))
        with pytest.raises(ValueError, match="categorical observations|symbol index"):
            hr.forward_backward(model, obs)
        with pytest.raises(ValueError):
            model.emission.log_likelihood(obs)

    @pytest.mark.parametrize("obs", [[0, 1, -1], [0, 1, 4], [0, 1.5, 2]])
    def test_bad_direct_likelihood_positions_raise(self, four_state, obs):
        model, _, _ = four_state
        with pytest.raises(ValueError, match="direct-likelihood observations|position index"):
            hr.forward_backward(model, obs)

    def test_cli_decode_rejects_a_negative_symbol(self, tmp_path, capsys):
        model = hr.HmmModel([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], hr.Categorical([[0.8, 0.2], [0.3, 0.7]]))
        hio.save_model(model, tmp_path / "m.json")
        (tmp_path / "x.txt").write_text("0\n1\n-1\n0\n")
        argv = ["decode", "--model", str(tmp_path / "m.json"), "--obs", str(tmp_path / "x.txt"), "--k", "2", "--out", str(tmp_path / "p.txt")]
        assert main(argv) == 10
        assert "symbol index" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()
