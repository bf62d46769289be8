"""A batch equals its stacked singles: the max-sum kernel, the sampler,
forward-backward, the lattice decoders and the grouped Monte Carlo studies.

The step-by-step loops the batched kernels replaced are kept here as
references; where the arithmetic is unchanged the results must be equal bit
for bit.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
import hmmrisk.decoders as decoders
import hmmrisk.inference as inference
import hmmrisk.lattice as lattice
import hmmrisk.sim as sim
from hmmrisk.cli import main
from hmmrisk.errors import NoFinitePathError
from hmmrisk.lattice import TIE_TOL, best_path

from conftest import random_categorical_model, write_model

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
def lattice_batches(draw, max_horizon=9):
    num = draw(st.integers(1, 6))
    horizon = draw(st.integers(1, max_horizon))
    states = draw(st.integers(1, 9))
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


LATTICE_TAGS = ["viterbi", "pvd", "constrained-pmap", "kblock:1", "kblock:3", "alpha:0.25", "weights:1/0.5/0.2/0.1/1/0.5"]


def solve(gains, init_extra, trans):
    try:
        return best_path(gains, init_extra, trans)
    except NoFinitePathError:
        return None


def assert_stream_matches(tables, stacked, init_extra, trans, block):
    """best_path on the per-problem ``tables`` with ``_BLOCK`` patched to
    ``block`` equals the call on the (N, T, K) ``stacked`` array bit for bit,
    and each row equals greedy_best_path; NoFinitePathError is raised by all
    three or by none."""
    expected = solve(stacked, init_extra, trans)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "_BLOCK", block)
        got = solve(tables, init_extra, trans)
    greedy = []
    for n in range(len(stacked)):
        try:
            greedy.append(greedy_best_path(stacked[n], init_extra[n], trans[n] if trans.ndim == 3 else trans))
        except NoFinitePathError:
            greedy.append(None)
    if expected is None:
        assert got is None and None in greedy
        return
    assert got is not None and None not in greedy
    assert got[0].dtype == expected[0].dtype and got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()
    for n, (path, score) in enumerate(greedy):
        np.testing.assert_array_equal(got[0][n], path)
        assert got[1][n] == score


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
        # real-valued gains U(-3, 0) at K = 4 (states 3 and 4 impossible), seeds 0-49, up to T = 300, the horizon the
        # README states the tie rule is checked at (from about T = 1000 the absolute TIE_TOL can pick the larger path)
        values = np.array([np.random.default_rng(seed).uniform(-3, 0, 300) for seed in range(50)])
        gains = np.full((50, 300, 4), -np.inf)
        gains[..., 0], gains[..., 1] = values, values[:, ::-1]
        paths, _ = best_path(gains, np.zeros(4), np.where(np.eye(4) > 0, 0.0, -np.inf))
        np.testing.assert_array_equal(paths, np.zeros((50, 300), dtype=int))

    @FAST
    @given(lattice_batches())
    def test_input_is_only_read_and_scores_match_the_loop_reference(self, batch):
        gains, init_extra, trans = batch
        before = gains.copy()
        gains.setflags(write=False)
        phi = before.copy()
        row_trans = np.broadcast_to(trans, (len(gains),) + trans.shape[-2:])
        for t in range(gains.shape[1] - 2, -1, -1):
            phi[:, t] = before[:, t] + np.max(row_trans + phi[:, t + 1, None, :], axis=2)
        expected = np.max(init_extra + phi[:, 0], axis=1)
        if not np.all(np.isfinite(expected)):
            with pytest.raises(NoFinitePathError):
                best_path(gains, init_extra, trans)
        else:
            np.testing.assert_array_equal(best_path(gains, init_extra, trans)[1], expected)
        with contextlib.suppress(NoFinitePathError):
            best_path(gains[0], init_extra[0], trans[0] if trans.ndim == 3 else trans)
        np.testing.assert_array_equal(gains, before)

    @settings(max_examples=100, deadline=None)
    @given(lattice_batches(max_horizon=40), st.sampled_from([1, 2, 3, 16, 40]))
    def test_small_blocks_cross_window_seams_bit_for_bit(self, batch, block):
        gains, init_extra, trans = batch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "_BLOCK", block)
            try:
                paths, scores = best_path(gains, init_extra, trans)
            except NoFinitePathError:
                paths = None
        rows = []
        for n in range(len(gains)):
            try:
                rows.append(greedy_best_path(gains[n], init_extra[n], trans[n] if trans.ndim == 3 else trans))
            except NoFinitePathError:
                rows.append(None)
        if paths is None:
            assert any(row is None for row in rows)
            return
        for n, (path, score) in enumerate(rows):
            np.testing.assert_array_equal(paths[n], path)
            assert scores[n] == score

    @settings(max_examples=100, deadline=None)
    @given(lattice_batches(max_horizon=40), st.sampled_from([1, 2, 3, 16]))
    def test_a_list_of_tables_streams_bit_for_bit(self, batch, block):
        gains, init_extra, trans = batch
        assert_stream_matches([np.array(g) for g in gains], gains, init_extra, trans, block)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(LATTICE_TAGS), min_size=1, max_size=3),
        st.integers(1, 3),
        st.integers(1, 30),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 16]),
    )
    def test_decoder_rows_stream_bit_for_bit(self, tags, num, horizon, zero_frac, seed, block):
        rng = np.random.default_rng(seed)
        model = random_categorical_model(rng, num_states=int(rng.integers(1, 4)), zero_frac=zero_frac)
        _, observations = hr.sample_trajectories(model, horizon, range(seed, seed + num))
        stack = inference.stack_of(hr.forward_backward_many(model, observations))
        rows = [decoders._Gains(decoders._parse_tag(tag), stack) for tag in tags]  # one per decoder, over the group
        init_extra, trans = (np.concatenate(scores) for scores in zip(*(row.decoder.scores(stack) for row in rows)))
        assert_stream_matches(rows, np.concatenate([row[:, :] for row in rows]), init_extra, trans, block)

    def test_peak_memory_is_a_fraction_of_the_gains(self):
        # the cost-to-go window, the gains block and the tie-break blocks are about _BLOCK elements each; what
        # grows with N T is the uint8 successor table (gains.nbytes / 8) and the uint8 paths (gains.nbytes / 8K)
        rng = np.random.default_rng(3)
        gains = rng.normal(size=(4, 4000, 32))
        trans = rng.normal(size=(32, 32))
        tracemalloc.start()
        try:
            best_path(gains, np.zeros(32), trans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gains.nbytes / 4, (peak, gains.nbytes)

    def test_wide_state_space_uses_small_successor_dtype(self):
        rng = np.random.default_rng(5)
        gains = rng.normal(size=(3, 40, 300))
        trans = rng.normal(size=(300, 300))
        paths, _ = best_path(gains, np.zeros(300), trans)
        for n in range(3):
            np.testing.assert_array_equal(paths[n], greedy_best_path(gains[n], np.zeros(300), trans)[0])


# Values tied exactly, tied within TIE_TOL of 0.5 (and one just outside), -inf and NaN.
NEAR = st.sampled_from([-np.inf, np.nan, 0.0, 0.5, 0.5 - TIE_TOL / 2, 0.5 + TIE_TOL / 2, 0.5 + 3 * TIE_TOL, 1.0])


def first_hits(vals, axis):
    """Reference for the tie rule: the max and the first index within TIE_TOL of it (0 if none)."""
    best = vals.max(axis=axis, keepdims=True)
    return best.squeeze(axis), np.argmax(vals >= best - TIE_TOL, axis)


class TestTieRule:
    @FAST
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
    def test_near_max_is_the_first_hit_on_every_axis(self, shape, data):
        size = int(np.prod(shape))
        vals = np.array(data.draw(st.lists(NEAR, min_size=size, max_size=size))).reshape(shape)
        for axis in range(-len(shape), len(shape)):
            best, idx = lattice.near_max(vals, axis)
            ref_best, ref_idx = first_hits(vals, axis)
            np.testing.assert_array_equal(best, ref_best)
            np.testing.assert_array_equal(idx, ref_idx)

    @pytest.mark.parametrize("width", [1, 2, 255, 256, 257])
    def test_near_max_on_rows_of_ties_inf_and_nan(self, width):
        vals = np.zeros((width, 6, 2))
        vals[:, 0] = -np.inf  # every entry is a hit
        vals[:, 1] = np.nan  # no entry is a hit
        vals[width // 2, 2] = np.nan  # the max is NaN, so no entry is a hit
        vals[-1, 3] = 1.0  # the last entry is the only hit
        vals[:, 4] = 1.0 - TIE_TOL / 2
        vals[-1, 4] = 1.0  # every entry is a hit inside TIE_TOL
        vals[-1, 5], vals[0, 5] = 1.0, 1.0 - 2 * TIE_TOL  # only the last entry is a hit
        for axis in range(-3, 3):
            best, idx = lattice.near_max(vals, axis)
            ref_best, ref_idx = first_hits(vals, axis)
            np.testing.assert_array_equal(best, ref_best)
            np.testing.assert_array_equal(idx, ref_idx)
        last = 0 if width == 1 else width - 1
        np.testing.assert_array_equal(lattice.near_max(vals, 0)[1][:, 0], [0, 0, 0, last, 0, last])

    @pytest.mark.parametrize("states", [255, 256, 257])
    def test_best_path_past_uint8_states_matches_greedy(self, states):
        rng = np.random.default_rng(states)
        gains = rng.choice([-np.inf, -1.0, 0.0, 0.5], size=(2, 7, states))
        gains[:, ::2, -1] = 3.0  # the last state wins every other position
        trans = rng.choice([-np.inf, -1.0, 0.0], p=[0.1, 0.45, 0.45], size=(states, states))
        trans[:, -1] = trans[-1] = 0.0
        init_extra = rng.choice([-1.0, 0.0], size=(2, states))
        paths, scores = best_path(gains, init_extra, trans)
        assert paths.dtype == np.min_scalar_type(states - 1)
        for n in range(2):
            path, score = greedy_best_path(gains[n], init_extra[n], trans)
            assert path[0::2].tolist() == [states - 1] * 4
            np.testing.assert_array_equal(paths[n], path)
            assert scores[n] == score
            single = best_path(gains[n], init_extra[n], trans)
            np.testing.assert_array_equal(single[0], path)
            assert single[1] == score


def loop_follow(first, successors):
    """Reference: the successor tables chased one step at a time."""
    paths = np.empty((len(successors) + 1, len(first)), dtype=successors.dtype)
    paths[0] = first
    for t, step in enumerate(successors):
        paths[t + 1] = step[np.arange(len(first)), paths[t]]
    return paths.T


@st.composite
def successor_tables(draw):
    """(first, successors) of N problems over T positions; widths 65 and 256 take the plain walk, the rest blocks."""
    width = draw(st.sampled_from([1, 2, 3, 16, 17, 64, 65, 256]))
    num = draw(st.integers(1, 40))
    horizon = draw(st.integers(1, min(3000, 1 + 400_000 // (num * width))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    successors = rng.integers(0, width, size=(horizon - 1, num, width)).astype(np.min_scalar_type(width - 1))
    if draw(st.booleans()):  # drawn to the last state, whose index is 255 at width 256
        successors[rng.random(successors.shape) < 0.5] = width - 1
    return rng.integers(0, width, size=num), successors


class TestFollow:
    @FAST
    @given(successor_tables())
    def test_blocked_walk_equals_the_step_by_step_walk(self, table):
        first, successors = table
        got, expected = lattice.follow(first, successors), loop_follow(first, successors)
        assert got.dtype == expected.dtype == successors.dtype
        np.testing.assert_array_equal(got, expected)

    def test_last_block_may_be_partial(self):
        # 1000 steps of 1 problem fall into blocks of 7; 1000 = 142 * 7 + 6
        rng = np.random.default_rng(8)
        successors = rng.integers(0, 3, size=(1000, 1, 3)).astype(np.uint8)
        np.testing.assert_array_equal(lattice.follow(np.array([2]), successors), loop_follow(np.array([2]), successors))


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

    def test_truth_visits_state_256(self):
        # every state moves to the last one, whose uint8 index at K = 256 is 255; the labels take the smallest
        # unsigned dtype that holds K
        for num_states, dtype in ((255, np.uint8), (256, np.uint16)):
            transition = np.zeros((num_states, num_states))
            transition[:, -1] = 1.0
            emission = hr.Categorical(np.full((num_states, 2), 0.5))
            model = hr.HmmModel(np.full(num_states, 1 / num_states), transition, emission)
            truths, _ = hr.sample_trajectories(model, 6, range(3))
            assert truths.dtype == dtype
            assert np.all(truths[:, 1:] == num_states) and np.all(truths >= 1)


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

    @pytest.mark.parametrize("num_states", [1, 2, 3, 8, 17, 32, 64])
    def test_rows_equal_single_sequences_bit_for_bit_at_scale(self, num_states):
        """A batch steps through np.matmul and a batch of one through np.dot,
        which reach one gemv per row: at T = 2e4 every table is the same bit
        for bit.  The model's zeros rule successors out, so the backward mask
        runs."""
        rng = np.random.default_rng(num_states)
        model = random_categorical_model(rng, num_states, num_symbols=5, zero_frac=0.3)
        _, observations = hr.sample_trajectories(model, 20000, [11, 12])
        for obs, row in zip(observations, hr.forward_backward_many(model, observations)):
            single = hr.forward_backward(model, obs)
            for name in ("scaled_forward", "scaled_backward", "scaling", "smoothed"):
                assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name
            assert row.log_evidence == single.log_evidence
            assert num_states == 1 or not single.scaled_forward.all()

    def test_model_tables_are_shared_within_a_batch(self):
        model = gaussian_model()
        _, observations = hr.sample_trajectories(model, 20, range(3))
        first, second, _ = hr.forward_backward_many(model, observations)
        assert first.prior is second.prior
        assert first.log_transition is second.log_transition

    def test_prior_marginals_are_built_once_per_batch_on_first_use(self, monkeypatch):
        calls = []

        def counted(model, horizon):
            calls.append(horizon)
            return hr.model.prior_marginals(model, horizon)

        monkeypatch.setattr(inference, "prior_marginals", counted)
        model = gaussian_model()
        _, observations = hr.sample_trajectories(model, 20, range(4))
        summaries = hr.forward_backward_many(model, observations)
        assert calls == []
        for decoded in hr.decode_many(summaries, ["viterbi", "pmap", "pvd", "kblock:3", "weights:1/0/1/0"]):
            assert len(decoded) == len(summaries)  # each path's risk report reads the prior marginals
        assert calls == [20]

    def test_unequal_lengths_are_rejected(self):
        model = gaussian_model()
        with pytest.raises(ValueError, match="equal length"):
            hr.forward_backward_many(model, [np.zeros((5, 2)), np.zeros((6, 2))])

    def test_zero_evidence_names_the_first_impossible_position(self):
        model = hr.HmmModel([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(hr.ZeroEvidenceError, match="t=3"):
            hr.forward_backward_many(model, [[0, 0, 0, 0], [0, 0, 1, 1]])


def report_bits(reports):
    return np.array([list(report.as_dict().values()) for report in reports]).tobytes()


class TestGroupScoring:
    @FAST
    @given(
        st.integers(1, 6),
        st.sampled_from([1, 2, 7, 40, 129, 1000, 5000]),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_group_reports_equal_row_by_row_reports_bit_for_bit(self, num, horizon, zero_frac, seed, fortran, own):
        rng = np.random.default_rng(seed)
        model = random_categorical_model(rng, num_states=int(rng.integers(1, 4)), zero_frac=zero_frac)
        _, observations = hr.sample_trajectories(model, horizon, range(seed, seed + num))
        summaries = hr.forward_backward_many(model, observations)
        if not own:  # not the rows of one call in order: the group stacks copies
            summaries = summaries[::-1] + summaries[:1]
        paths = rng.integers(1, model.num_states + 1, size=(len(summaries), horizon))  # impossible ones included
        group = inference.stack_of(summaries)
        assert (group is summaries[0].stack) == own
        reports = hr.evaluate_risks(group, np.asfortranarray(paths) if fortran else paths)
        singles = [hr.evaluate_risks(summary, path) for summary, path in zip(summaries, paths)]
        assert report_bits(reports) == report_bits(singles)

    def test_impossible_paths_score_infinite_risks_in_a_group(self):
        model = hr.HmmModel([0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]], hr.Categorical([[0.9, 0.1], [0.2, 0.8]]))
        summaries = hr.forward_backward_many(model, [[0, 1, 1, 0]] * 3)
        paths = np.array([[1, 2, 2, 1], [1, 1, 1, 1], [2, 2, 1, 2]])  # 1 -> 2 is ruled out
        reports = hr.evaluate_risks(inference.stack_of(summaries), np.asfortranarray(paths))
        assert [report.rbarinf_posterior == np.inf for report in reports] == [True, False, True]
        assert report_bits(reports) == report_bits([hr.evaluate_risks(s, p) for s, p in zip(summaries, paths)])

    def test_a_group_scores_one_path_per_summary(self):
        summaries = hr.forward_backward_many(gaussian_model(), [np.zeros((3, 2))] * 2)
        with pytest.raises(ValueError, match="scores a \\(2, T\\) block"):
            hr.evaluate_risks(inference.stack_of(summaries), [1, 2, 1])
        with pytest.raises(ValueError, match="scores a \\(2, T\\) block"):
            hr.evaluate_risks(inference.stack_of(summaries), [[1, 2, 1]] * 3)


ALL_TAGS = ["viterbi", "pmap", "pvd", "constrained-pmap", "kblock:1", "kblock:3", "alpha:0.25", "rabiner:2", "weights:1/0.5/0.2/0.1/1/0.5"]


# lattice and non-lattice tags; weights:0/0/1/0 scores the prior marginals only
MIXED_TAGS = ALL_TAGS + ["alpha:1", "rabiner:1", "weights:0/0/1/0", "kblock:2"]


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

    def test_summaries_of_other_calls_and_models_match_their_single_summary_decoders(self):
        # not the rows of one forward_backward_many call in order: the group stacks copies, row by row
        rng = np.random.default_rng(5)
        models = [random_categorical_model(rng, num_states=3, zero_frac=0.3) for _ in range(2)]
        summaries = []
        for model in models:
            summaries += hr.forward_backward_many(model, hr.sample_trajectories(model, 15, range(2))[1])
        summaries = summaries[::-1] + [hr.PriorChain(models[0], 15), summaries[0]]
        assert inference.stack_of(summaries).smoothed.shape == (6, 15, 3)
        for tag, decoded in zip(ALL_TAGS, hr.decode_many(summaries, ALL_TAGS)):
            assert decoded == [hr.resolve_decoder(tag)(summary) for summary in summaries]

    @FAST
    @given(
        st.lists(st.sampled_from(MIXED_TAGS), max_size=8),
        st.integers(1, 4),
        st.integers(2, 9),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.integers(0, 2**32 - 1),
    )
    def test_mixed_tag_lists_match_single_summary_decoders(self, tags, num, horizon, zero_frac, seed):
        rng = np.random.default_rng(seed)
        model = random_categorical_model(rng, num_states=int(rng.integers(1, 4)), zero_frac=zero_frac)
        _, observations = hr.sample_trajectories(model, horizon, range(seed, seed + num))
        summaries = hr.forward_backward_many(model, observations)
        decoded = list(hr.decode_many(summaries, tags))
        assert len(decoded) == len(tags)
        for tag, paths in zip(tags, decoded):
            assert paths == [hr.resolve_decoder(tag)(summary) for summary in summaries]

    def test_lattice_tags_share_one_kernel_call_at_the_first_lattice_turn(self, monkeypatch, four_state):
        _, _, summary = four_state
        rows = []

        def counting(gains, init_extra, trans):
            rows.append(len(init_extra))  # problems: gains holds one row per lattice tag over the group
            return best_path(gains, init_extra, trans)

        monkeypatch.setattr(decoders, "best_path", counting)
        tags = ["pmap", "rabiner:2", "kblock:2", "pmap", "viterbi", "pvd"]
        decoded = hr.decode_many([summary, summary], tags)
        next(decoded), next(decoded)
        assert rows == []
        next(decoded)
        assert rows == [3 * 2]  # lattice tags x summaries
        assert [paths[0].decoder_tag for paths in decoded] == ["pmap", "viterbi", "pvd"]
        assert rows == [3 * 2]

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", ["bogus", "kblock:0", "weights:1/2"])
    def test_a_bad_tag_anywhere_raises_before_the_kernel_runs(self, monkeypatch, four_state, position, bad):
        _, _, summary = four_state
        calls = []
        monkeypatch.setattr(decoders, "best_path", lambda *args: calls.append(args))
        tags = ["viterbi", "pmap", "kblock:2", "rabiner:2"]
        tags.insert(position, bad)
        with pytest.raises(ValueError):
            next(hr.decode_many([summary], tags))
        assert calls == []

    def test_finish_reports_the_risks_evaluate_risks_gives(self):
        rng = np.random.default_rng(19)
        for zero_frac in (0.0, 0.3, 0.6):
            model = random_categorical_model(rng, num_states=3, zero_frac=zero_frac)
            _, obs = hr.sample_trajectory(model, 12, int(rng.integers(2**31)))
            summary = hr.forward_backward(model, obs)
            idx = rng.integers(0, 3, size=(20, 12))  # arbitrary paths, impossible ones included
            group = inference.stack_of([summary] * len(idx))
            for decoded, row in zip(decoders._finish(group, "any", idx, [0.0] * len(idx)), idx):
                assert decoded.path == tuple(int(s) + 1 for s in row)
                assert decoded.risks == hr.evaluate_risks(summary, decoded.path)
                assert decoded.admissible == bool(np.isfinite(decoded.risks.rbarinf_posterior))

    def test_state_256_survives_the_uint8_paths(self):
        # uniform transitions: each decoder picks the state whose emission fits best, state 1 or 256; the
        # Rabiner walk's 256 tuples are uint8 too
        table = np.full((256, 2), 0.5)
        table[0], table[-1] = [0.9, 0.1], [0.1, 0.9]
        model = hr.HmmModel(np.full(256, 1 / 256), np.full((256, 256), 1 / 256), hr.Categorical(table))
        summaries = hr.forward_backward_many(model, [[0, 1, 1, 0, 1]] * 2)
        tags = ["viterbi", "pvd", "constrained-pmap", "kblock:3", "alpha:0.5", "rabiner:2"]
        for decoded in hr.decode_many(summaries, tags):
            assert [d.path for d in decoded] == [(1, 256, 256, 1, 256)] * 2

    def test_lattice_tags_peak_below_their_gains_stack(self):
        # 4 lattice tags x 8 summaries at T = 2000, K = 2: an (L N, T, K) float64 gains stack alone is 1,024,000 bytes
        model, tags = gaussian_model(), ["viterbi", "pvd", "kblock:3", "constrained-pmap"]
        _, observations = hr.sample_trajectories(model, 2000, range(8))
        summaries = hr.forward_backward_many(model, observations)
        for summary in summaries:  # the logs of the linear tables, and the cached prior marginals, built beforehand
            inference._log(summary.emission_likelihood), inference._log(summary.smoothed), summary.prior
        tracemalloc.start()
        try:
            for decoded in hr.decode_many(summaries, tags):  # one tag at a time, as the Monte Carlo groups read them
                assert len(decoded) == len(summaries)
            del decoded
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(tags) * len(summaries) * 2000 * 2 * 8, peak

    def test_one_stack_per_call(self, monkeypatch):
        """The horizon check, pmap and the lattice tags read one stack: one of
        copies for summaries that are not one batch in order, and none built
        for a batch, whose own stack they read."""
        model = gaussian_model()
        summaries = hr.forward_backward_many(model, hr.sample_trajectories(model, 10, range(3))[1])
        built = []

        class CountedStack(inference.SummaryStack):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(inference, "SummaryStack", CountedStack)
        for group, stacks in ((summaries[::-1], 1), (summaries, 0)):
            built.clear()
            decoded = list(hr.decode_many(group, ["pmap", "pvd"]))
            assert len(built) == stacks
            assert decoded == [[hr.resolve_decoder(tag)(summary) for summary in group] for tag in ("pmap", "pvd")]

    def test_one_evaluate_risks_call_per_tag(self, monkeypatch):
        """Every tag, rabiner:k included, scores a group's (N, T) block of paths in one call."""
        model = gaussian_model()
        summaries = hr.forward_backward_many(model, hr.sample_trajectories(model, 10, range(3))[1])
        calls = []

        def counting(stack, paths):
            calls.append(len(paths))
            return hr.evaluate_risks(stack, paths)

        monkeypatch.setattr(decoders, "evaluate_risks", counting)
        for tag in ("pmap", "pvd", "rabiner:1", "rabiner:2"):
            calls.clear()
            (decoded,) = hr.decode_many(summaries, [tag])
            assert len(decoded) == 3 and calls == [3], tag

    @FAST
    @given(
        st.sampled_from(["pmap", "rabiner:1", "rabiner:2"]),
        st.integers(1, 4),
        st.integers(2, 6),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.integers(0, 2**32 - 1),
    )
    def test_group_rows_match_the_oracle(self, tag, num, horizon, zero_frac, seed):
        """Each row of a group equals the exhaustive oracle's path, and its objective within the oracle's TIE_TOL."""
        rng = np.random.default_rng(seed)
        model = random_categorical_model(rng, num_states=int(rng.integers(1, 4)), zero_frac=zero_frac)
        _, observations = hr.sample_trajectories(model, horizon, range(seed, seed + num))
        summaries = hr.forward_backward_many(model, observations)
        objective, _, k = tag.partition(":")
        (decoded,) = hr.decode_many(summaries, [tag])
        for summary, got in zip(summaries, decoded):
            oracle = hr.brute_force_decode(summary, objective, int(k) if k else None)
            assert got.path == oracle.path
            assert abs(got.objective - oracle.objective) <= TIE_TOL

    def test_no_summaries_give_empty_lists(self):
        assert list(hr.decode_many([], ["viterbi", "pmap", "rabiner:2"])) == [[], [], []]

    def test_unknown_tag(self, four_state):
        _, _, summary = four_state
        with pytest.raises(ValueError):
            list(hr.decode_many([summary], ["bogus"]))


class TestGroupedStudies:
    @pytest.mark.parametrize("cap, replicates, sizes", [(10, 20, [10, 10]), (8, 20, [8, 8, 4]), (8, 1, [1]), (25, 20, [20])])
    def test_groups_hold_at_most_the_cap(self, monkeypatch, cap, replicates, sizes):
        """Groups of cap replicates and the remainder, with seeds in order."""
        monkeypatch.setattr(sim, "_GROUP_CELLS", cap * 2000 * 2)
        groups = list(sim._groups(gaussian_model(), 2000, replicates, 5))
        assert [len(seeds) for _, seeds in groups] == sizes
        assert [lo for lo, _ in groups] == np.cumsum([0] + sizes[:-1]).tolist()
        assert [seed for _, seeds in groups for seed in seeds] == list(range(5, 5 + replicates))

    def test_default_groups_at_two_and_32_states(self):
        """At T = 2000, 20 replicates of a 2-state model run as one group of 20, or as two groups of 10 when a tag
        reads window posteriors, and a 32-state model runs one replicate per group either way."""
        wide = hr.HmmModel(np.full(32, 1 / 32), np.full((32, 32), 1 / 32), hr.Categorical(np.full((32, 2), 0.5)))
        for tags, narrow_sizes in ((["viterbi", "pmap", "rabiner:1"], [20]), (["pvd", "rabiner:2"], [10, 10])):
            parsed = [decoders._parse_tag(tag) for tag in tags]
            assert [len(seeds) for _, seeds in sim._groups(gaussian_model(), 2000, 20, 0, parsed)] == narrow_sizes
            assert [len(seeds) for _, seeds in sim._groups(wide, 2000, 4, 0, parsed)] == [1, 1, 1, 1]

    def test_a_group_of_ten_peaks_below_nine_tables_per_replicate(self):
        """One group of 10 at T = 2000, K = 2 with five tags, sampled, smoothed, decoded and scored, peaks below
        9 (T, K) float64 tables per replicate (tracemalloc)."""
        model = hr.HmmModel([0.4, 0.6], [[0.8, 0.2], [0.3, 0.7]], hr.DiagonalGaussian([[0.0], [1.5]], [[1.0], [0.8]]))
        parsed = [decoders._parse_tag(tag) for tag in ("viterbi", "pmap", "pvd", "kblock:3", "alpha:0.5")]
        num, horizon = 10, 2000
        values = [{metric: np.empty(num) for metric in sim.METRICS} for _ in parsed]
        sim._record_group(values, model, parsed, horizon, range(num), 0)  # imports and caches warmed up first
        tracemalloc.start()
        try:
            sim._record_group(values, model, parsed, horizon, range(num, 2 * num), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * num * horizon * 2 * 8, peak

    def test_a_group_of_twenty_peaks_below_five_tables_per_replicate(self):
        """One group of 20 at T = 2000, K = 2 with five tags that read no window posteriors peaks below 5 (T, K)
        float64 tables per replicate (tracemalloc): the summaries keep the likelihood and smoothed tables only, the
        smoothed rows overwrite the forward table, and the paths are scored as uint8 labels."""
        model = hr.HmmModel([0.4, 0.6], [[0.8, 0.2], [0.3, 0.7]], hr.DiagonalGaussian([[0.0], [1.5]], [[1.0], [0.8]]))
        parsed = [decoders._parse_tag(tag) for tag in ("viterbi", "pmap", "pvd", "kblock:3", "alpha:0.5")]
        num, horizon = 20, 2000
        assert [len(seeds) for _, seeds in sim._groups(model, horizon, num, 0, parsed)] == [num]
        values = [{metric: np.empty(num) for metric in sim.METRICS} for _ in parsed]
        sim._record_group(values, model, parsed, horizon, range(num), 0)  # imports and caches warmed up first
        tracemalloc.start()
        try:
            sim._record_group(values, model, parsed, horizon, range(num, 2 * num), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * num * horizon * 2 * 8, peak

    @pytest.mark.parametrize("cells", [1, 300, 600])  # 300: groups of 5 and 2 at T = 30, of at most 2 with rabiner:2
    @pytest.mark.parametrize("windows", [[], ["rabiner:2"]])  # both sides of the window rule
    def test_trajectories_do_not_depend_on_group_size(self, monkeypatch, cells, windows):
        model = random_categorical_model(np.random.default_rng(3), num_states=2)
        args = (model, ["viterbi", "pmap", "pvd", "kblock:3", "alpha:0.5", "rabiner:1"] + windows, [30, 120], 7, 41)
        default = hr.estimate_risk_trajectories(*args)
        monkeypatch.setattr(sim, "_GROUP_CELLS", cells)
        assert hr.estimate_risk_trajectories(*args).records == default.records

    @pytest.mark.parametrize("cells", [1, 300, 600])  # 300: groups of 5 and 2 at T = 30
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
        write_model(model, tmp_path / "m.json")
        (tmp_path / "x.txt").write_text("0\n1\n-1\n0\n")
        argv = ["decode", "--model", str(tmp_path / "m.json"), "--obs", str(tmp_path / "x.txt"), "--k", "2", "--out", str(tmp_path / "p.txt")]
        assert main(argv) == 10
        assert "symbol index" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()
