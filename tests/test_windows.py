"""The window primitive and the Rabiner stream against the per-start loops
they replaced.

``inference.log_window_posterior`` is the one code that builds a window
posterior.  The Rabiner window blocks (``decoders._window_blocks``) call it
once per block over an open mesh of every k-tuple, and
``risk.rabiner_gain_batch`` calls it once per batch of paths;
``risk.kblock_logrisk`` scores all full windows of a path in one call, for
a summary and for a prior chain (the summary of no observations) alike.
The loops below compute one window start at a time, as the code did before;
they are kept as references.  The blocks, concatenated, and the k-block
risks must match them bit for bit and the gains within 1e-12 relative.  The
Rabiner walk (``lattice.rabiner_walk``), which sweeps the blocks backward and
tabulates each block's successors before it drops the block, must return the
path of the greedy forward walk it replaced bit for bit, ties included,
however the table is cut into blocks; and the decoder must not hold a
(starts, K^k) table.  The base-K digits of a tuple index, which the walk
and the exhaustive oracle read, come from one expansion, ``lattice._digits``,
which must match numpy's ``unravel_index``.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk import decoders
from hmmrisk.inference import _log, log_window_posterior
from hmmrisk.lattice import TIE_TOL, _digits, rabiner_walk
from hmmrisk.risk import rabiner_gain_batch

from conftest import random_categorical_model

FAST = settings(max_examples=80, deadline=None)


def _log_tables(summary):
    """The logs of the whole scaled forward, emission, scaling and scaled
    backward tables, which the references gather from."""
    tables = (summary.scaled_forward, summary.emission_likelihood, summary.scaling, summary.scaled_backward)
    return (_log(table) for table in tables)


def loop_window_table(summary, k):
    """Reference: linear-domain block posteriors of every k-tuple, in base-K
    digit order, one window start at a time."""
    s = summary
    digits = np.array(list(itertools.product(range(s.num_states), repeat=k)))
    table = np.empty((s.horizon - k + 1, len(digits)))
    log_forward, log_emission, log_scaling, log_backward = _log_tables(s)
    for t in range(s.horizon - k + 1):
        logw = log_forward[t, digits[:, 0]].copy()
        for u in range(k - 1):
            logw += (
                s.log_transition[digits[:, u], digits[:, u + 1]]
                + log_emission[t + u + 1, digits[:, u + 1]]
                - log_scaling[t + u + 1]
            )
        logw += log_backward[t + k - 1, digits[:, k - 1]]
        table[t] = np.exp(logw)
    return table


def loop_gain_batch(summary, paths, k):
    """Reference: the expected number of correct k-blocks of each path,
    accumulated one window start at a time."""
    s = summary
    paths0 = np.asarray(paths) - 1
    gains = np.zeros(len(paths0))
    log_forward, log_emission, log_scaling, log_backward = _log_tables(s)
    for t in range(s.horizon - k + 1):
        logw = log_forward[t, paths0[:, t]].copy()
        for u in range(k - 1):
            logw += (
                s.log_transition[paths0[:, t + u], paths0[:, t + u + 1]]
                + log_emission[t + u + 1, paths0[:, t + u + 1]]
                - log_scaling[t + u + 1]
            )
        logw += log_backward[t + k - 1, paths0[:, t + k - 1]]
        gains += np.exp(logw)
    return gains


def loop_kblock_logrisk(chain, path, k):
    """Reference: one window at a time, truncated boundary windows included,
    added left to right."""
    horizon = chain.horizon
    idx = np.asarray(path) - 1
    total = 0.0
    for j in range(1 - k, horizon):
        a, b = max(j + 1, 1), min(j + k, horizon)
        states0 = idx[a - 1 : b]
        if isinstance(chain, hr.PriorChain):
            v = _log(chain.prior)[a - 1, states0[0]]  # the prior marginal, then the transitions left to right
            for s, u in zip(states0[:-1], states0[1:]):
                v = v + chain.log_transition[s, u]
        else:
            v = log_window_posterior(chain, a - 1, states0)
        total += float(v)
    return -total / horizon


def greedy_rabiner_walk(window_gain, num_states, k):
    """Reference: the full (positions, tuples) cost-to-go table, then a greedy
    forward walk taking the smallest successor within TIE_TOL at every step."""
    n_tuples = num_states ** (k - 1)
    n_positions = len(window_gain) + 1
    successor = (np.arange(n_tuples) % (num_states ** (k - 2)))[:, None] * num_states + np.arange(num_states)[None, :]
    phi = np.zeros((n_positions, n_tuples))
    for tau in range(n_positions - 2, -1, -1):
        vals = window_gain[tau].reshape(n_tuples, num_states) + phi[tau + 1][successor]
        phi[tau] = vals.max(axis=1)
    start = int(np.flatnonzero(phi[0] >= phi[0].max() - TIE_TOL)[0])
    idx = [int(d) for d in np.unravel_index(start, (num_states,) * (k - 1))]
    node = start
    for tau in range(n_positions - 1):
        vals = window_gain[tau].reshape(n_tuples, num_states)[node] + phi[tau + 1][successor[node]]
        nxt = int(np.flatnonzero(vals >= vals.max() - TIE_TOL)[0])
        idx.append(nxt)
        node = successor[node, nxt]
    return np.asarray(idx)


@st.composite
def tied_window_tables(draw):
    """A window table (K 1-4, k 2-4, T k-9) whose entries come from a small
    set, so exact ties and ties inside TIE_TOL are common."""
    num_states, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    horizon = draw(st.integers(k, 9))
    shape = (horizon - k + 1, num_states**k)
    values = st.sampled_from([0.0, 0.5, 0.5 + 1e-13, 1.0])
    cells = draw(st.lists(values, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(cells).reshape(shape), num_states, k


@settings(max_examples=300, deadline=None)
@given(tied_window_tables())
def test_rabiner_walk_matches_greedy_walk(case):
    table, num_states, k = case
    want = greedy_rabiner_walk(table, num_states, k)
    assert want.shape == (len(table) + k - 1,)
    for size in range(1, len(table) + 1):  # blocks of every size, the last block first, as the decoder streams them
        blocks = [table[max(0, hi - size) : hi] for hi in range(len(table), 0, -size)]
        np.testing.assert_array_equal(rabiner_walk(blocks, num_states, k), want)


@pytest.mark.parametrize("base", range(1, 7))
def test_digits_match_unravel_index(base):
    for width in range(1, 21):
        if base**width > 10**6:
            break
        values = np.arange(base**width)
        want = np.stack(np.unravel_index(values, (base,) * width), -1)
        np.testing.assert_array_equal(_digits(values, base, width), want)
        np.testing.assert_array_equal(_digits(values[-1], base, width), want[-1])  # a scalar, as the walk's start tuple


def test_one_state_digits_pass_numpys_axis_limit():
    """One state at width 100: an ``np.ix_`` mesh of 100 axes cannot be built; the flat expansion gives 100 zeros."""
    np.testing.assert_array_equal(_digits(np.arange(1), 1, 100), np.zeros((1, 100), dtype=int))


@st.composite
def window_cases(draw):
    """A summary with structural zeros (K 1-4), a block length k 1-4 and a batch of paths."""
    num_states = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    horizon = draw(st.integers(k, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_categorical_model(rng, num_states, zero_frac=draw(st.sampled_from([0.0, 0.3, 0.6])))
    _, obs = hr.sample_trajectory(model, horizon, int(rng.integers(2**31)))
    paths = rng.integers(1, num_states + 1, size=(draw(st.integers(1, 5)), horizon))
    return hr.forward_backward(model, obs), k, paths


@FAST
@given(window_cases(), st.sampled_from([1, 3, 1 << 16]))
def test_window_table_matches_per_start_loop(case, chunk):
    summary, k, _ = case
    with mock.patch.object(decoders, "_CHUNK", chunk):  # blocks of one start, a few, or all
        blocks = list(decoders._window_blocks(summary, k))
    np.testing.assert_array_equal(np.concatenate(blocks[::-1]), loop_window_table(summary, k))


@FAST
@given(window_cases())
def test_rabiner_decode_does_not_depend_on_block_size(case):
    summary, k, _ = case
    want = hr.rabiner_block_decode(summary, k)
    for chunk in (1, 3):
        with mock.patch.object(decoders, "_CHUNK", chunk):
            assert hr.rabiner_block_decode(summary, k) == want


def test_rabiner_decode_never_holds_the_window_table():
    num_states, k, horizon = 32, 2, 2000
    model = random_categorical_model(np.random.default_rng(4), num_states, zero_frac=0.2)
    _, obs = hr.sample_trajectory(model, horizon, 9)
    summary = hr.forward_backward(model, obs)
    tracemalloc.start()
    try:
        hr.rabiner_block_decode(summary, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = (horizon - k + 1) * num_states**k * 8
    assert peak < table_bytes / 4, (peak, table_bytes)


@pytest.mark.parametrize("k", [63, 64, 80])
def test_one_state_rabiner_decodes_windows_past_numpys_axis_limit(k):
    """A one-state model's window mesh and start tuple would take k + 1 and k - 1 axes, past numpy's 64 at k = 64
    and 80: every window is certain, so the path is all 1s and the gain is T - k + 1."""
    model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.5, 0.5]]))
    decoded = hr.rabiner_block_decode(hr.forward_backward(model, [0, 1] * 40), k)
    assert decoded.path == (1,) * 80
    assert decoded.objective == 80 - k + 1


@FAST
@given(window_cases())
def test_gain_batch_matches_per_start_loop(case):
    summary, k, paths = case
    gains = rabiner_gain_batch(summary, paths, k)
    np.testing.assert_allclose(gains, loop_gain_batch(summary, paths, k), rtol=1e-12, atol=0)
    last = rabiner_gain_batch(summary, paths[-1], k)  # one 1-d path: its row of the batch, as a float
    assert type(last) is float and last == gains[-1]


@FAST
@given(window_cases(), st.data())
def test_kblock_logrisk_matches_per_window_loop(case, data):
    summary, _, paths = case
    k = data.draw(st.integers(1, summary.horizon))  # every k up to T: no full window is left out
    for chain in (summary, hr.PriorChain(summary.prior_chain.model, summary.horizon)):
        for path in paths:
            got = hr.kblock_logrisk(chain, path, k)
            assert type(got) is float
            assert got == loop_kblock_logrisk(chain, path, k)
