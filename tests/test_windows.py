"""The window primitive against the per-start loops it replaced.

The Rabiner window table (``decoders._window_table``) and
``risk.rabiner_gain_batch`` get every window probability from
``inference.log_window_posterior``, called once per block of window starts;
``risk.kblock_logrisk`` scores all full windows of a path in one
``log_window`` call.  The loops below compute one window start at a time, as
the code did before; they are kept as references.  The table and the k-block
risks must match them bit for bit and the gains within 1e-12 relative.  The
Rabiner walk (``decoders._rabiner_walk``), which records its successors in
the backward sweep and follows them, must return the path of the greedy
forward walk it replaced bit for bit, ties included.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk import decoders
from hmmrisk.inference import log_window_posterior
from hmmrisk.lattice import TIE_TOL
from hmmrisk.risk import rabiner_gain_batch

from conftest import random_categorical_model

FAST = settings(max_examples=80, deadline=None)


def loop_window_table(summary, k):
    """Reference: linear-domain block posteriors of every k-tuple, in base-K
    digit order, one window start at a time."""
    s = summary
    digits = np.array(list(itertools.product(range(s.num_states), repeat=k)))
    table = np.empty((s.horizon - k + 1, len(digits)))
    for t in range(s.horizon - k + 1):
        logw = s.log_forward[t, digits[:, 0]].copy()
        for u in range(k - 1):
            logw += (
                s.log_transition[digits[:, u], digits[:, u + 1]]
                + s.log_emission[t + u + 1, digits[:, u + 1]]
                - s.log_scaling[t + u + 1]
            )
        logw += s.log_backward[t + k - 1, digits[:, k - 1]]
        table[t] = np.exp(logw)
    return table


def loop_gain_batch(summary, paths, k):
    """Reference: the expected number of correct k-blocks of each path,
    accumulated one window start at a time."""
    s = summary
    paths0 = np.asarray(paths) - 1
    gains = np.zeros(len(paths0))
    for t in range(s.horizon - k + 1):
        logw = s.log_forward[t, paths0[:, t]].copy()
        for u in range(k - 1):
            logw += (
                s.log_transition[paths0[:, t + u], paths0[:, t + u + 1]]
                + s.log_emission[t + u + 1, paths0[:, t + u + 1]]
                - s.log_scaling[t + u + 1]
            )
        logw += s.log_backward[t + k - 1, paths0[:, t + k - 1]]
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
            v = chain.log_prior[a - 1, states0[0]]
            if len(states0) > 1:
                v = v + chain.log_transition[states0[:-1], states0[1:]].sum()
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
    got = decoders._rabiner_walk(table, num_states, k)
    want = greedy_rabiner_walk(table, num_states, k)
    assert got.shape == want.shape == (len(table) + k - 1,)
    np.testing.assert_array_equal(got, want)


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
        table = decoders._window_table(summary, k)
    np.testing.assert_array_equal(table, loop_window_table(summary, k))


@FAST
@given(window_cases())
def test_gain_batch_matches_per_start_loop(case):
    summary, k, paths = case
    gains = rabiner_gain_batch(summary, paths, k)
    np.testing.assert_allclose(gains, loop_gain_batch(summary, paths, k), rtol=1e-12, atol=0)
    assert hr.rabiner_block_gain(summary, paths[-1], k) == gains[-1]



@FAST
@given(window_cases(), st.data())
def test_kblock_logrisk_matches_per_window_loop(case, data):
    summary, _, paths = case
    k = data.draw(st.integers(1, summary.horizon))  # every k up to T: no full window is left out
    for chain in (summary, hr.PriorChain(summary.model, summary.horizon)):
        for path in paths:
            got = hr.kblock_logrisk(chain, path, k)
            assert type(got) is float
            assert got == loop_kblock_logrisk(chain, path, k)
