"""The window primitive against the per-start loops it replaced.

The Rabiner window table (``decoders._window_table``) and
``risk.rabiner_gain_batch`` get every window probability from
``inference.log_window_posterior``, called once per block of window starts.
The loops below compute one window start at a time, as the code did before;
they are kept as references.  The table must match them bit for bit and the
gains within 1e-12 relative.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk import decoders
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

