"""The paper's optimality inequalities as an oracle at scale.

Each estimator is the minimizer of an explicit risk, so at any horizon a
decoder's path must be no worse under its own objective than the path of any
other decoder.  The brute-force oracle stops at a few million paths; these
checks run at T = 2000 on random models with structural zeros.

The Rabiner path of block length k maximizes the expected number of correct
length-k windows, so its ``rabiner_gain_batch`` is at least that of every
other decoder's path, up to a rounding allowance of 1e-12 per position.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk.risk import rabiner_gain_batch

from conftest import random_categorical_model

HORIZON = 2000


def scale_summary(num_states, seed):
    """A model with about 20% zero transitions and a sampled sequence of T = 2000."""
    rng = np.random.default_rng(seed)
    model = random_categorical_model(rng, num_states, zero_frac=0.2)
    _, obs = hr.sample_trajectory(model, HORIZON, int(rng.integers(2**31)))
    return hr.forward_backward(model, obs)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (8, 2), (8, 3), (32, 2)]), st.integers(0, 2**32 - 1))
def test_rabiner_path_has_the_largest_block_gain(sizes, seed):
    num_states, k = sizes  # K in {2, 8, 32}; k = 3 only for K <= 8
    summary = scale_summary(num_states, seed)
    others = ["viterbi", "pmap", "pvd", "kblock:3", "alpha:0.5", f"rabiner:{k - 1}"]
    decoded = [paths[0] for paths in hr.decode_many([summary], [*others, f"rabiner:{k}"])]
    gains = rabiner_gain_batch(summary, np.array([d.path for d in decoded]), k)
    for tag, gain in zip(others, gains[:-1]):
        assert gains[-1] >= gain - 1e-12 * HORIZON, (tag, gains[-1], gain)
