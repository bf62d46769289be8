"""The paper's optimality inequalities as an oracle at scale.

Each estimator is the minimizer of an explicit risk, so at any horizon a
decoder's path must be no worse under its own objective than the path of any
other decoder.  The brute-force oracle stops at a few million paths; these
checks run at T up to 2e4 on random models with structural zeros.

- Each lattice tag's path has the smallest ``combined_risk`` under the
  tag's own weights, written out here from the paper's definitions, among
  all decoded paths of finite risk, and the tag reports that risk as its
  objective.
- pmap has the smallest pointwise risk ``r1_posterior`` of all paths;
  constrained-pmap has the smallest ``r1_posterior`` and pvd the smallest
  ``rbar1_posterior`` among the admissible paths.
- The k-block path's excess joint log-risk over the Viterbi path lies in
  [0, rbar1(viterbi) / (k - 1)], less the tie rule's slack below: Viterbi's
  lexicographically smallest path is optimal only within ``TIE_TOL``.
- The Rabiner path of block length k maximizes the expected number of
  correct length-k windows, so its ``rabiner_gain_batch`` is at least that
  of every other decoder's path, up to a rounding allowance of 1e-12 per
  position.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk.risk import combined_risk, rabiner_gain_batch

from conftest import random_categorical_model

HORIZON = 2000
TOL = 1e-12
LATTICE_WEIGHTS = {
    "viterbi": hr.RiskWeights(0.0, 1.0, 0.0, 0.0),
    "kblock:3": hr.RiskWeights(1.0, 2.0, 0.0, 0.0),  # (1, k - 1, 0, 0) with the logarithmic pointwise term
    "alpha:0.5": hr.RiskWeights(0.5, 0.5, 0.0, 0.0),
    "weights:1/0.5/0.2/0.1/1/0.5": hr.RiskWeights(1.0, 0.5, 0.2, 0.1, beta1=1.0, beta3=0.5),
}
TAGS = ["pmap", "pvd", "constrained-pmap", *LATTICE_WEIGHTS, "rabiner:2"]


def scale_summary(num_states, seed, horizon=HORIZON):
    """A model with about 20% zero transitions and a sampled sequence of the given horizon."""
    rng = np.random.default_rng(seed)
    model = random_categorical_model(rng, num_states, zero_frac=0.2)
    _, obs = hr.sample_trajectory(model, horizon, int(rng.integers(2**31)))
    return hr.forward_backward(model, obs)


@settings(max_examples=5, deadline=None)
@given(st.sampled_from([(2, 2000), (2, 20000), (8, 2000), (8, 20000), (32, 2000)]), st.integers(0, 2**32 - 1))
def test_each_decoder_minimizes_its_own_risk(sizes, seed):
    num_states, horizon = sizes  # K in {2, 8, 32}; T = 2e4 only for K <= 8
    summary = scale_summary(num_states, seed, horizon)
    decoded = dict(zip(TAGS, (paths[0] for paths in hr.decode_many([summary], TAGS))))
    paths = np.array([d.path for d in decoded.values()])
    for tag, weights in LATTICE_WEIGHTS.items():
        risks = dict(zip(TAGS, combined_risk(summary, paths, weights)))
        assert np.isfinite(risks[tag]), tag
        # the reported objective is that risk; with categorical emissions every term is <= 0, so two sums of
        # the same T terms in different orders agree within T eps relative
        np.testing.assert_allclose(decoded[tag].objective, risks[tag], rtol=horizon * np.finfo(float).eps, atol=0)
        for other, risk in risks.items():
            if np.isfinite(risk):
                assert risks[tag] <= risk + TOL, (tag, other, risks[tag], risk)
    r1 = {tag: d.risks.r1_posterior for tag, d in decoded.items()}
    rbar1 = {tag: d.risks.rbar1_posterior for tag, d in decoded.items()}
    admissible = [tag for tag, d in decoded.items() if d.admissible]
    assert {"pvd", "constrained-pmap", *LATTICE_WEIGHTS} <= set(admissible)
    assert r1["pmap"] <= min(r1.values()) + TOL
    assert r1["constrained-pmap"] <= min(r1[tag] for tag in admissible) + TOL
    assert rbar1["pvd"] <= min(rbar1[tag] for tag in admissible) + TOL
    gap = decoded["kblock:3"].risks.rbarinf_posterior - decoded["viterbi"].risks.rbarinf_posterior
    assert -TOL <= gap <= rbar1["viterbi"] / (3 - 1) + 1e-9, (gap, rbar1["viterbi"])


def test_viterbi_and_kblock_paths_tie_within_the_tolerance():
    """At K = 2, T = 2000 and seed 928 the kblock:3 and viterbi paths differ
    and tie within TIE_TOL: the k-block path's joint log-risk is one ulp
    below Viterbi's.  The gap sweep, on the same sequence as its replicate 0,
    accepts the gap."""
    summary = scale_summary(2, 928)
    vit, kblock = (paths[0] for paths in hr.decode_many([summary], ["viterbi", "kblock:3"]))
    gap = kblock.risks.rbarinf_posterior - vit.risks.rbarinf_posterior
    bound = vit.risks.rbar1_posterior / (3 - 1)
    assert vit.path != kblock.path and -TOL <= gap < 0.0, gap
    rng = np.random.default_rng(928)
    model = random_categorical_model(rng, 2, zero_frac=0.2)
    [row] = hr.sandwich_constant_sweep(model, [HORIZON], [3], 1, int(rng.integers(2**31)))
    assert row == {"horizon": HORIZON, "k": 3, "replicate": 0, "gap": gap, "bound": bound}


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
