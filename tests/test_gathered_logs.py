"""The readers that log what they gather against references that log whole tables.

No summary keeps a log table: ``risk.evaluate_risks``, ``risk.combined_risk``,
``risk.joint_log_likelihood`` and ``inference.log_window_posterior`` gather
entries of the linear tables and take their logs.  Since the log works entry
by entry, each must equal, bit for bit, the reference below that takes the
log of every whole table first and then gathers.  Structural zeros in the
model make some logs -inf, and arbitrary paths, impossible ones included,
reach them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk import inference
from hmmrisk.inference import _log, log_window_posterior

from conftest import random_categorical_model


def ref_prior_ll(s, paths0):
    return s.log_initial[paths0[:, 0]] + s.log_transition[paths0[:, :-1], paths0[:, 1:]].sum(axis=1)


def ref_gather(table, paths0):
    return table[np.arange(paths0.shape[1]), paths0]


def ref_joint_ll(s, paths0):
    return ref_prior_ll(s, paths0) + ref_gather(_log(s.emission_likelihood), paths0).sum(axis=1)


def ref_risks(s, path):
    paths0 = np.asarray([path]) - 1
    prior_ll = ref_prior_ll(s, paths0)
    joint_ll = ref_joint_ll(s, paths0)
    post_lp = joint_ll - s.log_evidence
    prior = ref_gather(s.prior, paths0)
    return hr.RiskReport(
        *(
            float(value[0])
            for value in (
                1.0 - ref_gather(s.smoothed, paths0).mean(axis=1),
                -ref_gather(_log(s.smoothed), paths0).mean(axis=1),
                -np.expm1(post_lp),
                -post_lp / s.horizon,
                -joint_ll / s.horizon,
                1.0 - prior.mean(axis=1),
                -ref_gather(_log(s.prior), paths0).mean(axis=1),
                -prior_ll / s.horizon,
            )
        )
    )


def ref_combined(s, paths0, w):
    total = np.zeros(len(paths0))
    if w.c1 > 0:
        total += w.c1 * hr.risk.power_risk(ref_gather(s.smoothed, paths0), w.beta1).mean(axis=1)
    if w.c2 > 0:
        total += w.c2 * (-ref_joint_ll(s, paths0) / s.horizon)
    if w.c3 > 0:
        total += w.c3 * hr.risk.power_risk(ref_gather(s.prior, paths0), w.beta3).mean(axis=1)
    if w.c4 > 0:
        total += w.c4 * (-ref_prior_ll(s, paths0) / s.horizon)
    return total


def ref_window(s, starts, states):
    log_forward, log_emission, log_scaling, log_backward = (
        _log(t) for t in (s.scaled_forward, s.emission_likelihood, s.scaling, s.scaled_backward)
    )
    logw = log_forward[starts, states[0]]
    for u in range(1, len(states)):
        logw = logw + (
            s.log_transition[states[u - 1], states[u]]
            + log_emission[starts + u, states[u]]
            - log_scaling[starts + u]
        )
    return logw + log_backward[starts + len(states) - 1, states[-1]]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 40),
    st.sampled_from([0.0, 0.3, 0.6]),
    st.integers(1, 3),
    st.integers(0, 2**31),
    st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 4, *[st.sampled_from([0.0, 0.5, 1.0])] * 2).filter(
        lambda parts: sum(parts[:4]) > 0
    ),
)
def test_gathered_logs_match_whole_table_logs(num_states, horizon, zero_frac, num, seed, parts):
    rng = np.random.default_rng(seed)
    model = random_categorical_model(rng, num_states=num_states, zero_frac=zero_frac)
    _, observations = hr.sample_trajectories(model, horizon, range(seed, seed + num))
    summaries = hr.forward_backward_many(model, observations)
    paths = rng.integers(1, num_states + 1, size=(num, horizon))  # arbitrary paths, impossible ones included
    paths0 = paths - 1

    # the group form: one evaluate_risks call scores row n against summary n
    group = hr.evaluate_risks(summaries[0].stack, paths)
    assert group == [ref_risks(s, path) for s, path in zip(summaries, paths)]
    w = hr.RiskWeights(*parts)
    for s, path, row in zip(summaries, paths, paths0[:, None]):
        assert hr.evaluate_risks(s, path) == ref_risks(s, path)
        # a batch of paths and a single path
        assert same_bits(hr.joint_log_likelihood(s, paths), ref_joint_ll(s, paths0))
        assert hr.joint_log_likelihood(s, path) == ref_joint_ll(s, row)[0]
        assert same_bits(hr.risk.combined_risk(s, paths, w), ref_combined(s, paths0, w))
        assert hr.risk.combined_risk(s, path, w) == ref_combined(s, row, w)[0]
        for chain in (s, s.prior_chain):
            for k in sorted({1, 2, 3, horizon} & set(range(1, horizon + 1))):
                starts = np.arange(horizon - k + 1)
                along = np.moveaxis(np.lib.stride_tricks.sliding_window_view(paths0, k, axis=1), -1, 0)
                assert same_bits(log_window_posterior(chain, starts, along), ref_window(chain, starts, along))
                if num_states**k <= 64:
                    starts_mesh, *states = np.ix_(starts, *[np.arange(num_states)] * k)
                    assert same_bits(
                        log_window_posterior(chain, starts_mesh, states), ref_window(chain, starts_mesh, states)
                    )


def ref_stack_risks(stack, paths):
    """evaluate_risks on a stack by three-index fancy gathers, ``table[n, t, path[n, t]]``, each row of a table of one
    row (the stack of one summary) serving every path."""
    paths0 = np.asarray(paths) - 1
    rows, steps = np.arange(len(stack))[:, None], np.arange(stack.horizon)

    def gather(table):
        return table[rows, steps, paths0]

    prior_ll = stack.log_initial[rows[:, 0], paths0[:, 0]] + stack.log_transition[rows, paths0[:, :-1], paths0[:, 1:]].sum(axis=1)
    joint_ll = prior_ll + _log(gather(stack.emission_likelihood)).sum(axis=1)
    post_lp = joint_ll - stack.log_evidence
    smoothed, prior = gather(stack.smoothed), gather(stack.prior)
    columns = (
        1.0 - smoothed.mean(axis=1),
        -_log(smoothed).mean(axis=1),
        -np.expm1(post_lp),
        -post_lp / stack.horizon,
        -joint_ll / stack.horizon,
        1.0 - prior.mean(axis=1),
        -_log(prior).mean(axis=1),
        -prior_ll / stack.horizon,
    )
    return [hr.RiskReport(*values) for values in zip(*(column.tolist() for column in columns))]


def report_bits(reports):
    return np.array([list(report.as_dict().values()) for report in reports]).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_flat_gathers_match_fancy_gathers(seed):
    """evaluate_risks gathers by flat index, with the prior and transition tables every row shares read from their
    one row; it matches the fancy-index reference bit for bit on one summary, on a forward_backward_many stack
    (shared prior), on one summary repeated, and on a stack of copies of summaries of separate calls, here of
    separate models (no table shared)."""
    rng = np.random.default_rng(seed)
    num_states, horizon, num = int(rng.integers(1, 5)), int(rng.integers(1, 30)), int(rng.integers(2, 5))
    zero_frac = [0.0, 0.3, 0.6][seed % 3]
    models = [random_categorical_model(rng, num_states=num_states, num_symbols=3, zero_frac=zero_frac) for _ in range(num)]
    _, observations = hr.sample_trajectories(models[0], horizon, range(seed, seed + num))
    batch = hr.forward_backward_many(models[0], observations)
    separate = []
    for model in models:  # each model's own sequence, so that its evidence is positive
        separate.append(hr.forward_backward(model, hr.sample_trajectories(model, horizon, [seed])[1][0]))
    paths = rng.integers(1, num_states + 1, size=(num, horizon))  # arbitrary paths, impossible ones included
    shared, copies, repeated = batch[0].stack, inference.stack_of(separate), inference.stack_of([batch[0]] * num)
    assert shared.prior.strides[0] == 0 and copies.prior.strides[0] != 0 and repeated.smoothed.strides[0] == 0
    for stack in (shared, copies, repeated):
        assert report_bits(hr.evaluate_risks(stack, paths)) == report_bits(ref_stack_risks(stack, paths))
    for summary, path in zip(batch + separate, np.concatenate([paths, paths])):
        one = inference.stack_of([summary])
        assert report_bits([hr.evaluate_risks(summary, path)]) == report_bits(ref_stack_risks(one, [path]))
