"""The power-transform kernel against the per-step recursions it replaced.

``transform._recursions`` steps a row axis of exponents through preallocated
buffers; ``transformed_forward_backward`` is its one-row case and
``rescaling_distortion_probe`` runs a whole q grid through it.  The functions
below are the per-step recursions and the q-by-q probe as the code had them
before, kept as references.  Every table must match them bit for bit.  Their
errors follow the kernel's: a vanishing first plain row reads t=1, as in the
rescaled variant, and the probe checks every q before it runs.  The
plain recursion now reads the emission's log-likelihoods where it took the
log of the likelihoods; the two are the same table for categorical
emissions, and for Gaussian ones the reference is run on the log-likelihoods.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk.errors import ZeroEvidenceError
from hmmrisk.inference import _log, emission_likelihood
from hmmrisk.transform import _recursions

from conftest import random_categorical_model

FAST = settings(max_examples=80, deadline=None)
Q_VALUES = [1.0, 1.5, 2.0, 64.0, 1024.0, math.inf]


def _log_power_sum(scores, q, axis):
    if math.isinf(q):
        return scores.max(axis=axis)
    m = scores.max(axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(q * (scores - safe)).sum(axis=axis)) / q
    return np.squeeze(safe, axis=axis) + np.where(np.isfinite(np.squeeze(m, axis=axis)), out, -np.inf)


def _power_sum(values, q, axis):
    if math.isinf(q):
        return values.max(axis=axis)
    m = values.max(axis=axis, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    out = (np.power(values / safe, q).sum(axis=axis)) ** (1.0 / q)
    return np.squeeze(m, axis=axis) * out


def reference_check_q(q):
    if not (q >= 1.0):
        raise ValueError(f"q must be at least 1 (or inf), got {q}")


def reference_tables(model, obs, q, rescaled=False, log_likes=None):
    """Reference: the per-step recursions, raising as soon as a step fails.
    The plain recursion runs on ``log_likes`` when it is given, and on the log
    of the likelihoods otherwise."""
    reference_check_q(q)
    likes = emission_likelihood(model, obs)
    horizon, num_states = likes.shape
    if not rescaled:
        log_likes = _log(likes) if log_likes is None else log_likes
        log_p = _log(model.transition)
        la = np.empty((horizon, num_states))
        la[0] = _log(model.initial) + log_likes[0]
        for t in range(horizon):
            if t:
                la[t] = _log_power_sum(la[t - 1][:, None] + log_p, q, axis=0) + log_likes[t]
            if np.all(np.isneginf(la[t])):
                raise ZeroEvidenceError(f"observation sequence impossible under the model at t={t + 1}")
        lb = np.empty((horizon, num_states))
        lb[-1] = 0.0
        for t in range(horizon - 2, -1, -1):
            lb[t] = _log_power_sum(log_p + (log_likes[t + 1] + lb[t + 1])[None, :], q, axis=1)
        return la, lb
    a = model.initial * likes[0]
    norm = a.sum()
    if norm <= 0:
        raise ZeroEvidenceError("observation sequence impossible under the model at t=1")
    alpha = np.empty((horizon, num_states))
    alpha[0] = a / norm
    denominators = np.empty(horizon)
    for t in range(1, horizon):
        numer = _power_sum(alpha[t - 1][:, None] * model.transition, q, axis=0) * likes[t]
        denominators[t] = numer.sum()
        if denominators[t] <= 0:
            raise ZeroEvidenceError(f"observation sequence impossible under the model at t={t + 1}")
        alpha[t] = numer / denominators[t]
    beta = np.empty((horizon, num_states))
    beta[-1] = 1.0
    for t in range(horizon - 2, -1, -1):
        # a successor the forward pass ruled out adds nothing
        numer = _power_sum(model.transition * (likes[t + 1] * beta[t + 1] * (alpha[t + 1] > 0))[None, :], q, axis=1)
        beta[t] = numer / denominators[t + 1]
    return alpha, beta


def reference_probe(model, obs, q_grid):
    """Reference: every q checked, then the probe run q by q, plain before rescaled."""
    for q in q_grid:
        reference_check_q(q)
    rows = []
    for q in q_grid:
        plain = hr.symbol_by_symbol_decode(hr.TransformedTables(q, *reference_tables(model, obs, q), False))
        resc = hr.symbol_by_symbol_decode(hr.TransformedTables(q, *reference_tables(model, obs, q, True), True))
        rows.append({"q": float(q), "plain_path": plain, "rescaled_path": resc, "agree": plain == resc})
    return rows


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except (ZeroEvidenceError, ValueError) as exc:
        return type(exc), str(exc)


def raised(result) -> bool:
    return isinstance(result, tuple) and isinstance(result[0], type)


def assert_same_bits(got, expect):
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got.view(np.int64), expect.view(np.int64))


@st.composite
def transform_cases(draw, gaussian=True):
    """A model with K 1-4 and structural zeros, and observations of length 1-9
    drawn independently of it, so that some are impossible.  Gaussian models
    see points up to 40 from the means, far enough for densities to underflow."""
    num_states = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.6]))
    base = random_categorical_model(rng, num_states, zero_frac=zero_frac)
    if gaussian and draw(st.booleans()):
        emission = hr.DiagonalGaussian(rng.normal(0, 2, (num_states, 1)), rng.uniform(0.3, 2.0, (num_states, 1)))
        obs = rng.choice([-1.0, 1.0], horizon) * rng.uniform(0, draw(st.sampled_from([3.0, 40.0])), horizon)
    else:
        emission = base.emission
        obs = rng.integers(0, emission.table.shape[1], horizon)
    initial = base.initial.copy()
    if zero_frac and num_states > 1:
        initial[rng.random(num_states) < zero_frac] = 0.0
        initial = initial / initial.sum() if initial.sum() > 0 else base.initial
    return hr.HmmModel(initial, base.transition, emission), obs


# all initial mass on state 3, which is absorbing and far from the points near 30: the forward pass rules
# states 1 and 2 out, and their rescaled backward variables overflowed
ABSORBED = (
    hr.HmmModel(
        [0.0, 0.0, 1.0],
        [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]],
        hr.DiagonalGaussian([[30.0], [29.0], [0.0]], [[1.0], [1.0], [1.0]]),
    ),
    np.array([30.0, 29.5, 30.5, 30.0, 29.0]),
)

# the first symbol is impossible in the only state the initial law allows: the first forward row vanishes
DEAD_FIRST = (
    hr.HmmModel([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]], hr.Categorical([[0.0, 1.0], [0.5, 0.5]])),
    np.array([0, 1, 0]),
)


@FAST
@example(ABSORBED, 1.0, True)
@example(DEAD_FIRST, 2.0, False)
@given(transform_cases(), st.sampled_from(Q_VALUES), st.booleans())
def test_kernel_matches_per_step_recursions(case, q, rescaled):
    model, obs = case
    log_gaussian = not rescaled and isinstance(model.emission, hr.DiagonalGaussian)
    log_likes = model.emission.log_likelihood(obs) if log_gaussian else None
    got = outcome(hr.transformed_forward_backward, model, obs, q, rescaled=rescaled)
    expect = outcome(reference_tables, model, obs, q, rescaled=rescaled, log_likes=log_likes)
    if raised(expect):
        assert got == expect  # same error type and message
        return
    assert got.rescaled == rescaled
    # plain tables are logs and rescaled ones linear: symbol-by-symbol decoding reads the domain off ``rescaled``
    scores = expect[0] * expect[1] if rescaled else expect[0] + expect[1]
    assert hr.symbol_by_symbol_decode(got) == tuple((np.argmax(scores, axis=1) + 1).tolist())
    assert_same_bits(got.alpha_q, expect[0])
    assert_same_bits(got.beta_q, expect[1])
    if log_gaussian and np.all(np.exp(log_likes) >= np.finfo(float).tiny):
        # no density underflowed or lost bits as a subnormal: the log of the likelihoods is as good
        old_alpha, old_beta = reference_tables(model, obs, q)
        np.testing.assert_allclose(got.alpha_q, old_alpha, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.beta_q, old_beta, rtol=1e-12, atol=1e-12)


@FAST
@given(transform_cases(), st.lists(st.sampled_from(Q_VALUES), min_size=1, max_size=6), st.booleans())
def test_q_batched_rows_equal_single_calls(case, qs, rescaled):
    model, obs = case
    ordered = sorted(qs, key=math.isinf)
    alpha, beta, errors = _recursions(model, obs, np.array(ordered), rescaled)
    for q, a, b, error in zip(ordered, alpha, beta, errors):
        single = outcome(hr.transformed_forward_backward, model, obs, q, rescaled=rescaled)
        if error is not None:
            assert single == (ZeroEvidenceError, str(error))
        else:
            assert_same_bits(a, single.alpha_q)
            assert_same_bits(b, single.beta_q)


@FAST
@given(transform_cases(gaussian=False), st.lists(st.sampled_from(Q_VALUES + [0.5]), min_size=0, max_size=6))
def test_probe_matches_q_by_q_order(case, grid):
    """Same rows, or the same first error (an invalid q or vanishing evidence) as a q-by-q run."""
    model, obs = case
    assert outcome(hr.rescaling_distortion_probe, model, obs, grid) == outcome(reference_probe, model, obs, grid)


@pytest.mark.parametrize("num_states", [8, 32])
@pytest.mark.parametrize("rescaled", [False, True])
def test_wide_models_match_bit_for_bit(num_states, rescaled):
    """K >= 8 takes numpy's pairwise summation; batched rows must still add in the same order."""
    rng = np.random.default_rng(num_states)
    model = random_categorical_model(rng, num_states, num_symbols=6, zero_frac=0.3)
    _, obs = hr.sample_trajectory(model, 60, 5)
    alpha, beta, _ = _recursions(model, obs, np.array(Q_VALUES), rescaled)
    for q, a, b in zip(Q_VALUES, alpha, beta):
        ref_a, ref_b = reference_tables(model, obs, q, rescaled)
        assert_same_bits(a, ref_a)
        assert_same_bits(b, ref_b)


@pytest.mark.parametrize("num_states", [1, 2, 3, 8, 17, 32, 64])
def test_one_exponent_runs_equal_their_rows_of_a_q_grid(num_states):
    """A run with one exponent steps without its rows axis, a q grid with it:
    each row is the same bit for bit, plain and rescaled, q = inf included."""
    rng = np.random.default_rng(num_states)
    model = random_categorical_model(rng, num_states, num_symbols=5, zero_frac=0.3)
    _, obs = hr.sample_trajectory(model, 200, 7)
    for rescaled in (False, True):
        alpha, beta, errors = _recursions(model, obs, np.array(Q_VALUES), rescaled)
        assert errors == [None] * len(Q_VALUES)
        for q, a, b in zip(Q_VALUES, alpha, beta):
            single = hr.transformed_forward_backward(model, obs, q, rescaled)
            assert_same_bits(single.alpha_q, a)
            assert_same_bits(single.beta_q, b)


def test_far_gaussian_point_has_finite_plain_tables():
    """N(0,1)/N(1,1) at x = 40: both log-densities are finite (about -800.9 and
    -761.4), but their exponentials underflow to 0, so a plain table built from
    log(likelihood) reported zero evidence at t=2."""
    model = hr.HmmModel(
        [0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], hr.DiagonalGaussian([[0.0], [1.0]], [[1.0], [1.0]])
    )
    obs = [0.0, 40.0, 0.5]
    log_f = model.emission.log_likelihood(obs)
    assert np.all(np.isfinite(log_f)) and np.all(np.exp(log_f[1]) == 0.0)
    for q in (1.0, 2.0, math.inf):
        tables = hr.transformed_forward_backward(model, obs, q)
        assert np.all(np.isfinite(tables.alpha_q)) and np.all(np.isfinite(tables.beta_q))
        assert hr.symbol_by_symbol_decode(tables)[1] == 2  # the point at 40 is far closer to state 2
    with pytest.raises(ZeroEvidenceError, match="at t=2"):
        hr.transformed_forward_backward(model, obs, 2.0, rescaled=True)
