"""Power-transformed forward-backward tables and symbol-by-symbol decoding.

Raising the terms of the forward/backward recursions to a power q and
averaging interpolates between sum-product (q=1) and max-product (q=inf)
message passing.  Two variants are provided: the plain recursions, computed
in the log domain so that no rescaling is ever needed, and the per-step
renormalized recursions computed in the linear domain.

Both variants run through one kernel, ``_recursions``, which steps a leading
row axis of exponents through preallocated buffers, calling every ufunc
positionally: ``rescaling_distortion_probe`` steps every q of its grid in one
time loop per variant, on (rows, K, K) scores, and a
``transformed_forward_backward`` call, with one exponent, steps without the
rows axis, on (K, K) scores, 1-d rows and the rescaled variant's 0-d
norms.  Its reductions run over axes -2 and -1, so one loop body serves
both, and one power-mean step serves the forward pass (axis -2) and the
backward pass (axis -1).  Rows with q = inf take the maximum only.  Each
row does the same arithmetic as when it runs alone, so its tables are
bit-identical.
Vanishing evidence is absorbing (an all ``-inf`` log row, or a zero
normalizer, stays so), so it is looked for once, after the recursions, and
reported at the first position whose forward row vanishes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ZeroEvidenceError
from .inference import _log, _zero_d, emission_likelihood
from .model import HmmModel

# Floors for a row maximum m before it is factored out (the initial value of
# the max): they leave every attainable m unchanged, and keep an empty row
# from giving inf - inf or 0 / 0.
_LOWEST = -np.finfo(float).max
_SMALLEST = np.finfo(float).smallest_subnormal


@dataclass
class TransformedTables:
    """Power-transformed forward/backward tables.

    Plain tables (``rescaled=False``) are stored as logarithms; renormalized
    tables are stored linearly.  ``q`` may be any float >= 1 or ``math.inf``,
    in which case power sums are replaced by maxima (a distinct code path,
    not a large-q approximation).
    """

    q: float
    alpha_q: np.ndarray
    beta_q: np.ndarray
    rescaled: bool


def _check_q(q) -> None:
    if not (q >= 1.0):
        raise ValueError(f"q must be at least 1 (or inf), got {q}")


def _recursions(model: HmmModel, obs, qs: np.ndarray, rescaled: bool):
    """Power-transformed forward and backward tables for every exponent in ``qs``.

    ``qs`` is a 1-d float array of exponents >= 1 with the finite ones first.
    Returns alpha and beta, each of shape (len(qs), T, K), and per row the
    ZeroEvidenceError that row raises (None when its evidence is positive).
    """
    if rescaled:
        emission = emission_likelihood(model, obs)
        trans, first = model.transition, model.initial * emission[0]
        times, over, floor = np.multiply, np.divide, _SMALLEST
    else:
        emission = model.emission.log_likelihood(obs)
        trans, first = _log(model.transition), _log(model.initial) + emission[0]
        times, over, floor = np.add, np.subtract, _LOWEST
    horizon, num_states = emission.shape
    rows, finite = len(qs), int(np.isfinite(qs).sum())
    # a run with one exponent steps without its rows axis; the finite rows come first, and [fin_at], [inf_at] pick them
    lead = () if rows == 1 else (rows,)
    fin_at, inf_at = (slice(None, finite), slice(finite, None)) if lead else (..., ...)
    scores, peak = np.empty((*lead, num_states, num_states)), np.empty((*lead, num_states))
    sums = np.full((*lead, num_states), 1.0 if rescaled else -0.0)  # a q = inf row's peak times sums is its peak, bit for bit
    fin_scores, inf_scores, fin_peak, inf_peak = scores[fin_at], scores[inf_at], peak[fin_at], peak[inf_at]
    # one call per row with a scalar exponent, a 0-d array, which numpy broadcasts fastest; the rescaled variant
    # lowers with **= and a Python float, as the per-step code did: numpy's exact shortcut for the exponent 0.5
    # (sqrt) applies only to that, and pow can differ from it in the last bit
    q_list, fin_sums = qs[:finite].tolist(), sums[fin_at]
    raise_rows = list(zip(fin_scores.reshape(-1, num_states, num_states), map(np.array, q_list)))
    lower_rows = list(zip(fin_sums.reshape(-1, num_states), [1.0 / q for q in q_list] if rescaled else map(np.array, q_list)))
    raise_, lower = (np.power, operator.ipow) if rescaled else (np.multiply, operator.itruediv)
    alpha, beta = np.empty((2, rows, horizon, num_states))
    norms = np.empty((horizon, *lead, 1))  # rescaled: norms[t] normalizes step t
    # a run with one exponent steps over 0-d views of its norms (the plain variant reads none), others over (rows, 1)
    each = iter if lead else _zero_d
    keepdims = bool(lead)
    # time-major views: alpha_rows[t] is the (rows, K) slice of every row at position t, or one row's K entries
    alpha_rows, beta_rows = (alpha.swapaxes(0, 1), beta.swapaxes(0, 1)) if lead else (alpha[0], beta[0])
    later = np.empty((*lead, num_states))  # later[..., j]: f_{t+1}(j) * beta_{t+1}(j) in the variant's domain
    forward_factor, backward_factor, later_row = fin_peak[..., None, :], fin_peak[..., None], later[..., None, :]

    def power_mean(axis, factor, cur):  # the forward step reduces axis -2 (the previous state), the backward -1
        # cur = peak times (sum over the axis of (scores / peak)**q)**(1/q) in the variant's domain, with ``factor``
        # the peak's view along the axis; q = inf rows take the peak alone
        if finite < rows:
            np.maximum.reduce(inf_scores, axis, None, inf_peak)
        if finite:
            np.maximum.reduce(fin_scores, axis, None, fin_peak, False, floor)
            over(fin_scores, factor, fin_scores)
            for row, q_r in raise_rows:
                raise_(row, q_r, row)
            if not rescaled:
                np.exp(fin_scores, fin_scores)
            np.add.reduce(fin_scores, axis, None, fin_sums)
            if not rescaled:
                np.log(fin_sums, fin_sums)
            for row, x in lower_rows:
                lower(row, x)
        times(peak, sums, cur)

    with np.errstate(divide="ignore", invalid="ignore"):  # vanishing evidence is reported below
        alpha_rows[0] = first
        if rescaled:
            norms[0] = first.sum()
            np.divide(alpha_rows[0], norms[0], alpha_rows[0])
        for prev, cur, f, norm in zip(alpha_rows[:-1][..., None], alpha_rows[1:], emission[1:], each(norms[1:])):
            times(prev, trans, scores)
            power_mean(-2, forward_factor, cur)
            times(cur, f, cur)
            if rescaled:
                np.add.reduce(cur, -1, None, norm, keepdims)
                np.divide(cur, norm, cur)
        beta_rows[-1] = 1.0 if rescaled else 0.0
        # rescaled: a successor the forward pass ruled out adds nothing, as its beta can overflow
        live = alpha_rows[:0:-1] > 0 if rescaled else [None] * horizon
        backward = zip(beta_rows[-2::-1], beta_rows[:0:-1], emission[:0:-1], each(norms[:0:-1]), live)
        for cur, nxt, f, norm, keep in backward:
            times(f, nxt, later)
            if rescaled:
                np.multiply(later, keep, later)
            times(trans, later_row, scores)
            power_mean(-1, backward_factor, cur)
            if rescaled:
                np.divide(cur, norm, cur)
    if rescaled:
        failed = norms.reshape(horizon, rows).T <= 0
    else:
        failed = np.isneginf(alpha).all(axis=2)
    errors = [
        ZeroEvidenceError(f"observation sequence impossible under the model at t={t + 1}") if dead else None
        for dead, t in zip(failed.any(axis=1), failed.argmax(axis=1))
    ]
    return alpha, beta, errors


def transformed_forward_backward(
    model: HmmModel, obs, q: float, rescaled: bool = False
) -> TransformedTables:
    """Run the power-transformed recursions for exponent q >= 1 (or inf).

    The plain variant runs on the emission's log-likelihoods; the rescaled
    variant runs on its linear likelihoods, so a Gaussian density that
    underflows to 0 (far-out points) makes the rescaled variant raise where
    the plain one does not.

    Raises ZeroEvidenceError when the observations are impossible under the
    model (all entries of some forward column vanish).
    """
    _check_q(q)
    alpha, beta, (error,) = _recursions(model, obs, np.array([q], dtype=float), rescaled)
    if error is not None:
        raise error
    return TransformedTables(q=q, alpha_q=alpha[0], beta_q=beta[0], rescaled=bool(rescaled))


def symbol_by_symbol_decode(tables: TransformedTables) -> tuple[int, ...]:
    """Position-wise argmax of alpha_q * beta_q, smallest state on ties.

    Recovers PMAP at q=1 and, when the max-product optimum is unique, the
    Viterbi path at q=inf; in between there is no admissibility guarantee.
    """
    scores = tables.alpha_q * tables.beta_q if tables.rescaled else tables.alpha_q + tables.beta_q
    return tuple((np.argmax(scores, axis=1) + 1).tolist())


def rescaling_distortion_probe(model: HmmModel, obs, q_grid) -> list[dict]:
    """Compare plain and rescaled symbol-by-symbol paths over a grid of q.

    Returns one row per q with both paths and an agreement flag.  Every q
    is checked first; the whole grid then runs in one recursion per variant,
    and vanishing evidence raises the error a q-by-q run (plain, then
    rescaled, per q) would meet first.
    """
    q_grid = list(q_grid)
    for q in q_grid:
        _check_q(q)
    order = sorted(range(len(q_grid)), key=lambda i: math.isinf(q_grid[i]))  # finite exponents first
    qs = [q_grid[i] for i in order]
    outcomes = {}  # (grid index, rescaled) -> path or ZeroEvidenceError
    for rescaled in (False, True):  # each variant's tables are dropped before the next is built
        outcomes.update(
            ((i, rescaled), error or symbol_by_symbol_decode(TransformedTables(q, a, b, rescaled)))
            for i, q, a, b, error in zip(order, qs, *_recursions(model, obs, np.array(qs, dtype=float), rescaled))
        )
    rows = []
    for i, q in enumerate(q_grid):
        plain, resc = outcomes[i, False], outcomes[i, True]
        for outcome in (plain, resc):
            if isinstance(outcome, ZeroEvidenceError):
                raise outcome
        rows.append({"q": float(q), "plain_path": plain, "rescaled_path": resc, "agree": plain == resc})
    return rows
