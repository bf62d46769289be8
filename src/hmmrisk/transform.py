"""Power-transformed forward-backward tables and symbol-by-symbol decoding.

Raising the terms of the forward/backward recursions to a power q and
averaging interpolates between sum-product (q=1) and max-product (q=inf)
message passing.  Two variants are provided: the plain recursions, computed
in the log domain so that no rescaling is ever needed, and the per-step
renormalized recursions computed in the linear domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroEvidenceError
from .inference import emission_likelihood
from .model import HmmModel


def _log(a) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


@dataclass
class TransformedTables:
    """Power-transformed forward/backward tables.

    Plain tables (``rescaled=False``) are stored as logarithms
    (``log_domain=True``); renormalized tables are stored linearly.  ``q`` may
    be any float >= 1 or ``math.inf``, in which case power sums are replaced
    by maxima (a distinct code path, not a large-q approximation).
    """

    q: float
    alpha_q: np.ndarray
    beta_q: np.ndarray
    rescaled: bool
    log_domain: bool


def _log_power_sum(scores: np.ndarray, q: float, axis: int) -> np.ndarray:
    """(1/q) * log sum exp(q * scores) along ``axis``, stable under a max shift."""
    if math.isinf(q):
        return scores.max(axis=axis)
    m = scores.max(axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(q * (scores - safe)).sum(axis=axis)) / q
    return np.squeeze(safe, axis=axis) + np.where(
        np.isfinite(np.squeeze(m, axis=axis)), out, -np.inf
    )


def _power_sum(values: np.ndarray, q: float, axis: int) -> np.ndarray:
    """(sum values**q)**(1/q) along ``axis``, factoring out the maximum."""
    if math.isinf(q):
        return values.max(axis=axis)
    m = values.max(axis=axis, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    out = (np.power(values / safe, q).sum(axis=axis)) ** (1.0 / q)
    return np.squeeze(m, axis=axis) * out


def transformed_forward_backward(
    model: HmmModel, obs, q: float, rescaled: bool = False
) -> TransformedTables:
    """Run the power-transformed recursions for exponent q >= 1 (or inf).

    Raises ZeroEvidenceError when the observations are impossible under the
    model (all entries of some forward column vanish).
    """
    if not (q >= 1.0):
        raise ValueError(f"q must be at least 1 (or inf), got {q}")
    likes = emission_likelihood(model, obs)
    horizon, num_states = likes.shape

    if not rescaled:
        log_likes = _log(likes)
        log_p = _log(model.transition)
        la = np.empty((horizon, num_states))
        la[0] = _log(model.initial) + log_likes[0]
        for t in range(1, horizon):
            la[t] = _log_power_sum(la[t - 1][:, None] + log_p, q, axis=0) + log_likes[t]
            if np.all(np.isneginf(la[t])):
                raise ZeroEvidenceError(f"observation sequence impossible under the model at t={t + 1}")
        if np.all(np.isneginf(la[-1])):
            raise ZeroEvidenceError("observation sequence impossible under the model")
        lb = np.empty((horizon, num_states))
        lb[-1] = 0.0
        for t in range(horizon - 2, -1, -1):
            lb[t] = _log_power_sum(log_p + (log_likes[t + 1] + lb[t + 1])[None, :], q, axis=1)
        return TransformedTables(q=q, alpha_q=la, beta_q=lb, rescaled=False, log_domain=True)

    a = model.initial * likes[0]
    norm = a.sum()
    if norm <= 0:
        raise ZeroEvidenceError("observation sequence impossible under the model at t=1")
    alpha = np.empty((horizon, num_states))
    alpha[0] = a / norm
    denominators = np.empty(horizon)  # denominators[t] normalizes step t (t >= 1)
    for t in range(1, horizon):
        numer = _power_sum(alpha[t - 1][:, None] * model.transition, q, axis=0) * likes[t]
        denominators[t] = numer.sum()
        if denominators[t] <= 0:
            raise ZeroEvidenceError(f"observation sequence impossible under the model at t={t + 1}")
        alpha[t] = numer / denominators[t]
    beta = np.empty((horizon, num_states))
    beta[-1] = 1.0
    for t in range(horizon - 2, -1, -1):
        numer = _power_sum(model.transition * (likes[t + 1] * beta[t + 1])[None, :], q, axis=1)
        beta[t] = numer / denominators[t + 1]
    return TransformedTables(q=q, alpha_q=alpha, beta_q=beta, rescaled=True, log_domain=False)


def symbol_by_symbol_decode(tables: TransformedTables) -> tuple[int, ...]:
    """Position-wise argmax of alpha_q * beta_q, smallest state on ties.

    Recovers PMAP at q=1 and, when the max-product optimum is unique, the
    Viterbi path at q=inf; in between there is no admissibility guarantee.
    """
    scores = tables.alpha_q + tables.beta_q if tables.log_domain else tables.alpha_q * tables.beta_q
    return tuple((np.argmax(scores, axis=1) + 1).tolist())


def rescaling_distortion_probe(model: HmmModel, obs, q_grid) -> list[dict]:
    """Compare plain and rescaled symbol-by-symbol paths over a grid of q.

    Returns one row per q with both paths and an agreement flag.
    """
    rows = []
    for q in q_grid:
        plain = symbol_by_symbol_decode(transformed_forward_backward(model, obs, q, rescaled=False))
        resc = symbol_by_symbol_decode(transformed_forward_backward(model, obs, q, rescaled=True))
        rows.append({"q": float(q), "plain_path": plain, "rescaled_path": resc, "agree": plain == resc})
    return rows
