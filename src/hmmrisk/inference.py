"""Scaled forward-backward smoothing, the prior chain, and window (block) posteriors."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import KOutOfRangeError, ZeroEvidenceError
from .model import HmmModel, check_state_path, prior_marginals

BLOCK_STATE_CAP = 10**6


def _log(a: np.ndarray) -> np.ndarray:
    """Natural log with log 0 = -inf and no divide-by-zero warning."""
    with np.errstate(divide="ignore"):
        return np.log(a)


def emission_likelihood(model: HmmModel, obs) -> np.ndarray:
    """Linear-domain likelihood table f[t, j] = f_j(x_t), shape (T, K).

    Categorical symbols and direct-likelihood row positions must be 1-d
    sequences of in-range integers; anything else raises ValueError.
    """
    return model.emission.likelihood(obs)


class PriorChain:
    """The hidden chain before any data is seen, over a fixed horizon.

    Holds the prior marginals (row t-1 is the distribution of the state at
    time t) and the log initial, transition and marginal tables, each
    computed on first use; one instance is shared by every summary of a
    ``forward_backward_many`` call.
    """

    def __init__(self, model: HmmModel, horizon: int):
        self.model = model
        self.horizon = horizon
        self.num_states = model.num_states

    @cached_property
    def prior(self) -> np.ndarray:
        return prior_marginals(self.model, self.horizon)

    @cached_property
    def log_prior(self) -> np.ndarray:
        return _log(self.prior)

    @cached_property
    def log_transition(self) -> np.ndarray:
        return _log(self.model.transition)

    @cached_property
    def log_initial(self) -> np.ndarray:
        return _log(self.model.initial)

    def log_window(self, start, states0: np.ndarray):
        """log P(Y_start..Y_{start+k-1} = states0 + 1) for 1-based starts and
        0-based state tuples along the last axis of ``states0``; ``start``
        broadcasts against ``states0[..., 0]``."""
        v = self.log_prior[np.asarray(start) - 1, states0[..., 0]]
        if states0.shape[-1] > 1:
            v = v + self.log_transition[states0[..., :-1], states0[..., 1:]].sum(axis=-1)
        return v


class PosteriorSummary:
    """Scaled forward/backward tables, smoothed marginals, and log-evidence.

    ``scaled_forward[t]`` is the forward distribution of state t given x^(t+1)
    (rows sum to 1); ``scaling[t]`` is the per-step normalizer, so the data
    log-likelihood is the sum of log scaling factors.  ``smoothed[t, j]`` is
    the posterior marginal of state j+1 at position t+1 given the whole
    sequence.  ``emission_likelihood`` is the table the recursions ran on.
    The summary keeps references to the model and observations it was
    computed from, so downstream decoders only need the summary.  Tables
    that depend only on the model and the horizon (prior marginals, log
    transition and initial scores) are shared by the summaries of one
    ``forward_backward_many`` call.
    """

    def __init__(
        self, model, obs, scaled_forward, scaled_backward, scaling, smoothed, log_evidence, emission_likelihood, chain
    ):
        self.model = model
        self.obs = obs
        self.scaled_forward = scaled_forward
        self.scaled_backward = scaled_backward
        self.scaling = scaling
        self.smoothed = smoothed
        self.log_evidence = log_evidence
        self.emission_likelihood = emission_likelihood
        self._chain = chain

    @property
    def horizon(self) -> int:
        return self.smoothed.shape[0]

    @property
    def num_states(self) -> int:
        return self.smoothed.shape[1]

    @cached_property
    def log_emission(self) -> np.ndarray:
        return _log(self.emission_likelihood)

    @cached_property
    def log_smoothed(self) -> np.ndarray:
        return _log(self.smoothed)

    @cached_property
    def log_forward(self) -> np.ndarray:
        return _log(self.scaled_forward)

    @cached_property
    def log_backward(self) -> np.ndarray:
        return _log(self.scaled_backward)

    @cached_property
    def log_scaling(self) -> np.ndarray:
        return np.log(self.scaling)

    @property
    def log_transition(self) -> np.ndarray:
        return self._chain.log_transition

    @property
    def log_initial(self) -> np.ndarray:
        return self._chain.log_initial

    @property
    def prior(self) -> np.ndarray:
        return self._chain.prior

    @property
    def log_prior(self) -> np.ndarray:
        return self._chain.log_prior

    def log_window(self, start, states0: np.ndarray):
        """log P(Y_start..Y_{start+k-1} = states0 + 1 | x^T), as
        ``PriorChain.log_window`` but conditioned on the observations."""
        return log_window_posterior(self, np.asarray(start) - 1, states0)


def forward_backward_many(model: HmmModel, observations) -> list[PosteriorSummary]:
    """Run the scaled forward-backward recursions on N equal-length
    observation sequences at once; returns one summary per sequence.

    Each step does the same arithmetic per sequence as a single-sequence run,
    so every summary is bit-identical to ``forward_backward`` on its sequence.
    Raises ZeroEvidenceError when some sequence has probability zero under
    the model (some scaling factor vanishes).
    """
    observations = list(observations)
    if not observations:
        raise ValueError("at least one observation sequence is needed")
    horizon = len(observations[0])
    if horizon < 1:
        raise ValueError("observation sequence must be non-empty")
    if any(len(obs) != horizon for obs in observations):
        raise ValueError("observation sequences of one batch must have equal length")
    num, num_states = len(observations), model.num_states
    likes = np.empty((num, horizon, num_states))
    for row, obs in zip(likes, observations):
        row[...] = emission_likelihood(model, obs)
    alpha = np.empty((num, horizon, num_states))
    scaling = np.empty((num, horizon))
    # time-major views: rows[t] is the (N, ...) slice of every sequence at position t
    alpha_rows, like_rows, scale_rows = alpha.transpose(1, 0, 2), likes.transpose(1, 0, 2), scaling.T[:, :, None]
    a = np.empty((num, 1, num_states))
    np.multiply(model.initial, like_rows[0], out=a[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanishing factor is reported below
        for t, (alpha_t, likes_t, scale_t) in enumerate(zip(alpha_rows, like_rows, scale_rows)):
            if t:
                # (N, 1, K) @ (K, K) multiplies row by row, exactly as a single sequence does
                np.matmul(alpha_rows[t - 1, :, None, :], model.transition, out=a)
                a[:, 0] *= likes_t
            np.add.reduce(a, axis=2, out=scale_t)
            np.divide(a[:, 0], scale_t, out=alpha_t)
    impossible = np.flatnonzero((scaling <= 0).any(axis=0))
    if len(impossible):
        raise ZeroEvidenceError(f"observation sequence impossible under the model at t={impossible[0] + 1}")
    beta = np.empty((num, horizon, num_states))
    beta[:, -1] = 1.0
    beta_rows = beta.transpose(1, 0, 2)
    weighted = np.empty((num, num_states, num_states))
    b = np.empty((num, num_states, 1))
    backward = zip(beta_rows[-2::-1], beta_rows[:0:-1, :, :, None], like_rows[:0:-1, :, None, :], scale_rows[:0:-1])
    for beta_t, beta_next, likes_next, scale_next in backward:
        np.multiply(model.transition, likes_next, out=weighted)
        np.matmul(weighted, beta_next, out=b)
        np.divide(b[..., 0], scale_next, out=beta_t)
    smoothed = alpha * beta
    log_evidence = np.log(scaling).sum(axis=1)
    chain = PriorChain(model, horizon)
    return [
        PosteriorSummary(
            model=model,
            obs=observations[n],
            scaled_forward=alpha[n],
            scaled_backward=beta[n],
            scaling=scaling[n],
            smoothed=smoothed[n],
            log_evidence=float(log_evidence[n]),
            emission_likelihood=likes[n],
            chain=chain,
        )
        for n in range(num)
    ]


def forward_backward(model: HmmModel, obs) -> PosteriorSummary:
    """Run the scaled forward-backward recursions on one sequence.

    Raises ZeroEvidenceError when the observation sequence has probability
    zero under the model (some scaling factor vanishes).
    """
    return forward_backward_many(model, [obs])[0]


def log_window_posterior(summary: PosteriorSummary, starts, states0) -> np.ndarray:
    """log P(Y_a..Y_{a+k-1} = s + 1 | x^T) for 0-based window starts a and
    0-based state tuples s, which run along the last axis of ``states0``.

    ``starts`` broadcasts against ``states0[..., 0]``, so one call covers any
    grid of windows and tuples; the loop runs only over the k - 1 steps inside
    a window.
    """
    k = states0.shape[-1]
    logw = summary.log_forward[starts, states0[..., 0]]
    for u in range(k - 1):
        logw += (
            summary.log_transition[states0[..., u], states0[..., u + 1]]
            + summary.log_emission[starts + u + 1, states0[..., u + 1]]
            - summary.log_scaling[starts + u + 1]
        )
    logw += summary.log_backward[starts + k - 1, states0[..., -1]]
    return logw


def log_block_posterior(summary: PosteriorSummary, t: int, block) -> float:
    """log P(Y_t..Y_{t+k-1} = block | x^T) for a 1-based position t and 1-based block."""
    block = check_state_path(block, summary.num_states)
    if block.ndim != 1:
        raise ValueError("a block must be a 1-d sequence of states")
    k = len(block)
    horizon = summary.horizon
    if t < 1 or t + k - 1 > horizon:
        raise IndexError(f"block [{t}, {t + k - 1}] outside positions 1..{horizon}")
    if summary.num_states ** (k - 1) > BLOCK_STATE_CAP:
        raise KOutOfRangeError(f"block length {k} exceeds the tabulation cap for K={summary.num_states}")
    return float(log_window_posterior(summary, t - 1, block - 1))


def block_posterior(summary: PosteriorSummary, t: int, block) -> float:
    """P(Y_t..Y_{t+k-1} = block | x^T); reduces to the smoothed marginal for k=1."""
    return float(np.exp(log_block_posterior(summary, t, block)))
