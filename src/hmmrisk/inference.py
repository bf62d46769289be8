"""Scaled forward-backward smoothing, the prior chain, the stack that groups
the summaries of one batch, and window (block) posteriors.

The scaled recursions make four numpy calls per forward step (matmul,
multiply, add.reduce, divide) and two per backward step (matmul, divide);
the backward products transition * f_{t+1} do not depend on the recursion
and are tabulated in blocks of at most about ``lattice._BLOCK`` elements.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ZeroEvidenceError
from .lattice import _BLOCK
from .model import HmmModel, _log, check_integer, check_state_path, prior_marginals


def emission_likelihood(model: HmmModel, obs) -> np.ndarray:
    """Linear-domain likelihood table f[t, j] = f_j(x_t), shape (T, K).

    Categorical symbols and direct-likelihood row positions must be 1-d
    sequences of in-range integers; anything else raises ValueError.
    """
    return model.emission.likelihood(obs)


def _rows(tables) -> np.ndarray:
    """The tables stacked along a new leading axis; one table shared by every row is broadcast, not copied."""
    if all(table is tables[0] for table in tables):
        return np.broadcast_to(tables[0], (len(tables),) + np.shape(tables[0]))
    return np.stack(tables)


class SummaryStack:
    """N equal-length summaries as one group, read by one call where each
    summary would take one: ``smoothed``, ``emission_likelihood`` and
    ``prior`` are (N, T, K) tables whose row n is summary n's table,
    ``log_initial`` is (N, K), ``log_transition`` (N, K, K) and
    ``log_evidence`` (N,).  Row n's prior marginals and log initial and
    transition tables are those of ``chains[n]`` (a summary, or the prior
    chain of a ``forward_backward_many`` call); a table every row shares is
    broadcast, and the prior marginals are stacked on first use.  No log of a
    (T, K) table is kept: a reader takes the log of the entries it gathers.
    """

    def __init__(self, smoothed: np.ndarray, emission_likelihood: np.ndarray, log_evidence, chains):
        self.smoothed, self.emission_likelihood, self.chains = smoothed, emission_likelihood, chains
        self.log_evidence = np.asarray(log_evidence, dtype=float)
        self.horizon, self.num_states = smoothed.shape[1:]
        self.log_initial = _rows([chain.log_initial for chain in chains])
        self.log_transition = _rows([chain.log_transition for chain in chains])

    def __len__(self) -> int:
        return len(self.smoothed)

    @cached_property
    def prior(self) -> np.ndarray:
        return _rows([chain.prior for chain in self.chains])


def stack_of(summaries) -> SummaryStack:
    """The group of equal-length ``summaries``: the stack of their
    ``forward_backward_many`` call when they are its summaries, in order,
    else a stack of copies of their tables (a table shared by every summary
    is broadcast, so one summary, or one summary repeated, copies nothing)."""
    summaries = list(summaries)
    stack = summaries[0].stack
    if stack is not None and [(s.stack, s.row) for s in summaries] == [(stack, n) for n in range(len(stack))]:
        return stack
    if any(s.horizon != summaries[0].horizon for s in summaries):
        raise ValueError(f"a group's summaries must share one horizon, got {sorted({s.horizon for s in summaries})}")
    smoothed, likes = (_rows([getattr(s, name) for s in summaries]) for name in ("smoothed", "emission_likelihood"))
    return SummaryStack(smoothed, likes, [s.log_evidence for s in summaries], summaries)


class PosteriorSummary:
    """Scaled forward/backward tables, smoothed marginals, and log-evidence.

    ``scaled_forward[t]`` is the forward distribution of state t given x^(t+1)
    (rows sum to 1); ``scaling[t]`` is the per-step normalizer, so the data
    log-likelihood is the sum of log scaling factors.  ``smoothed[t, j]`` is
    the posterior marginal of state j+1 at position t+1 given the whole
    sequence.  ``emission_likelihood`` is the table the recursions ran on.
    ``prior_chain`` is the summary of no observations over the same horizon
    (a ``PriorChain``); its log initial and transition tables and its
    smoothed table, the prior marginals, are shared by the summaries of one
    ``forward_backward_many`` call.  The summary is row ``row`` of that
    call's ``stack``.
    """

    def __init__(self, stack: SummaryStack, row: int, scaled_forward, scaled_backward, scaling, prior_chain):
        self.stack, self.row = stack, row
        self.scaled_forward = scaled_forward
        self.scaled_backward = scaled_backward
        self.scaling = scaling
        self.smoothed = stack.smoothed[row]
        self.log_evidence = float(stack.log_evidence[row])
        self.emission_likelihood = stack.emission_likelihood[row]
        self.prior_chain = prior_chain
        self.log_initial, self.log_transition = prior_chain.log_initial, prior_chain.log_transition

    @property
    def horizon(self) -> int:
        return self.emission_likelihood.shape[0]

    @property
    def num_states(self) -> int:
        return self.emission_likelihood.shape[1]

    @property
    def prior(self) -> np.ndarray:
        """The prior marginals, row t-1 the distribution of the state at time t."""
        return self.prior_chain.smoothed


class PriorChain(PosteriorSummary):
    """The summary of a sequence that observes nothing, over ``horizon`` steps:
    the hidden chain before any data is seen.  Every likelihood, scaling
    factor and backward variable is 1, the log-evidence is 0, and the forward
    and smoothed tables are the prior marginals, built on first use.  So its
    windows and posterior risks are those of the chain alone, and they are
    its prior risks too.
    """

    stack = row = None  # no forward_backward_many call made it

    def __init__(self, model: HmmModel, horizon: int):
        ones = np.broadcast_to(1.0, (horizon, model.num_states))
        self.model, self.log_evidence = model, 0.0
        self.emission_likelihood, self.scaled_backward, self.scaling = ones, ones, ones[:, 0]
        self.log_initial, self.log_transition = _log(model.initial), _log(model.transition)

    @cached_property
    def prior(self) -> np.ndarray:  # not a prior_chain naming itself: that reference cycle only gc would free
        return prior_marginals(self.model, self.horizon)

    # with no data, neither filtering nor smoothing moves the prior marginals
    scaled_forward = smoothed = property(lambda self: self.prior)


def forward_backward_many(model: HmmModel, observations) -> list[PosteriorSummary]:
    """Run the scaled forward-backward recursions on N equal-length
    observation sequences at once; returns one summary per sequence.

    Each step does the same arithmetic per sequence as a single-sequence run,
    so every summary is bit-identical to ``forward_backward`` on its sequence.
    A forward step makes 4 numpy calls and a backward step 2; the backward
    pass reads the products transition * f_{t+1} from a (positions, N, K, K)
    buffer that one multiply fills for max(1, _BLOCK // (N K K)) positions at
    a time, so its memory does not grow with T.  Raises ZeroEvidenceError
    when some sequence has probability zero under the model (some scaling
    factor vanishes).
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
    a_row = a[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanishing factor is reported below
        np.multiply(model.initial, like_rows[0], out=a_row)
        np.add.reduce(a, axis=2, out=scale_rows[0])
        np.divide(a_row, scale_rows[0], out=alpha_rows[0])
        forward = zip(alpha_rows[:-1, :, None, :], like_rows[1:], scale_rows[1:], alpha_rows[1:])
        for alpha_prev, likes_t, scale_t, alpha_t in forward:
            # (N, 1, K) @ (K, K) multiplies row by row, exactly as a single sequence does
            np.matmul(alpha_prev, model.transition, out=a)
            np.multiply(a_row, likes_t, out=a_row)
            np.add.reduce(a, axis=2, out=scale_t)
            np.divide(a_row, scale_t, out=alpha_t)
    impossible = np.flatnonzero((scaling <= 0).any(axis=0))
    if len(impossible):
        raise ZeroEvidenceError(f"observation sequence impossible under the model at t={impossible[0] + 1}")
    beta = np.empty((num, horizon, num_states))
    beta[:, -1] = 1.0
    beta_rows = beta.transpose(1, 0, 2)
    beta_cols = beta_rows[:, :, :, None]
    step = max(1, _BLOCK // (num * num_states * num_states))
    weighted = np.empty((step, num, num_states, num_states))
    b = np.empty((num, num_states, 1))
    b_col = b[..., 0]
    # a block holds positions lo..hi-1: w[t - lo] = transition * f_{t+1}
    for hi in range(horizon - 1, 0, -step):
        lo = max(hi - step, 0)
        w = weighted[: hi - lo]
        np.multiply(model.transition, like_rows[lo + 1 : hi + 1, :, None, :], out=w)
        # a successor the forward pass ruled out adds nothing, as its beta can overflow
        w *= alpha_rows[lo + 1 : hi + 1, :, None, :] > 0
        block = zip(w[::-1], beta_cols[hi:lo:-1], scale_rows[hi:lo:-1], beta_rows[lo:hi][::-1])
        for weighted_t, beta_next, scale_next, beta_t in block:
            np.matmul(weighted_t, beta_next, out=b)
            np.divide(b_col, scale_next, out=beta_t)
    chain = PriorChain(model, horizon)  # its prior marginals are built when a summary first reads them
    stack = SummaryStack(alpha * beta, likes, np.log(scaling).sum(axis=1), [chain] * num)
    return [PosteriorSummary(stack, n, alpha[n], beta[n], scaling[n], chain) for n in range(num)]


def forward_backward(model: HmmModel, obs) -> PosteriorSummary:
    """Run the scaled forward-backward recursions on one sequence.

    Raises ZeroEvidenceError when the observation sequence has probability
    zero under the model (some scaling factor vanishes).
    """
    return forward_backward_many(model, [obs])[0]


def log_window_posterior(summary: PosteriorSummary, starts, states) -> np.ndarray:
    """log P(Y_a..Y_{a+k-1} = (s_0..s_{k-1}) + 1 | x^T) for 0-based window
    starts a and 0-based states s_u, given as k index arrays (a list, or an
    array whose first axis has length k) that broadcast against ``starts``:
    arrays along paths gather each window's own states, and an open mesh
    (``np.ix_``) tabulates every k-tuple.  The loop runs only over the k - 1
    steps inside a window; its adds are out of place, as over a mesh the sum
    outgrows its first term.  Logs are taken of the gathered entries only.
    """
    k = len(states)
    logw = _log(summary.scaled_forward[starts, states[0]])
    for u in range(1, k):
        logw = logw + (
            summary.log_transition[states[u - 1], states[u]]
            + _log(summary.emission_likelihood[starts + u, states[u]])
            - _log(summary.scaling[starts + u])
        )
    return logw + _log(summary.scaled_backward[starts + k - 1, states[-1]])


def block_posterior(summary: PosteriorSummary, t: int, block) -> float:
    """P(Y_t..Y_{t+k-1} = block | x^T) for a 1-based position t and 1-based
    block; reduces to the smoothed marginal for k=1."""
    block = check_state_path(block, summary.num_states)
    if block.ndim != 1:
        raise ValueError("a block must be a 1-d sequence of states")
    k, horizon, t = len(block), summary.horizon, check_integer(t, "position")
    if t < 1 or t + k - 1 > horizon:
        raise IndexError(f"block [{t}, {t + k - 1}] outside positions 1..{horizon}")
    return float(np.exp(log_window_posterior(summary, t - 1, block - 1)))
