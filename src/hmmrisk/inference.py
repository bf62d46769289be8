"""Scaled forward-backward smoothing, the prior chain, the stack that groups
the summaries of one batch, and window (block) posteriors.

The scaled recursions make four numpy calls per forward step (a gemv,
multiply, add.reduce, divide) and two per backward step (a gemv, divide);
the backward products transition * f_{t+1} do not depend on the recursion
and are tabulated in blocks of at most about ``lattice._BLOCK`` elements.
The gemv is np.matmul on a batch's (N, 1, K) and (N, K, 1) views and np.dot
on the 1-d rows of a batch of one: both reach the same BLAS gemv per row.
Smoothed rows are written block by block as the backward pass leaves them.
Summaries keep the forward and backward tables and the scaling rows only
for window posteriors: smoothed for decoders that read none, a batch keeps
two (T, K) tables per sequence, the likelihood and smoothed ones, not four.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ZeroEvidenceError
from .lattice import _BLOCK
from .model import HmmModel, _log, check_horizon, check_integer, check_state_path, prior_marginals


def emission_likelihood(model: HmmModel, obs) -> np.ndarray:
    """Linear-domain likelihood table f[t, j] = f_j(x_t), shape (T, K).

    Categorical symbols and direct-likelihood row positions must be 1-d
    sequences of in-range integers; anything else raises ValueError.
    """
    return model.emission.likelihood(obs)


def _zero_d(rows) -> np.nditer:
    """0-d views of a (T, 1) array's entries, in row order: numpy reduces into and divides by them about twice as
    fast as by (1,) views, and order C keeps a reversed slice's order (the default steps in memory order)."""
    return np.nditer(rows[:, 0], ["zerosize_ok"], [["readwrite"]], order="C")


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
    call's ``stack``.  A summary smoothed for decoders that read no window
    posteriors keeps None for its forward and backward tables and scaling.
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
        ones = np.broadcast_to(1.0, (check_horizon(horizon), model.num_states))
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
    A forward step makes 4 numpy calls (a gemv, multiply, add.reduce, divide)
    and a backward step 2 (a gemv, divide).  The gemv is np.matmul on a
    batch's (N, 1, K) alpha rows and (N, K, 1) beta columns, and np.dot on a
    batch of one's 1-d alpha, likelihood and beta rows and (K, K) entries W_t;
    a batch of one reduces into and divides by 0-d views of its scaling
    factors, which an np.nditer hands out one per step.
    The backward pass reads W_t = transition * f_{t+1} from a (positions, N,
    K, K) buffer, with no N axis for a batch of one, that one multiply fills
    for max(1, _BLOCK // (N K K)) positions at a time, so its memory does not
    grow with T; each block's smoothed rows are written as the pass leaves
    them.  Raises ZeroEvidenceError
    when some sequence has probability zero under the model (some scaling
    factor vanishes).
    """
    return _forward_backward(model, observations, windows=True)


def _forward_backward(model: HmmModel, observations, windows: bool) -> list[PosteriorSummary]:
    """``forward_backward_many``, whose summaries keep the forward and
    backward tables and scaling rows that window posteriors read only with
    ``windows``.  Else the smoothed rows overwrite the forward table, the
    backward rows live in a one-block buffer, and the summaries keep None
    for the three, with the same smoothed, likelihood and log-evidence bits."""
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
        model.emission.likelihood(obs, row)
    step = max(1, _BLOCK // (num * num_states * num_states))
    if windows:  # both tables in one allocation
        alpha, beta = np.empty((2, num, horizon, num_states))
    else:  # the backward rows in a buffer of one block's positions and the row above them
        alpha, beta = np.empty((num, horizon, num_states)), np.empty((num, min(step, horizon - 1) + 1, num_states))
    scaling = np.empty((num, horizon))
    # time-major views: rows[t] is the slice of every sequence at position t; a batch of one drops its N axis, and
    # [as_row], [as_col] give a batch its (N, 1, K) rows and (N, K, 1) columns for np.matmul
    one = num == 1
    mul, as_row, as_col = (np.dot, ..., ...) if one else (np.matmul, (..., None, slice(None)), (..., None))
    alpha_rows, like_rows, beta_rows, scale_rows = (
        x[0] if one else x.swapaxes(0, 1) for x in (alpha, likes, beta, scaling[..., None])
    )
    # the scaling factors a loop steps over: 0-d views for a batch of one, (N, 1) views for a batch
    each = _zero_d if one else iter
    a_row, b_col = np.empty((2, *alpha_rows.shape[1:]))
    a, b = a_row[as_row], b_col[as_col]
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanishing factor is reported below
        np.multiply(model.initial, like_rows[0], a_row)
        np.add.reduce(a_row, -1, None, scale_rows[0], True)
        np.divide(a_row, scale_rows[0], alpha_rows[0])
        forward = zip(alpha_rows[:-1][as_row], like_rows[1:], each(scale_rows[1:]), alpha_rows[1:])
        for alpha_prev, likes_t, scale_t, alpha_t in forward:
            mul(alpha_prev, model.transition, a)  # row by row, exactly as a single sequence does
            np.multiply(a_row, likes_t, a_row)
            np.add.reduce(a_row, -1, None, scale_t, not one)
            np.divide(a_row, scale_t, alpha_t)
    impossible = np.flatnonzero((scaling <= 0).any(axis=0))
    if len(impossible):
        raise ZeroEvidenceError(f"observation sequence impossible under the model at t={impossible[0] + 1}")
    weighted = np.empty((step, *alpha_rows.shape[1:], num_states))
    smoothed = np.empty_like(alpha) if windows else alpha
    smooth_rows = smoothed[0] if one else smoothed.swapaxes(0, 1)
    rows = beta_rows[-1:]  # the backward rows of a block's positions lo..hi; before the first block, position T - 1's
    rows[0] = 1.0
    # a block holds positions lo..hi-1: w[t - lo] = transition * f_{t+1}
    for hi in range(horizon - 1, 0, -step):
        lo = max(hi - step, 0)
        if windows:
            rows = beta_rows[lo : hi + 1]
        else:  # the buffer's last row takes position hi from the block before, whose first row it was
            beta_rows[-1] = rows[0]
            rows = beta_rows[lo - hi - 1 :]
        w = weighted[: hi - lo]
        np.multiply(model.transition, like_rows[lo + 1 : hi + 1, ..., None, :], w)
        # a successor the forward pass ruled out adds nothing, as its beta can overflow
        w *= alpha_rows[lo + 1 : hi + 1, ..., None, :] > 0
        block = zip(w[::-1], rows[:0:-1][as_col], each(scale_rows[hi:lo:-1]), rows[-2::-1])
        for weighted_t, beta_next, scale_next, beta_t in block:
            mul(weighted_t, beta_next, b)
            np.divide(b_col, scale_next, beta_t)
        # no later block reads the forward rows past position lo
        np.multiply(alpha_rows[lo + 1 : hi + 1], rows[1:], smooth_rows[lo + 1 : hi + 1])
    np.multiply(alpha_rows[0], rows[0], smooth_rows[0])
    chain = PriorChain(model, horizon)  # its prior marginals are built when a summary first reads them
    log_scaling = np.log(scaling, None if windows else scaling)  # in place when no summary keeps the scaling rows
    stack = SummaryStack(smoothed, likes, log_scaling.sum(axis=1), [chain] * num)
    kept = zip(alpha, beta, scaling) if windows else [(None, None, None)] * num  # the tables window posteriors read
    return [PosteriorSummary(stack, n, *tables, chain) for n, tables in enumerate(kept)]


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
