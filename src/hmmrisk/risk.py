"""Risk functionals for hidden paths.

Pointwise and path-level risks come in a linear and a logarithmic flavour,
each for the posterior and for the prior chain, plus the windowed k-block
log-risk and the expected-correct-blocks gain.  All log risks are negative
log-probabilities divided by the path length; impossible events yield +inf,
which is a first-class value throughout.  A path's entries are gathered from
the tables by flat index, one ``np.take`` per table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import KOutOfRangeError
from .inference import PosteriorSummary, SummaryStack, _log, log_window_posterior, stack_of
from .model import check_integer, check_state_path


def power_risk(p, beta: float):
    """Power-family pointwise risk: (1 - p**beta)/beta, or -log p when beta is 0.

    Continuous in beta at 0, zero at p=1 for every beta, and monotone
    nonincreasing in p.
    """
    p = np.asarray(p, dtype=float)
    if beta == 0.0:
        out = -_log(p)
    else:
        out = (1.0 - p**beta) / beta
    return float(out) if out.ndim == 0 else out


@dataclass
class RiskWeights:
    """Weights (c1..c4) and inflection exponents of the combined decoding objective.

    c1 weighs the pointwise posterior term, c2 the joint path term, c3 the
    pointwise prior term, c4 the prior path term.  beta1/beta3 select the
    power-family member for the two pointwise terms (0 means logarithmic);
    the path-level terms are always logarithmic.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    beta1: float = 0.0
    beta3: float = 0.0

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4", "beta1", "beta3"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # written so that NaN fails it too
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.c1 + self.c2 + self.c3 + self.c4 <= 0:
            raise ValueError("at least one of c1..c4 must be positive")

    def tag(self) -> str:
        out = f"weights({self.c1:g},{self.c2:g},{self.c3:g},{self.c4:g})"
        if self.beta1 != 0.0 or self.beta3 != 0.0:
            out += f" beta1={self.beta1:g} beta3={self.beta3:g}"
        return out


@dataclass
class RiskReport:
    """Every risk functional of one path, evaluated exactly."""

    r1_posterior: float
    rbar1_posterior: float
    rinf_posterior: float
    rbarinf_posterior: float
    rbarinf_joint: float
    r1_prior: float
    rbar1_prior: float
    rbarinf_prior: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}


RiskReport.FIELDS = tuple(f.name for f in fields(RiskReport))


def _as_paths0(summary, paths) -> tuple[np.ndarray, bool]:
    """Validate 1-based path input of the summary's (or stack's) horizon and
    return it as a C-ordered 0-based (N, T) index matrix, in the input's
    integer dtype, with a flag for single-path input.  C order makes a row's
    reductions add in the order a 1-d path's do."""
    arr = check_state_path(paths, summary.num_states)
    if arr.shape[-1] != summary.horizon:
        raise ValueError(f"path length {arr.shape[-1]} does not match horizon {summary.horizon}")
    return np.ascontiguousarray(np.atleast_2d(arr) - 1), arr.ndim == 1


def _check_k(k, horizon: int) -> int:
    """The window rule of every k-block scorer and decoder: k is an integer
    (by the integer rule, 2.0 is 2) with 1 <= k <= T; returns k as an int."""
    if not 1 <= check_integer(k, "k") <= horizon:
        raise KOutOfRangeError(f"k must lie in 1..{horizon}, got {k}")
    return int(k)


def _index(stack: SummaryStack, paths0: np.ndarray) -> np.ndarray:
    """``t K + paths0[n, t]``, the flat index of each path entry in one (T, K) table, as an (N, T) intp block."""
    return np.add(np.arange(0, stack.horizon * stack.num_states, stack.num_states), paths0, dtype=np.intp)


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[n].flat[index[n]]`` for each row n of a stack's (N, ...) table, by one flat ``np.take``.  A table of
    one row, or one every row shares (stride 0, as the broadcast prior), is read from its one row; any other at
    ``index`` shifted by each row's offset, which is added in place and taken off again."""
    if len(table) == 1 or table.strides[0] == 0:
        return np.take(table[0], index)
    offsets = np.arange(0, table.size, table[0].size)[:, None]
    index += offsets
    entries = np.take(table, index)
    index -= offsets
    return entries


def _log_gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The log of ``_gather(table, index)``, taken in place."""
    entries = _gather(table, index)
    return _log(entries, entries)


def _joint_ll(stack: SummaryStack, paths0: np.ndarray, index: np.ndarray) -> np.ndarray:
    return _prior_ll(stack, paths0) + _log_gather(stack.emission_likelihood, index).sum(axis=1)


def _prior_ll(stack: SummaryStack, paths0: np.ndarray) -> np.ndarray:
    first = stack.log_initial[np.arange(len(stack)), paths0[:, 0]]
    steps = np.multiply(paths0[:, :-1], stack.num_states, dtype=np.intp)  # the flat index of each step in a (K, K) table
    steps += paths0[:, 1:]
    return first + _gather(stack.log_transition, steps).sum(axis=1)


def joint_log_likelihood(summary: PosteriorSummary, paths):
    """log p(x^T, s^T) for one path or a batch of paths."""
    paths0, single = _as_paths0(summary, paths)
    stack = stack_of([summary])
    out = _joint_ll(stack, paths0, _index(stack, paths0))
    return float(out[0]) if single else out


def posterior_log_probability(summary: PosteriorSummary, paths):
    """log p(s^T | x^T) = log p(x^T, s^T) - log p(x^T)."""
    return joint_log_likelihood(summary, paths) - summary.log_evidence


def combined_risk(summary: PosteriorSummary, paths, weights: RiskWeights):
    """The weighted decoding objective for one path or a batch of paths.

    c1 * mean power_risk(smoothed, beta1) + c2 * joint log-risk
    + c3 * mean power_risk(prior, beta3) + c4 * prior log-risk.
    Terms with zero weight are skipped so that 0 * inf never occurs.
    """
    paths0, single = _as_paths0(summary, paths)
    stack, horizon = stack_of([summary]), summary.horizon
    index, total = _index(stack, paths0), np.zeros(len(paths0))
    if weights.c1 > 0:
        total += weights.c1 * power_risk(_gather(stack.smoothed, index), weights.beta1).mean(axis=1)
    if weights.c2 > 0:
        total += weights.c2 * (-_joint_ll(stack, paths0, index) / horizon)
    if weights.c3 > 0:
        total += weights.c3 * power_risk(_gather(stack.prior, index), weights.beta3).mean(axis=1)
    if weights.c4 > 0:
        total += weights.c4 * (-_prior_ll(stack, paths0) / horizon)
    return float(total[0]) if single else total


def _risk_columns(stack: SummaryStack, paths0: np.ndarray) -> tuple[np.ndarray, ...]:
    """The eight RiskReport columns, in field order, of a C-ordered (N, T) block of 0-based paths on a stack, row n
    scored against summary n.  The flat index of the path entries is built once, after the prior path terms, and
    serves the likelihood, smoothed and prior tables; each table is gathered along the paths, the log taken of the
    gathered entries in place where a log risk needs it, and reduced over rows before the next is gathered."""
    horizon = stack.horizon

    def pointwise(table):  # the linear and log pointwise risks; the gathered entries go when it returns
        entries = _gather(table, index)
        return 1.0 - entries.mean(axis=1), -_log(entries, entries).mean(axis=1)

    prior_ll = _prior_ll(stack, paths0)
    index = _index(stack, paths0)
    joint_ll = prior_ll + _log_gather(stack.emission_likelihood, index).sum(axis=1)
    post_lp = joint_ll - stack.log_evidence
    return (
        *pointwise(stack.smoothed),
        -np.expm1(post_lp),
        -post_lp / horizon,
        -joint_ll / horizon,
        *pointwise(stack.prior),
        -prior_ll / horizon,
    )


def evaluate_risks(summary, path):
    """Evaluate every catalogued risk of one path against (model, obs, posterior).

    ``summary`` may instead be the SummaryStack of a group of N summaries and
    ``path`` an (N, T) block of paths: row n is scored against summary n, and
    the N reports come back as a list, from one call.  One path is the
    one-row case, bit for bit: the reports hold the floats of the columns
    ``_risk_columns`` gives.
    """
    group = isinstance(summary, SummaryStack)
    stack = summary if group else stack_of([summary])
    paths0, single = _as_paths0(stack, path)
    if not group and not single:
        raise ValueError("evaluate_risks scores one 1-d path")
    if group and (single or len(paths0) != len(stack)):
        raise ValueError(f"a group of {len(stack)} summaries scores a ({len(stack)}, T) block of paths")
    reports = [RiskReport(*values) for values in zip(*(column.tolist() for column in _risk_columns(stack, paths0)))]
    return reports if group else reports[0]


def kblock_logrisk(chain, path, k: int) -> float:
    """Windowed log-risk: -(1/T) log of the product of all length-k window
    probabilities along the path, including the truncated boundary windows.

    ``chain`` is a PosteriorSummary (windows given the observations) or a
    PriorChain (the summary of no observations: windows of the hidden chain
    alone).  k=1 collapses to the pointwise log risk of the same chain.
    """
    horizon = chain.horizon
    k = _check_k(k, horizon)
    paths0, single = _as_paths0(chain, path)
    if not single:
        raise ValueError("kblock_logrisk scores one 1-d path")
    idx = paths0[0]
    full = log_window_posterior(chain, np.arange(horizon - k + 1), np.lib.stride_tricks.sliding_window_view(idx, k).T)
    head = [log_window_posterior(chain, 0, idx[:b]) for b in range(1, k)]
    tail = [log_window_posterior(chain, a, idx[a:]) for a in range(horizon - k + 1, horizon)]
    # cumsum adds the windows left to right, from 0.0, in the order they lie along the path
    total = np.cumsum(np.concatenate(([0.0], head, full, tail)))[-1]
    return float(-total / horizon)


def rabiner_gain_batch(summary: PosteriorSummary, paths, k: int):
    """Expected number of correctly decoded overlapping k-blocks of one path (a
    float) or of each row of an (N, T) batch of paths: the sum over t of
    P(Y_t..Y_{t+k-1} = path window | x^T), or T - k + 1 minus the expected block loss."""
    paths0, single = _as_paths0(summary, paths)
    horizon = summary.horizon
    k = _check_k(k, horizon)
    windows = np.lib.stride_tricks.sliding_window_view(paths0, k, axis=1)  # (N, T - k + 1, k)
    probs = np.exp(log_window_posterior(summary, np.arange(horizon - k + 1), np.moveaxis(windows, -1, 0)))
    # cumsum adds the windows left to right, so the total does not depend on how numpy pairs terms
    gains = np.cumsum(probs, axis=1)[:, -1]
    return float(gains[0]) if single else gains
