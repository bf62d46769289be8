"""Risk functionals for hidden paths.

Pointwise and path-level risks come in a linear and a logarithmic flavour,
each for the posterior and for the prior chain, plus the windowed k-block
log-risk and the expected-correct-blocks gain.  All log risks are negative
log-probabilities divided by the path length; impossible events yield +inf,
which is a first-class value throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import KOutOfRangeError
from .inference import PosteriorSummary, _log, log_window_posterior
from .model import check_state_path


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


def neg_power_log(p, beta: float):
    """-power_risk: log p when beta is 0, (p**beta - 1)/beta otherwise."""
    return -power_risk(p, beta)


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
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


def _as_paths0(summary: PosteriorSummary, paths) -> tuple[np.ndarray, bool]:
    """Validate 1-based path input of the summary's horizon and return it as a
    0-based (N, T) index matrix, with a flag for single-path input."""
    arr = check_state_path(paths, summary.num_states)
    if arr.shape[-1] != summary.horizon:
        raise ValueError(f"path length {arr.shape[-1]} does not match horizon {summary.horizon}")
    return np.atleast_2d(arr) - 1, arr.ndim == 1


def _gather(table: np.ndarray, paths0: np.ndarray) -> np.ndarray:
    return table[np.arange(paths0.shape[1])[None, :], paths0]


def _joint_ll(summary: PosteriorSummary, paths0: np.ndarray) -> np.ndarray:
    return _prior_ll(summary, paths0) + _gather(summary.log_emission, paths0).sum(axis=1)


def _prior_ll(summary: PosteriorSummary, paths0: np.ndarray) -> np.ndarray:
    return summary.log_initial[paths0[:, 0]] + summary.log_transition[paths0[:, :-1], paths0[:, 1:]].sum(axis=1)


def joint_log_likelihood(summary: PosteriorSummary, paths):
    """log p(x^T, s^T) for one path or a batch of paths."""
    paths0, single = _as_paths0(summary, paths)
    out = _joint_ll(summary, paths0)
    return float(out[0]) if single else out


def prior_log_likelihood(summary: PosteriorSummary, paths):
    """log p(s^T) under the hidden chain alone."""
    paths0, single = _as_paths0(summary, paths)
    out = _prior_ll(summary, paths0)
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
    horizon = summary.horizon
    total = np.zeros(len(paths0))
    if weights.c1 > 0:
        total += weights.c1 * power_risk(_gather(summary.smoothed, paths0), weights.beta1).mean(axis=1)
    if weights.c2 > 0:
        total += weights.c2 * (-_joint_ll(summary, paths0) / horizon)
    if weights.c3 > 0:
        total += weights.c3 * power_risk(_gather(summary.prior, paths0), weights.beta3).mean(axis=1)
    if weights.c4 > 0:
        total += weights.c4 * (-_prior_ll(summary, paths0) / horizon)
    return float(total[0]) if single else total


def evaluate_risks(summary: PosteriorSummary, path) -> RiskReport:
    """Evaluate every catalogued risk of one path against (model, obs, posterior)."""
    paths0, single = _as_paths0(summary, path)
    if not single:
        raise ValueError("evaluate_risks scores one 1-d path")
    horizon = summary.horizon
    sm = _gather(summary.smoothed, paths0)[0]
    lsm = _gather(summary.log_smoothed, paths0)[0]
    pm = _gather(summary.prior, paths0)[0]
    lpm = _gather(summary.log_prior, paths0)[0]
    joint_ll = float(_joint_ll(summary, paths0)[0])
    prior_ll = float(_prior_ll(summary, paths0)[0])
    post_lp = joint_ll - summary.log_evidence
    return RiskReport(
        r1_posterior=float(1.0 - sm.mean()),
        rbar1_posterior=float(-lsm.mean()),
        rinf_posterior=float(-np.expm1(post_lp)),
        rbarinf_posterior=float(-post_lp / horizon),
        rbarinf_joint=float(-joint_ll / horizon),
        r1_prior=float(1.0 - pm.mean()),
        rbar1_prior=float(-lpm.mean()),
        rbarinf_prior=float(-prior_ll / horizon),
    )


def kblock_logrisk(chain, path, k: int) -> float:
    """Windowed log-risk: -(1/T) log of the product of all length-k window
    probabilities along the path, including the truncated boundary windows.

    ``chain`` is a PosteriorSummary (windows given the observations) or a
    PriorChain (windows of the hidden chain alone).  k=1 collapses to the
    pointwise log risk of the same chain.
    """
    horizon = chain.horizon
    if not 1 <= k <= horizon:
        raise KOutOfRangeError(f"k must lie in 1..{horizon}, got {k}")
    idx = check_state_path(path, chain.num_states) - 1
    if idx.shape != (horizon,):
        raise ValueError(f"a path of length {horizon} is needed, got shape {idx.shape}")
    full = chain.log_window(np.arange(1, horizon - k + 2), np.lib.stride_tricks.sliding_window_view(idx, k))
    head = [chain.log_window(1, idx[:b]) for b in range(1, k)]
    tail = [chain.log_window(a, idx[a - 1 :]) for a in range(horizon - k + 2, horizon + 1)]
    # cumsum adds the windows left to right, from 0.0, in the order they lie along the path
    total = np.cumsum(np.concatenate(([0.0], head, full, tail)))[-1]
    return float(-total / horizon)


def rabiner_block_gain(summary: PosteriorSummary, path, k: int) -> float:
    """Expected number of correctly decoded overlapping k-blocks along the path.

    The sum over t of P(Y_t..Y_{t+k-1} = path window | x^T); equivalently
    T - k + 1 minus the expected block loss.
    """
    return float(rabiner_gain_batch(summary, [path], k)[0])


def rabiner_gain_batch(summary: PosteriorSummary, paths, k: int) -> np.ndarray:
    """rabiner_block_gain of every row of an (N, T) batch of paths."""
    paths0, _ = _as_paths0(summary, paths)
    horizon = summary.horizon
    if not 1 <= k <= horizon:
        raise KOutOfRangeError(f"k must lie in 1..{horizon}, got {k}")
    windows = np.lib.stride_tricks.sliding_window_view(paths0, k, axis=1)  # (N, T - k + 1, k)
    probs = np.exp(log_window_posterior(summary, np.arange(horizon - k + 1), windows))
    # cumsum adds the windows left to right, so the total does not depend on how numpy pairs terms
    return np.cumsum(probs, axis=1)[:, -1]
