"""Path decoders: the combined-risk dynamic program, its special cases, the
overlapping-block decoder, and an exhaustive oracle.

Every decoder returns a DecodedPath whose risks are re-evaluated by the risk
module, and all share one tie policy: the lexicographically smallest optimal
path.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError, KOutOfRangeError
from .inference import PosteriorSummary, SummaryStack, _log, forward_backward, log_window_posterior, stack_of
from .lattice import TIE_TOL, best_path, rabiner_walk
from .model import HmmModel
from .risk import (
    RiskReport,
    RiskWeights,
    _check_k,
    combined_risk,
    evaluate_risks,
    joint_log_likelihood,
    power_risk,
    rabiner_gain_batch,
)

BRUTE_FORCE_CAP = 10**7
BLOCK_STATE_CAP = 10**6  # rabiner_block_decode refuses K^k above it
_CHUNK = 1 << 16  # paths enumerated at once, or Rabiner window probabilities in one block of the walk's stream


@dataclass
class DecodedPath:
    """A decoded state path with its objective value and full risk report."""

    path: tuple[int, ...]
    objective: float
    risks: RiskReport
    admissible: bool
    decoder_tag: str


def _finish(stack, idx, tag: str, objective) -> list[DecodedPath]:
    """Wrap a decoder's (N, T) block of 0-based paths on a group; one
    evaluate_risks call checks and scores the block.  ``objective`` holds the
    N objective values, or names the RiskReport field that holds them."""
    paths = np.ascontiguousarray(idx, dtype=int) + 1  # widened first: a uint8 index 255 is state 256
    reports = evaluate_risks(stack, paths)
    if isinstance(objective, str):
        objective = [getattr(risks, objective) for risks in reports]
    return [
        DecodedPath(tuple(path), float(value), risks, math.isfinite(risks.rbarinf_posterior), tag)
        for path, value, risks in zip(paths.tolist(), objective, reports)
    ]


@dataclass(frozen=True)
class _LatticeDecoder:
    """A decoder solved by the max-sum kernel, callable on one summary.

    ``gains(summary, at)`` returns the gains at the positions of the slice
    ``at``, and ``scores(summary)`` the initial and transition scores, of a
    summary or, with a leading axis, of every summary of a SummaryStack.
    ``objective`` names the RiskReport field that holds the objective of the
    decoded path, or is None for the minimized combined risk, -score / T.
    """

    tag: str
    gains: Callable
    scores: Callable
    objective: str | None = None

    def __call__(self, summary: PosteriorSummary) -> DecodedPath:
        return next(_decode_lattice([summary], [self]))[0]


class _Gains:
    """One decoder's gains over a group, an (N, T, K) table computed for the
    window ``[:, lo:hi]`` the kernel reads."""

    def __init__(self, decoder: _LatticeDecoder, stack: SummaryStack):
        self.decoder, self.stack = decoder, stack
        self.shape = (len(stack), stack.horizon, stack.num_states)

    def __getitem__(self, key) -> np.ndarray:
        return self.decoder.gains(self.stack, key[1])


def _decode_lattice(summaries, decoders):
    """Decode equal-length summaries with every lattice decoder in one max-sum
    call, which reads one _Gains row per decoder over the summaries' stack;
    yields one list of DecodedPath per decoder, in summary order, built when
    it is asked for.  Raises ValueError when weights near the float limit
    overflow a score."""
    stack = stack_of(summaries)
    try:
        with np.errstate(over="raise"):
            init_extra, trans = (np.concatenate(scores) for scores in zip(*(d.scores(stack) for d in decoders)))
            idx, best = best_path([_Gains(d, stack) for d in decoders], init_extra, trans)
    except FloatingPointError as exc:
        try:  # name the overflow raised first when every problem's whole gains come before its scores
            with np.errstate(over="raise"):
                for d in decoders:
                    for s in summaries:
                        d.gains(s, slice(None)), d.scores(s)
        except FloatingPointError as first:
            exc = first
        raise ValueError(f"decoder weights too large: the path scores overflow ({exc})") from None
    for d, paths, scores in zip(decoders, np.split(idx, len(decoders)), np.split(best, len(decoders))):
        yield _finish(stack, paths, d.tag, -scores / stack.horizon if d.objective is None else d.objective)


def _same_table(marginals: np.ndarray, beta: float) -> np.ndarray:
    return marginals


def _combined_gains(summary, weights: RiskWeights, at=slice(None), pointwise=_same_table):
    """The combined objective's gains at the positions of the slice ``at``,
    of a summary or of every summary of a stack.  ``pointwise(marginals,
    beta)`` maps the smoothed and the prior marginals to the tables the two
    pointwise terms score."""
    gains = np.zeros_like(summary.smoothed[..., at, :])
    if weights.c1 > 0:
        gains -= weights.c1 * power_risk(pointwise(summary.smoothed[..., at, :], weights.beta1), weights.beta1)
    if weights.c2 > 0:
        gains += weights.c2 * _log(summary.emission_likelihood[..., at, :])
    if weights.c3 > 0:
        gains -= weights.c3 * power_risk(pointwise(summary.prior[..., at, :], weights.beta3), weights.beta3)
    return gains


def _combined_scores(summary, weights: RiskWeights):
    path_weight = np.float64(weights.c2) + weights.c4  # a numpy sum, so that an overflow raises like the tables
    if path_weight > 0:
        return path_weight * summary.log_initial, path_weight * summary.log_transition
    return np.zeros(np.shape(summary.log_initial)), np.zeros(np.shape(summary.log_transition))


def combined_score_tables(summary: PosteriorSummary, weights: RiskWeights):
    """Per-position gains, initial scores, and transition scores of the
    combined objective, such that the total path score is -T times the
    combined risk."""
    return (_combined_gains(summary, weights), *_combined_scores(summary, weights))


def _combined(weights: RiskWeights, tag: str, pointwise=_same_table) -> _LatticeDecoder:
    return _LatticeDecoder(
        tag,
        lambda summary, at: _combined_gains(summary, weights, at, pointwise),
        lambda summary: _combined_scores(summary, weights),
    )


def hybrid_decode(summary: PosteriorSummary, weights: RiskWeights) -> DecodedPath:
    """Minimize the combined risk
    c1*pointwise-posterior + c2*joint + c3*pointwise-prior + c4*prior-path
    by one forward-backward score recursion.

    The objective reported is the minimized combined risk (joint form), i.e.
    -(best score)/T.
    """
    return _combined(weights, weights.tag())(summary)


_VITERBI = _combined(RiskWeights(0.0, 1.0, 0.0, 0.0), "viterbi")


def viterbi_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximum a posteriori path as a DecodedPath (weights 0,1,0,0)."""
    return _VITERBI(summary)


def viterbi(model: HmmModel, obs) -> tuple[int, ...]:
    """Maximum a posteriori state path, lexicographically smallest on ties.

    Raises ZeroEvidenceError when the observations are impossible under the model.
    """
    return viterbi_decode(forward_backward(model, obs)).path


def _pmap_many(summaries) -> list[DecodedPath]:
    stack = stack_of(summaries)
    return _finish(stack, np.argmax(stack.smoothed, axis=2), "pmap", "r1_posterior")


def pmap_decode(summary: PosteriorSummary) -> DecodedPath:
    """Pointwise argmax of the smoothed marginals; may be inadmissible."""
    return _pmap_many([summary])[0]


def _support_masks(summary):
    trans = np.where(summary.log_transition > -np.inf, 0.0, -np.inf)
    init = np.where(summary.log_initial > -np.inf, 0.0, -np.inf)
    return init, trans


_CONSTRAINED_PMAP = _LatticeDecoder(
    "constrained-pmap",
    lambda summary, at: (
        summary.smoothed[..., at, :] + np.where(summary.emission_likelihood[..., at, :] > 0, 0.0, -np.inf)
    ),
    _support_masks,
    "r1_posterior",  # 1 - the mean smoothed marginal along the path
)
_PVD = _LatticeDecoder("pvd", lambda summary, at: _log(summary.smoothed[..., at, :]), _support_masks, "rbar1_posterior")


def constrained_pmap_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximize the summed smoothed marginals over admissible paths only.

    Feasibility masks cover initial/transition support and positive emission
    likelihood per position, which together are exactly admissibility.
    """
    return _CONSTRAINED_PMAP(summary)


def pvd_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximize the product of smoothed marginals over admissible paths."""
    return _PVD(summary)


def _kblock(k: int) -> _LatticeDecoder:
    if not 1 <= k <= sys.float_info.max:  # k - 1 weighs the joint term, so it must be a float
        raise KOutOfRangeError(f"k must be at least 1 and at most {sys.float_info.max!r}, got {k}")
    return _combined(RiskWeights(1.0, float(k - 1), 0.0, 0.0, beta1=0.0), f"kblock k={k}")


def kblock_pvd_decode(summary: PosteriorSummary, k: int) -> DecodedPath:
    """k-block posterior-Viterbi decoding: weights (1, k-1, 0, 0) with a
    logarithmic pointwise term.  k=1 is unconstrained PMAP; growing k bridges
    towards Viterbi, and any k >= 2 yields an admissible path."""
    return _kblock(k)(summary)


def _alpha(alpha: float) -> _LatticeDecoder:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _combined(RiskWeights(alpha, 1.0 - alpha, 0.0, 0.0, beta1=0.0), f"alpha={alpha:g}")


def alpha_interpolation_decode(summary: PosteriorSummary, alpha: float) -> DecodedPath:
    """Interpolated objective alpha*pointwise + (1-alpha)*path risk.

    alpha=0 is the Viterbi objective, alpha=1 the PMAP objective, and
    alpha=1/k matches kblock_pvd_decode(k) up to a factor k.
    """
    return _alpha(alpha)(summary)


def _digits_range(base: int, width: int, start: int, stop: int) -> np.ndarray:
    """Base-``base`` digit matrix (most significant first) of range(start, stop)."""
    digits = np.empty((stop - start, width), dtype=int)
    idx = np.arange(start, stop)
    for pos in range(width - 1, -1, -1):
        digits[:, pos] = idx % base
        idx = idx // base
    return digits


def _window_blocks(summary: PosteriorSummary, k: int):
    """Linear-domain block posteriors of every k-tuple (column, in base-K digit
    order) at the window starts (rows), in blocks of about ``_CHUNK`` elements,
    the last block first: one ``log_window_posterior`` call per block, over an
    open mesh of the starts and the k state axes."""
    num_states, step = summary.num_states, max(1, _CHUNK // summary.num_states**k)
    starts, *states = np.ix_(np.arange(summary.horizon - k + 1), *[np.arange(num_states)] * k)
    for hi in range(len(starts), 0, -step):
        logw = log_window_posterior(summary, starts[max(0, hi - step) : hi], states)
        yield np.exp(logw, out=logw).reshape(len(logw), -1)


def rabiner_block_decode(summary: PosteriorSummary, k: int) -> DecodedPath:
    """Maximize the expected number of correctly decoded overlapping k-blocks.

    Dynamic program over (k-1)-tuples of consecutive states; edge gains are
    the block posteriors, summed in the linear domain.  Admissibility is not
    guaranteed.  The objective reported is the achieved gain (maximized).
    """
    k = _check_k(k, summary.horizon)
    num_states = summary.num_states
    if num_states**k > BLOCK_STATE_CAP:  # every window block and the walk's buffer hold K^k floats per start
        raise KOutOfRangeError(f"K^k exceeds the tabulation cap for k={k}")
    if k == 1:
        idx, gain = np.argmax(summary.smoothed, axis=1), summary.smoothed.max(axis=1).sum()
    else:
        idx = rabiner_walk(_window_blocks(summary, k), num_states, k)
        gain = rabiner_gain_batch(summary, idx[None, :] + 1, k)[0]
    return _finish(stack_of([summary]), [idx], f"rabiner k={k}", [gain])[0]


def _objective_values(summary, objective, k):
    """Return (value function over 1-based path batches, minimize flag, tag)."""
    if isinstance(objective, RiskWeights):
        return (lambda paths: combined_risk(summary, paths, objective)), True, objective.tag()
    if objective == "viterbi":
        return _objective_values(summary, RiskWeights(0.0, 1.0, 0.0, 0.0), k)[:2] + ("viterbi",)
    if objective == "rabiner":
        if k is None:
            raise ValueError("the rabiner objective needs k")
        return (lambda paths: rabiner_gain_batch(summary, paths, k)), False, f"rabiner k={k}"
    rng_t = np.arange(summary.horizon)

    def pointwise(paths):
        if objective == "pvd":
            return -_log(summary.smoothed[rng_t, paths - 1]).mean(axis=1)
        return 1.0 - summary.smoothed[rng_t, paths - 1].mean(axis=1)

    def admissible_only(paths):
        return np.where(np.isfinite(joint_log_likelihood(summary, paths)), pointwise(paths), np.inf)

    if objective == "pmap":
        return pointwise, True, objective
    if objective in ("constrained-pmap", "pvd"):
        return admissible_only, True, objective
    raise ValueError(f"unknown brute-force objective: {objective!r}")


def brute_force_decode(summary: PosteriorSummary, objective, k: int | None = None) -> DecodedPath:
    """Exhaustive oracle: enumerate all K^T paths in lexicographic order and
    return the first path optimal within TIE_TOL.

    ``objective`` is a RiskWeights instance or one of "viterbi", "pmap",
    "constrained-pmap", "pvd", "rabiner" (the last needs k).  Evaluation goes
    through the risk module, independently of the lattice recursions.
    """
    num_states, horizon = summary.num_states, summary.horizon
    n_paths = num_states**horizon
    if n_paths > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(f"{num_states}^{horizon} paths exceed the enumeration cap")
    values_fn, minimize, tag = _objective_values(summary, objective, k)
    sign = 1.0 if minimize else -1.0

    best = np.inf
    for lo in range(0, n_paths, _CHUNK):
        chunk = _digits_range(num_states, horizon, lo, min(lo + _CHUNK, n_paths)) + 1
        best = min(best, float((sign * values_fn(chunk)).min()))
    for lo in range(0, n_paths, _CHUNK):
        chunk = _digits_range(num_states, horizon, lo, min(lo + _CHUNK, n_paths)) + 1
        vals = sign * values_fn(chunk)
        hits = np.flatnonzero(vals <= best + TIE_TOL)
        if len(hits):
            idx = chunk[hits[0]] - 1
            return _finish(stack_of([summary]), [idx], f"brute-force {tag}", [sign * vals[hits[0]]])[0]
    raise AssertionError("unreachable: optimum not found on second pass")


_FIXED_DECODERS = {
    "viterbi": viterbi_decode,
    "pmap": pmap_decode,
    "pvd": pvd_decode,
    "constrained-pmap": constrained_pmap_decode,
}


def _parse_tag(tag: str):
    """Parse a decoder tag.  A lattice tag gives its _LatticeDecoder, which
    decode_many solves together with the other lattice tags; pmap and
    rabiner:k give a function from a list of summaries to their paths."""
    head, _, arg = tag.partition(":")
    if tag == "pmap":
        return _pmap_many
    if head == "rabiner" and arg:
        k = int(arg)
        return lambda summaries: [rabiner_block_decode(s, k) for s in summaries]
    decoder = {"viterbi": _VITERBI, "pvd": _PVD, "constrained-pmap": _CONSTRAINED_PMAP}.get(tag)
    if head == "kblock" and arg:
        decoder = _kblock(int(arg))
    elif head == "alpha" and arg:
        decoder = _alpha(float(arg))
    elif head == "weights" and arg:
        parts = [float(x) for x in arg.replace("/", ",").split(",")]
        if len(parts) not in (4, 6):
            raise ValueError(f"weights tag needs 4 or 6 numbers, got {len(parts)}")
        weights = RiskWeights(*parts)
        decoder = _combined(weights, weights.tag())
    if decoder is None:
        raise ValueError(f"unknown decoder tag: {tag!r}")
    return decoder


def resolve_decoder(tag: str):
    """Map a decoder tag like "viterbi", "kblock:3", "alpha:0.5", "rabiner:2",
    or "weights:c1/c2/c3/c4[/beta1/beta3]" to a callable over one summary:
    the public decoder function for the four fixed tags, else what
    ``_parse_tag`` gives, a group function wrapped for one summary.

    Weight components may be separated by "/" or ","; the slash form survives
    comma-separated tag lists.
    """
    # the registry is looked up first only because perfbench/tests pins it (ROADMAP item 1)
    if tag in _FIXED_DECODERS:
        return _FIXED_DECODERS[tag]
    decoder = _parse_tag(tag)
    return decoder if isinstance(decoder, _LatticeDecoder) else lambda summary: decoder([summary])[0]


def decode_many(summaries, tags):
    """Decode every summary with every tag understood by resolve_decoder.

    Yields one list of DecodedPath per tag, in summary order; the result for
    every summary is the one its single-summary decoder returns.  The
    summaries must share one horizon.  Every tag is parsed before anything is
    decoded.  When the first lattice tag's turn comes, all lattice tags are
    solved in one max-sum call over one gains row per lattice tag over the
    summaries' stack, each filled window by window as the kernel reads it;
    tags listed before it run first.  Each tag's DecodedPath list, pmap and
    rabiner:k included, is built when it is asked for, and each tag but
    rabiner:k scores its paths in one evaluate_risks call.
    """
    summaries = list(summaries)
    decoders = [_parse_tag(tag) for tag in tags]
    if not summaries:
        yield from ([] for _ in decoders)
        return
    stack_of(summaries)  # the one-horizon rule, which rabiner:k alone, decoding summary by summary, would not apply
    solved = _decode_lattice(summaries, [d for d in decoders if isinstance(d, _LatticeDecoder)])  # runs at its first next
    for decoder in decoders:
        yield next(solved) if isinstance(decoder, _LatticeDecoder) else decoder(summaries)
