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
from .inference import PosteriorSummary, SummaryStack, _forward_backward, _log, log_window_posterior, stack_of
from .lattice import TIE_TOL, _digits, best_path, near_max, rabiner_walk
from .model import HmmModel, check_integer, read_integer
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


def _finish(stack, tag: str, idx, objective) -> list[DecodedPath]:
    """Wrap a decoder's (N, T) block of 0-based paths on a group; one
    evaluate_risks call checks and scores the block, as labels in the
    smallest unsigned dtype that holds K (state 256 is uint16).  ``objective``
    holds the N objective values, or names the RiskReport field that holds them."""
    paths = np.add(idx, 1, dtype=np.min_scalar_type(stack.num_states), casting="unsafe")  # every index is < K
    reports = evaluate_risks(stack, paths)
    if isinstance(objective, str):
        objective = [getattr(risks, objective) for risks in reports]
    return [
        DecodedPath(tuple(path), float(value), risks, math.isfinite(risks.rbarinf_posterior), tag)
        for path, value, risks in zip(paths.tolist(), objective, reports)
    ]


@dataclass(frozen=True)
class _Decoder:
    """A decoder of the risk-based class, callable on one summary, the group
    of one.  A lattice decoder's (N, T) block of 0-based paths and N objective
    values come from the group's one max-sum call, which reads its
    ``gains(stack, at)``, the gains at the positions of the slice ``at``, and
    ``scores(stack)``, the initial and transition scores, of the group's
    SummaryStack; ``objective`` names the RiskReport field that holds its
    objective, or is None for the minimized combined risk, -score / T.  Any
    other decoder's ``solve(summaries, stack)`` returns its block and its
    values, or the field that holds them.  ``windows`` is true when solve
    reads window posteriors (forward and backward tables).
    """

    tag: str
    gains: Callable | None = None
    scores: Callable | None = None
    objective: str | None = None
    solve: Callable | None = None
    windows: bool = False

    def __call__(self, summary: PosteriorSummary) -> DecodedPath:
        return next(_decode_group([summary], [self]))[0]


class _Gains:
    """One decoder's gains over a group, an (N, T, K) table computed for the
    window ``[:, lo:hi]`` the kernel reads."""

    def __init__(self, decoder: _Decoder, stack: SummaryStack):
        self.decoder, self.stack = decoder, stack
        self.shape = (len(stack), stack.horizon, stack.num_states)

    def __getitem__(self, key) -> np.ndarray:
        return self.decoder.gains(self.stack, key[1])


def _lattice(decoders, stack: SummaryStack):
    """Solve a group's stack with every lattice decoder in one max-sum call,
    which reads one _Gains row per decoder; yields each decoder's (N, T)
    block of paths and its objective, in decoder order.  Raises ValueError
    when weights near the float limit overflow a gain or a score."""
    try:
        with np.errstate(over="raise"):
            init_extra, trans = (np.concatenate(scores) for scores in zip(*(d.scores(stack) for d in decoders)))
            idx, best = best_path([_Gains(d, stack) for d in decoders], init_extra, trans)
    except FloatingPointError:
        raise ValueError("decoder weights too large: the path scores overflow") from None
    for d, paths, scores in zip(decoders, np.split(idx, len(decoders)), np.split(best, len(decoders))):
        yield paths, -scores / stack.horizon if d.objective is None else d.objective


def _same_table(marginals: np.ndarray, beta: float) -> np.ndarray:
    return marginals


def _combined_gains(summary, weights: RiskWeights, at=slice(None), pointwise=_same_table):
    """The combined objective's gains at the positions of the slice ``at``,
    of a stack (the lattice) or a summary (combined_score_tables).
    ``pointwise(marginals, beta)`` maps the smoothed and the prior marginals
    to the tables the two pointwise terms score."""
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


def _combined(weights: RiskWeights, tag: str, pointwise=_same_table) -> _Decoder:
    return _Decoder(
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
    return _VITERBI(_summaries(model, [obs])[0]).path


_PMAP = _Decoder("pmap", solve=lambda summaries, stack: (near_max(stack.smoothed, 2)[1], "r1_posterior"))


def pmap_decode(summary: PosteriorSummary) -> DecodedPath:
    """Pointwise argmax of the smoothed marginals; may be inadmissible."""
    return _PMAP(summary)


def _support_masks(summary):
    trans = np.where(summary.log_transition > -np.inf, 0.0, -np.inf)
    init = np.where(summary.log_initial > -np.inf, 0.0, -np.inf)
    return init, trans


_CONSTRAINED_PMAP = _Decoder(
    "constrained-pmap",
    lambda summary, at: (
        summary.smoothed[..., at, :] + np.where(summary.emission_likelihood[..., at, :] > 0, 0.0, -np.inf)
    ),
    _support_masks,
    "r1_posterior",  # 1 - the mean smoothed marginal along the path
)
_PVD = _Decoder("pvd", lambda summary, at: _log(summary.smoothed[..., at, :]), _support_masks, "rbar1_posterior")


def constrained_pmap_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximize the summed smoothed marginals over admissible paths only.

    Feasibility masks cover initial/transition support and positive emission
    likelihood per position, which together are exactly admissibility.
    """
    return _CONSTRAINED_PMAP(summary)


def pvd_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximize the product of smoothed marginals over admissible paths."""
    return _PVD(summary)


def _kblock(k: int) -> _Decoder:
    if not 1 <= check_integer(k, "k") <= sys.float_info.max:  # k - 1 weighs the joint term, so it must be a float
        raise KOutOfRangeError(f"k must be at least 1 and at most {sys.float_info.max!r}, got {k}")
    return _combined(RiskWeights(1.0, float(int(k) - 1), 0.0, 0.0, beta1=0.0), f"kblock k={int(k)}")


def kblock_pvd_decode(summary: PosteriorSummary, k: int) -> DecodedPath:
    """k-block posterior-Viterbi decoding: weights (1, k-1, 0, 0) with a
    logarithmic pointwise term.  k=1 is unconstrained PMAP; growing k bridges
    towards Viterbi, and any k >= 2 yields an admissible path."""
    return _kblock(k)(summary)


def _alpha(alpha: float) -> _Decoder:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _combined(RiskWeights(alpha, 1.0 - alpha, 0.0, 0.0, beta1=0.0), f"alpha={alpha:g}")


def alpha_interpolation_decode(summary: PosteriorSummary, alpha: float) -> DecodedPath:
    """Interpolated objective alpha*pointwise + (1-alpha)*path risk.

    alpha=0 is the Viterbi objective, alpha=1 the PMAP objective, and
    alpha=1/k matches kblock_pvd_decode(k) up to a factor k.
    """
    return _alpha(alpha)(summary)


def _window_blocks(summary: PosteriorSummary, k: int):
    """Linear-domain block posteriors of every k-tuple (column, in base-K digit
    order) at the window starts (rows), in blocks of about ``_CHUNK`` elements,
    the last block first: one ``log_window_posterior`` call per block, over an
    open mesh of the starts and the k state axes, or, for one state, whose
    mesh passes numpy's axis limit at large k, k (1, 1) zero arrays."""
    num_states, step = summary.num_states, max(1, _CHUNK // summary.num_states**k)
    if num_states == 1:
        starts, states = np.arange(summary.horizon - k + 1)[:, None], np.zeros((k, 1, 1), dtype=int)
    else:
        starts, *states = np.ix_(np.arange(summary.horizon - k + 1), *[np.arange(num_states)] * k)
    for hi in range(len(starts), 0, -step):
        logw = log_window_posterior(summary, starts[max(0, hi - step) : hi], states)
        yield np.exp(logw, out=logw).reshape(len(logw), -1)


def _rabiner(k: int) -> _Decoder:
    def solve(summaries, stack: SummaryStack):
        width = _check_k(k, stack.horizon)
        if stack.num_states**width > BLOCK_STATE_CAP:  # a window block and the walk buffer hold K^k floats per start
            raise KOutOfRangeError(f"K^k exceeds the tabulation cap for k={width}")
        if width == 1:
            best, idx = near_max(stack.smoothed, 2)
            return idx, best.sum(axis=1)
        idx = np.array([rabiner_walk(_window_blocks(s, width), stack.num_states, width) for s in summaries])
        return idx, [rabiner_gain_batch(s, path + 1, width) for s, path in zip(summaries, idx)]

    return _Decoder(f"rabiner k={check_integer(k, 'k')}", solve=solve, windows=int(k) >= 2)


def rabiner_block_decode(summary: PosteriorSummary, k: int) -> DecodedPath:
    """Maximize the expected number of correctly decoded overlapping k-blocks.

    Dynamic program over (k-1)-tuples of consecutive states; edge gains are
    the block posteriors, summed in the linear domain.  Admissibility is not
    guaranteed.  The objective reported is the achieved gain (maximized).
    """
    return _rabiner(k)(summary)


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
        chunk = _digits(np.arange(lo, min(lo + _CHUNK, n_paths)), num_states, horizon) + 1
        best = min(best, float((sign * values_fn(chunk)).min()))
    for lo in range(0, n_paths, _CHUNK):
        chunk = _digits(np.arange(lo, min(lo + _CHUNK, n_paths)), num_states, horizon) + 1
        vals = sign * values_fn(chunk)
        hits = np.flatnonzero(vals <= best + TIE_TOL)
        if len(hits):
            idx = chunk[hits[0]] - 1
            return _finish(stack_of([summary]), f"brute-force {tag}", [idx], [sign * vals[hits[0]]])[0]
    raise AssertionError("unreachable: optimum not found on second pass")


_FIXED_DECODERS = {
    "viterbi": viterbi_decode,
    "pmap": pmap_decode,
    "pvd": pvd_decode,
    "constrained-pmap": constrained_pmap_decode,
}


def _parse_tag(tag: str) -> _Decoder:
    """Parse a decoder tag into its _Decoder."""
    head, _, arg = tag.partition(":")
    decoder = {"viterbi": _VITERBI, "pmap": _PMAP, "pvd": _PVD, "constrained-pmap": _CONSTRAINED_PMAP}.get(tag)
    if head == "kblock" and arg:
        decoder = _kblock(read_integer(arg, "k"))
    elif head == "rabiner" and arg:
        decoder = _rabiner(read_integer(arg, "k"))
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
    or "weights:c1/c2/c3/c4[/beta1/beta3]" to a callable over one summary,
    the tag's _Decoder (the public decoder function for the four fixed tags).

    Weight components may be separated by "/" or ","; the slash form survives
    comma-separated tag lists.
    """
    # the registry is looked up first only because perfbench/tests pins it (ROADMAP item 1)
    if tag in _FIXED_DECODERS:
        return _FIXED_DECODERS[tag]
    return _parse_tag(tag)


def _summaries(model: HmmModel, observations, decoders=()) -> list[PosteriorSummary]:
    """The summaries a decode request smooths, with window tables only if one of ``decoders`` reads them."""
    return _forward_backward(model, observations, any(d.windows for d in decoders))


def decode_many(summaries, tags):
    """Decode every summary with every tag understood by resolve_decoder.

    Yields one list of DecodedPath per tag, in summary order; the result for
    every summary is the one its single-summary decoder returns.  The
    summaries must share one horizon.  Every tag is parsed before anything is
    decoded, and the group's stack is built once, for every tag.  Each tag's
    _Decoder then solves the group in turn, and its (N, T) block of paths is
    scored in one evaluate_risks call when its list is asked for.  All
    lattice tags are solved in one max-sum call, at the first lattice tag's
    turn, over one gains row per lattice tag over the summaries' stack, each
    filled window by window as the kernel reads it; pmap is one near_max over
    the stack, and rabiner:k walks the summaries one by one.
    """
    summaries, decoders = list(summaries), [_parse_tag(tag) for tag in tags]
    yield from _decode_group(summaries, decoders) if summaries else ([] for _ in decoders)


def _decode_group(summaries, decoders):
    """decode_many's loop over parsed decoders; a _Decoder called on one summary runs it on the group of one."""
    stack = stack_of(summaries)  # which applies the one-horizon rule
    lattice = _lattice([d for d in decoders if d.gains], stack)  # runs at its first next
    for decoder in decoders:
        yield _finish(stack, decoder.tag, *(next(lattice) if decoder.gains else decoder.solve(summaries, stack)))
