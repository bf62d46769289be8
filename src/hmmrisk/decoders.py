"""Path decoders: the combined-risk dynamic program, its special cases, the
overlapping-block decoder, and an exhaustive oracle.

Every decoder returns a DecodedPath whose risks are re-evaluated by the risk
module, and all share one tie policy: the lexicographically smallest optimal
path.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError, KOutOfRangeError
from .inference import PosteriorSummary
from .lattice import TIE_TOL, Lattice, best_path, forward_lattice
from .risk import (
    RiskReport,
    RiskWeights,
    combined_risk,
    evaluate_risks,
    joint_log_likelihood,
    neg_power_log,
    rabiner_gain_batch,
)

BRUTE_FORCE_CAP = 10**7
BLOCK_STATE_CAP = 10**6
_CHUNK = 1 << 16


@dataclass
class DecodedPath:
    """A decoded state path with its objective value and full risk report."""

    path: tuple[int, ...]
    objective: float
    risks: RiskReport
    admissible: bool
    decoder_tag: str


def _finish(summary, idx, objective, tag) -> DecodedPath:
    path = tuple((np.asarray(idx) + 1).tolist())
    risks = evaluate_risks(summary, path)
    return DecodedPath(
        path=path,
        objective=float(objective),
        risks=risks,
        admissible=bool(np.isfinite(risks.rbarinf_posterior)),
        decoder_tag=tag,
    )


@dataclass(frozen=True)
class _LatticeDecoder:
    """A decoder solved by the max-sum kernel.

    ``tables(summary, gains)`` fills the (T, K) ``gains`` in place and
    returns the initial and transition scores; ``objective(summary, idx,
    score)`` reads the reported objective off the optimal 0-based path.
    """

    tag: str
    tables: Callable
    objective: Callable


def _decode_group(summaries, decoder: _LatticeDecoder) -> list[DecodedPath]:
    """Decode equal-length summaries with one batched max-sum call."""
    if not summaries:
        return []
    first = summaries[0]
    gains = np.empty((len(summaries), first.horizon, first.num_states))
    init_extra, trans = zip(*(decoder.tables(s, g) for s, g in zip(summaries, gains)))
    idx, scores = best_path(gains, np.stack(init_extra), np.stack(trans))
    del gains  # freed before the risk evaluations allocate theirs
    return [_finish(s, i, decoder.objective(s, i, sc), decoder.tag) for s, i, sc in zip(summaries, idx, scores)]


def _combined_tables(summary: PosteriorSummary, weights: RiskWeights, gains: np.ndarray):
    gains[...] = 0.0
    if weights.c1 > 0:
        gains += weights.c1 * neg_power_log(summary.smoothed, weights.beta1)
    if weights.c2 > 0:
        gains += weights.c2 * summary.log_emission
    if weights.c3 > 0:
        gains += weights.c3 * neg_power_log(summary.prior, weights.beta3)
    path_weight = weights.c2 + weights.c4
    if path_weight > 0:
        return path_weight * summary.log_initial, path_weight * summary.log_transition
    num_states = summary.num_states
    return np.zeros(num_states), np.zeros((num_states, num_states))


def combined_score_tables(summary: PosteriorSummary, weights: RiskWeights):
    """Per-position gains, initial scores, and transition scores of the
    combined objective, such that the total path score is -T times the
    combined risk."""
    gains = np.empty((summary.horizon, summary.num_states))
    init_extra, trans = _combined_tables(summary, weights, gains)
    return gains, init_extra, trans


def _combined(weights: RiskWeights, tag: str) -> _LatticeDecoder:
    return _LatticeDecoder(
        tag,
        lambda summary, gains: _combined_tables(summary, weights, gains),
        lambda summary, idx, score: -score / summary.horizon,
    )


def hybrid_decode(summary: PosteriorSummary, weights: RiskWeights, tag: str | None = None) -> DecodedPath:
    """Minimize the combined risk
    c1*pointwise-posterior + c2*joint + c3*pointwise-prior + c4*prior-path
    by one forward-backward score recursion.

    The objective reported is the minimized combined risk (joint form), i.e.
    -(best score)/T.
    """
    return _decode_group([summary], _combined(weights, tag or weights.tag()))[0]


def hybrid_lattice(summary: PosteriorSummary, weights: RiskWeights) -> Lattice:
    """Forward score lattice of the combined objective, for inspection."""
    return forward_lattice(*combined_score_tables(summary, weights))


_VITERBI = _combined(RiskWeights(0.0, 1.0, 0.0, 0.0), "viterbi")


def viterbi_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximum a posteriori path as a DecodedPath (weights 0,1,0,0)."""
    return _decode_group([summary], _VITERBI)[0]


def _pointwise_objective(summary, idx) -> float:
    return 1.0 - summary.smoothed[np.arange(summary.horizon), idx].mean()


def pmap_decode(summary: PosteriorSummary) -> DecodedPath:
    """Pointwise argmax of the smoothed marginals; may be inadmissible."""
    idx = np.argmax(summary.smoothed, axis=1)
    return _finish(summary, idx, _pointwise_objective(summary, idx), "pmap")


def _support_masks(summary: PosteriorSummary):
    trans = np.where(summary.model.transition > 0, 0.0, -np.inf)
    init = np.where(summary.model.initial > 0, 0.0, -np.inf)
    return init, trans


def _constrained_pmap_tables(summary: PosteriorSummary, gains: np.ndarray):
    np.add(summary.smoothed, np.where(summary.emission_likelihood > 0, 0.0, -np.inf), out=gains)
    return _support_masks(summary)


def _pvd_tables(summary: PosteriorSummary, gains: np.ndarray):
    gains[...] = summary.log_smoothed
    return _support_masks(summary)


_CONSTRAINED_PMAP = _LatticeDecoder(
    "constrained-pmap", _constrained_pmap_tables, lambda summary, idx, score: _pointwise_objective(summary, idx)
)
_PVD = _LatticeDecoder(
    "pvd",
    _pvd_tables,
    lambda summary, idx, score: -summary.log_smoothed[np.arange(summary.horizon), idx].mean(),
)


def constrained_pmap_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximize the summed smoothed marginals over admissible paths only.

    Feasibility masks cover initial/transition support and positive emission
    likelihood per position, which together are exactly admissibility.
    """
    return _decode_group([summary], _CONSTRAINED_PMAP)[0]


def pvd_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximize the product of smoothed marginals over admissible paths."""
    return _decode_group([summary], _PVD)[0]


def _kblock(k: int) -> _LatticeDecoder:
    if k < 1:
        raise KOutOfRangeError(f"k must be at least 1, got {k}")
    return _combined(RiskWeights(1.0, float(k - 1), 0.0, 0.0, beta1=0.0), f"kblock k={k}")


def kblock_pvd_decode(summary: PosteriorSummary, k: int) -> DecodedPath:
    """k-block posterior-Viterbi decoding: weights (1, k-1, 0, 0) with a
    logarithmic pointwise term.  k=1 is unconstrained PMAP; growing k bridges
    towards Viterbi, and any k >= 2 yields an admissible path."""
    return _decode_group([summary], _kblock(k))[0]


def _alpha(alpha: float) -> _LatticeDecoder:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _combined(RiskWeights(alpha, 1.0 - alpha, 0.0, 0.0, beta1=0.0), f"alpha={alpha:g}")


def alpha_interpolation_decode(summary: PosteriorSummary, alpha: float) -> DecodedPath:
    """Interpolated objective alpha*pointwise + (1-alpha)*path risk.

    alpha=0 is the Viterbi objective, alpha=1 the PMAP objective, and
    alpha=1/k matches kblock_pvd_decode(k) up to a factor k.
    """
    return _decode_group([summary], _alpha(alpha))[0]


def _digits_range(base: int, width: int, start: int, stop: int) -> np.ndarray:
    """Base-``base`` digit matrix (most significant first) of range(start, stop)."""
    digits = np.empty((stop - start, width), dtype=int)
    idx = np.arange(start, stop)
    for pos in range(width - 1, -1, -1):
        digits[:, pos] = idx % base
        idx = idx // base
    return digits


def rabiner_block_decode(summary: PosteriorSummary, k: int) -> DecodedPath:
    """Maximize the expected number of correctly decoded overlapping k-blocks.

    Dynamic program over (k-1)-tuples of consecutive states; edge gains are
    the block posteriors, summed in the linear domain.  Admissibility is not
    guaranteed.  The objective reported is the achieved gain (maximized).
    """
    horizon, num_states = summary.horizon, summary.num_states
    if not 1 <= k <= horizon:
        raise KOutOfRangeError(f"k must lie in 1..{horizon}, got {k}")
    if num_states ** (k - 1) > BLOCK_STATE_CAP:
        raise KOutOfRangeError(f"K^(k-1) exceeds the tabulation cap for k={k}")
    if k == 1:
        out = pmap_decode(summary)
        gain = float(summary.smoothed.max(axis=1).sum())
        return DecodedPath(out.path, gain, out.risks, out.admissible, "rabiner k=1")

    s = summary
    n_tuples = num_states ** (k - 1)
    digits = _digits_range(num_states, k, 0, n_tuples * num_states)
    n_positions = horizon - k + 2  # tuple positions; windows start at 1..T-k+1

    # Linear-domain block posteriors for every k-tuple at every window start.
    window_gain = np.empty((horizon - k + 1, n_tuples * num_states))
    for t in range(horizon - k + 1):
        logw = s.log_forward[t, digits[:, 0]].copy()
        for u in range(k - 1):
            logw += (
                s.log_transition[digits[:, u], digits[:, u + 1]]
                + s.log_emission[t + u + 1, digits[:, u + 1]]
                - s.log_scaling[t + u + 1]
            )
        logw += s.log_backward[t + k - 1, digits[:, k - 1]]
        window_gain[t] = np.exp(logw)

    successor = (np.arange(n_tuples) % (num_states ** (k - 2)))[:, None] * num_states + np.arange(
        num_states
    )[None, :]
    phi = np.zeros((n_positions, n_tuples))
    for tau in range(n_positions - 2, -1, -1):
        vals = window_gain[tau].reshape(n_tuples, num_states) + phi[tau + 1][successor]
        phi[tau] = vals.max(axis=1)

    start = int(np.flatnonzero(phi[0] >= phi[0].max() - TIE_TOL)[0])
    idx = [int(d) for d in np.unravel_index(start, (num_states,) * (k - 1))]
    node = start
    for tau in range(n_positions - 1):
        vals = window_gain[tau].reshape(n_tuples, num_states)[node] + phi[tau + 1][successor[node]]
        nxt = int(np.flatnonzero(vals >= vals.max() - TIE_TOL)[0])
        idx.append(nxt)
        node = successor[node, nxt]
    idx = np.asarray(idx)
    gain = rabiner_gain_batch(summary, idx[None, :] + 1, k)[0]
    return _finish(summary, idx, gain, f"rabiner k={k}")


def _objective_values(summary, objective, k):
    """Return (value function over 1-based path batches, minimize flag, tag)."""
    if isinstance(objective, RiskWeights):
        return (lambda paths: combined_risk(summary, paths, objective)), True, objective.tag()
    if objective == "viterbi":
        w = RiskWeights(0.0, 1.0, 0.0, 0.0)
        return (lambda paths: combined_risk(summary, paths, w)), True, "viterbi"
    rng_t = np.arange(summary.horizon)
    if objective == "pmap":
        return (lambda paths: 1.0 - summary.smoothed[rng_t, np.asarray(paths) - 1].mean(axis=1)), True, "pmap"
    if objective == "constrained-pmap":

        def values(paths):
            r1 = 1.0 - summary.smoothed[rng_t, np.asarray(paths) - 1].mean(axis=1)
            return np.where(np.isfinite(joint_log_likelihood(summary, paths)), r1, np.inf)

        return values, True, "constrained-pmap"
    if objective == "pvd":

        def values(paths):
            rbar1 = -summary.log_smoothed[rng_t, np.asarray(paths) - 1].mean(axis=1)
            return np.where(np.isfinite(joint_log_likelihood(summary, paths)), rbar1, np.inf)

        return values, True, "pvd"
    if objective == "rabiner":
        if k is None:
            raise ValueError("the rabiner objective needs k")
        return (lambda paths: rabiner_gain_batch(summary, paths, k)), False, f"rabiner k={k}"
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
            return _finish(summary, idx, sign * vals[hits[0]], f"brute-force {tag}")
    raise AssertionError("unreachable: optimum not found on second pass")


_FIXED_DECODERS = {
    "viterbi": viterbi_decode,
    "pmap": pmap_decode,
    "pvd": pvd_decode,
    "constrained-pmap": constrained_pmap_decode,
}


def _lattice_decoder(tag: str) -> _LatticeDecoder | None:
    """The max-sum form of a lattice decoder tag; None for pmap and rabiner."""
    if tag == "viterbi":
        return _VITERBI
    if tag == "pvd":
        return _PVD
    if tag == "constrained-pmap":
        return _CONSTRAINED_PMAP
    head, _, arg = tag.partition(":")
    if head == "kblock" and arg:
        return _kblock(int(arg))
    if head == "alpha" and arg:
        return _alpha(float(arg))
    if head == "weights" and arg:
        parts = [float(x) for x in arg.replace("/", ",").split(",")]
        if len(parts) not in (4, 6):
            raise ValueError(f"weights tag needs 4 or 6 numbers, got {len(parts)}")
        weights = RiskWeights(*parts)
        return _combined(weights, weights.tag())
    return None


def resolve_decoder(tag: str):
    """Map a decoder tag like "viterbi", "kblock:3", "alpha:0.5", "rabiner:2",
    or "weights:c1/c2/c3/c4[/beta1/beta3]" to a callable over summaries.

    Weight components may be separated by "/" or ","; the slash form survives
    comma-separated tag lists.
    """
    if tag in _FIXED_DECODERS:
        return _FIXED_DECODERS[tag]
    head, _, arg = tag.partition(":")
    if head == "rabiner" and arg:
        k = int(arg)
        return lambda summary: rabiner_block_decode(summary, k)
    decoder = _lattice_decoder(tag)
    if decoder is None:
        raise ValueError(f"unknown decoder tag: {tag!r}")
    return lambda summary: _decode_group([summary], decoder)[0]


def decode_many(summaries, tags):
    """Decode every summary with every tag understood by resolve_decoder.

    Yields one list of DecodedPath per tag, in summary order, decoding each
    tag only when its list is asked for.  The summaries must share one
    horizon; each lattice decoder solves all of them in one batched max-sum
    call, and the result for every summary is the one its single-summary
    decoder returns.
    """
    summaries = list(summaries)
    for tag in tags:
        decoder = _lattice_decoder(tag)
        if decoder is None:
            fn = resolve_decoder(tag)
            yield [fn(summary) for summary in summaries]
        else:
            yield _decode_group(summaries, decoder)
