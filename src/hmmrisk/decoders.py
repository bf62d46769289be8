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
from .inference import BLOCK_STATE_CAP, PosteriorSummary, forward_backward, log_window_posterior
from .lattice import TIE_TOL, best_path, follow
from .model import HmmModel
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
_CHUNK = 1 << 16  # paths enumerated, or Rabiner window probabilities tabulated, at once


@dataclass
class DecodedPath:
    """A decoded state path with its objective value and full risk report."""

    path: tuple[int, ...]
    objective: float
    risks: RiskReport
    admissible: bool
    decoder_tag: str


def _finish(summary, idx, objective, tag) -> DecodedPath:
    """Wrap a decoder's 0-based index array; evaluate_risks checks and scores it once."""
    path = np.asarray(idx) + 1
    risks = evaluate_risks(summary, path)
    return DecodedPath(
        path=tuple(path.tolist()),
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


def _decode_lattice(summaries, decoders) -> list[list[DecodedPath]]:
    """Decode equal-length summaries with every lattice decoder in one max-sum
    call; returns one list of DecodedPath per decoder, in summary order."""
    if not summaries:
        return [[] for _ in decoders]
    first, num = summaries[0], len(summaries)
    # gains[l, n] is decoder l on summary n; the kernel sees the decoder-major (L * N, T, K) stack
    gains = np.empty((len(decoders), num, first.horizon, first.num_states))
    init_extra, trans = zip(*(d.tables(s, g) for d, block in zip(decoders, gains) for s, g in zip(summaries, block)))
    idx, scores = best_path(gains.reshape(-1, *gains.shape[2:]), np.stack(init_extra), np.stack(trans))
    del gains  # freed before the risk evaluations allocate theirs
    return [
        [_finish(s, i, d.objective(s, i, sc), d.tag) for s, i, sc in zip(summaries, paths, best)]
        for d, paths, best in zip(decoders, idx.reshape(len(decoders), num, -1), scores.reshape(len(decoders), num))
    ]


def _decode_group(summaries, decoder: _LatticeDecoder) -> list[DecodedPath]:
    """Decode equal-length summaries with one lattice decoder."""
    return _decode_lattice(summaries, [decoder])[0]


def _same_table(marginals: np.ndarray, beta: float) -> np.ndarray:
    return marginals


def _combined_tables(summary: PosteriorSummary, weights: RiskWeights, gains: np.ndarray, pointwise=_same_table):
    """Fill ``gains`` and return the initial and transition scores of the
    combined objective.  ``pointwise(marginals, beta)`` maps the smoothed and
    the prior marginals to the tables the two pointwise terms score."""
    gains[...] = 0.0
    if weights.c1 > 0:
        gains += weights.c1 * neg_power_log(pointwise(summary.smoothed, weights.beta1), weights.beta1)
    if weights.c2 > 0:
        gains += weights.c2 * summary.log_emission
    if weights.c3 > 0:
        gains += weights.c3 * neg_power_log(pointwise(summary.prior, weights.beta3), weights.beta3)
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


def _combined(weights: RiskWeights, tag: str, pointwise=_same_table) -> _LatticeDecoder:
    return _LatticeDecoder(
        tag,
        lambda summary, gains: _combined_tables(summary, weights, gains, pointwise),
        lambda summary, idx, score: -score / summary.horizon,
    )


def hybrid_decode(summary: PosteriorSummary, weights: RiskWeights) -> DecodedPath:
    """Minimize the combined risk
    c1*pointwise-posterior + c2*joint + c3*pointwise-prior + c4*prior-path
    by one forward-backward score recursion.

    The objective reported is the minimized combined risk (joint form), i.e.
    -(best score)/T.
    """
    return _decode_group([summary], _combined(weights, weights.tag()))[0]


_VITERBI = _combined(RiskWeights(0.0, 1.0, 0.0, 0.0), "viterbi")


def viterbi_decode(summary: PosteriorSummary) -> DecodedPath:
    """Maximum a posteriori path as a DecodedPath (weights 0,1,0,0)."""
    return _decode_group([summary], _VITERBI)[0]


def viterbi(model: HmmModel, obs) -> tuple[int, ...]:
    """Maximum a posteriori state path, lexicographically smallest on ties.

    Raises ZeroEvidenceError when the observations are impossible under the model.
    """
    return viterbi_decode(forward_backward(model, obs)).path


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


def _window_table(summary: PosteriorSummary, k: int) -> np.ndarray:
    """Linear-domain block posteriors of every k-tuple (column, in base-K digit
    order) at every window start (row), tabulated a bounded block of starts at a time."""
    digits = _digits_range(summary.num_states, k, 0, summary.num_states**k)
    table = np.empty((summary.horizon - k + 1, len(digits)))
    step = max(1, _CHUNK // len(digits))
    for lo in range(0, len(table), step):
        starts = np.arange(lo, min(lo + step, len(table)))[:, None]
        np.exp(log_window_posterior(summary, starts, digits), out=table[lo : lo + step])
    return table


def _rabiner_walk(window_gain: np.ndarray, num_states: int, k: int) -> np.ndarray:
    """0-based path maximizing the summed window gains, lexicographically
    smallest within TIE_TOL; ``window_gain[a, c]`` scores the k-tuple with
    base-K digits c at window start a.

    The backward sweep over (k-1)-tuples keeps one row of cost-to-go and
    records, per window start and tuple, the smallest successor tuple within
    TIE_TOL of that row's best; ``follow`` reads the path off those records.
    """
    n_tuples, lead = num_states ** (k - 1), num_states ** (k - 2)
    # gains[a, d, rest, j]: window a holds tuple (d, rest), then state j; the next tuple is (rest, j)
    gains = window_gain.reshape(len(window_gain), num_states, lead, num_states)
    nodes = np.empty((len(window_gain), num_states, lead), dtype=np.min_scalar_type(n_tuples - 1))
    phi = np.zeros((num_states, lead))
    for gain, node in zip(gains[::-1], nodes[::-1]):
        vals = gain + phi.reshape(lead, num_states)  # phi indexed by the next tuple (rest, j)
        phi = vals.max(axis=2)
        node[...] = np.argmax(vals >= phi[..., None] - TIE_TOL, axis=2)  # the smallest near-optimal j
    nodes = nodes.reshape(len(window_gain), 1, n_tuples)
    nodes += (np.arange(n_tuples) % lead * num_states).astype(nodes.dtype)  # j -> tuple index rest * K + j
    start = int(np.argmax(phi >= phi.max() - TIE_TOL))
    tuples = follow(np.array([start]), nodes)[0]
    return np.concatenate((np.unravel_index(start, (num_states,) * (k - 1)), tuples[1:] % num_states))


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
    idx = _rabiner_walk(_window_table(summary, k), num_states, k)
    gain = rabiner_gain_batch(summary, idx[None, :] + 1, k)[0]
    return _finish(summary, idx, gain, f"rabiner k={k}")


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
            return -summary.log_smoothed[rng_t, paths - 1].mean(axis=1)
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
            return _finish(summary, idx, sign * vals[hits[0]], f"brute-force {tag}")
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
    rabiner:k give a function of one summary."""
    head, _, arg = tag.partition(":")
    if tag == "pmap":
        return pmap_decode
    if head == "rabiner" and arg:
        k = int(arg)
        return lambda summary: rabiner_block_decode(summary, k)
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
    or "weights:c1/c2/c3/c4[/beta1/beta3]" to a callable over summaries.

    Weight components may be separated by "/" or ","; the slash form survives
    comma-separated tag lists.
    """
    # the registry is looked up first only because perfbench/tests pins it (ROADMAP item 1)
    if tag in _FIXED_DECODERS:
        return _FIXED_DECODERS[tag]
    decoder = _parse_tag(tag)
    if isinstance(decoder, _LatticeDecoder):
        return lambda summary: _decode_group([summary], decoder)[0]
    return decoder


def decode_many(summaries, tags):
    """Decode every summary with every tag understood by resolve_decoder.

    Yields one list of DecodedPath per tag, in summary order; the result for
    every summary is the one its single-summary decoder returns.  The
    summaries must share one horizon.  Every tag is parsed before anything is
    decoded.  When the first lattice tag's turn comes, all lattice tags are
    solved in one max-sum call over a (lattice tags x summaries, T, K) gains
    buffer, so that buffer grows with the number of lattice tags; tags listed
    before it run first.  pmap and rabiner:k decode summary by summary, each
    when its list is asked for.
    """
    summaries = list(summaries)
    decoders = [_parse_tag(tag) for tag in tags]
    solved = None
    for decoder in decoders:
        if not isinstance(decoder, _LatticeDecoder):
            yield [decoder(s) for s in summaries]
            continue
        if solved is None:
            solved = iter(_decode_lattice(summaries, [d for d in decoders if isinstance(d, _LatticeDecoder)]))
        yield next(solved)
