"""State-space annotation: label partitions, class-averaged posteriors, and
label-aware decoding over admissible state paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoders import DecodedPath, _finish
from .inference import PosteriorSummary
from .lattice import best_path
from .risk import RiskWeights


def _log(a) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


@dataclass
class LabelMap:
    """A partition of the state space into named labels.

    ``assignment`` maps every 1-based state to a label name; names are
    indexed 1..num_labels in sorted order.  ``averaging_beta`` selects how
    class posteriors are averaged by averaged_label_posterior: the arithmetic
    class mean raised to beta when beta != 0, the geometric class mean when
    beta == 0.
    """

    assignment: dict[int, str]
    averaging_beta: float = 1.0
    names: tuple[str, ...] = field(init=False)
    label_of_state: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.averaging_beta < 0:
            raise ValueError("averaging_beta must be nonnegative")
        num_states = len(self.assignment)
        if sorted(self.assignment) != list(range(1, num_states + 1)):
            raise ValueError("assignment must cover states 1..K exactly")
        self.names = tuple(sorted(set(self.assignment.values())))
        index = {name: i for i, name in enumerate(self.names)}
        self.label_of_state = np.array([index[self.assignment[s]] for s in range(1, num_states + 1)])

    @property
    def num_labels(self) -> int:
        return len(self.names)

    @property
    def num_states(self) -> int:
        return len(self.label_of_state)

    def classes(self) -> list[np.ndarray]:
        """0-based state indices of each label class, in label order."""
        return [np.flatnonzero(self.label_of_state == i) for i in range(self.num_labels)]

    def labels_for(self, path) -> tuple[str, ...]:
        """Label names induced by a 1-based state path."""
        return tuple(self.names[self.label_of_state[s - 1]] for s in path)


def identity_label_map(num_states: int, averaging_beta: float = 1.0) -> LabelMap:
    return LabelMap({s: f"s{s}" for s in range(1, num_states + 1)}, averaging_beta)


def _averaged_table(marginals: np.ndarray, labels: LabelMap, beta: float) -> np.ndarray:
    """Class-averaged marginal table, constant across states sharing a label."""
    out = np.empty_like(marginals)
    for states in labels.classes():
        block = marginals[:, states]
        if beta == 0.0:
            avg = np.exp(_log(block).mean(axis=1))
        else:
            avg = block.mean(axis=1) ** beta
        out[:, states] = avg[:, None]
    return out


def averaged_label_posterior(summary: PosteriorSummary, labels: LabelMap, t: int, s: int) -> float:
    """Class-averaged smoothed posterior weight of state s at position t (both 1-based).

    Uses ``labels.averaging_beta``; the proportionality constant is fixed to
    1 since only the argmax matters downstream.
    """
    if not 1 <= t <= summary.horizon:
        raise IndexError(f"position {t} outside 1..{summary.horizon}")
    if not 1 <= s <= summary.num_states:
        raise IndexError(f"state {s} outside 1..{summary.num_states}")
    table = _averaged_table(summary.smoothed, labels, labels.averaging_beta)
    return float(table[t - 1, s - 1])


def label_decode(
    summary: PosteriorSummary, labels: LabelMap, weights: RiskWeights
) -> tuple[DecodedPath, tuple[str, ...]]:
    """Combined-risk decoding with pointwise terms averaged within label classes.

    The pointwise posterior term uses the class average at exponent
    ``weights.beta1``; when c3 > 0 the prior pointwise term is averaged the
    same way at ``weights.beta3``.  Returns the optimal state path together
    with its induced label sequence.  With c2 > 0 the state path is
    admissible.
    """
    horizon, num_states = summary.horizon, summary.num_states
    gains = np.zeros((horizon, num_states))
    if weights.c1 > 0:
        avg = _averaged_table(summary.smoothed, labels, weights.beta1)
        if weights.beta1 == 0.0:
            gains = gains + weights.c1 * _log(avg)
        else:
            gains = gains + weights.c1 * (avg - 1.0) / weights.beta1
    if weights.c2 > 0:
        gains = gains + weights.c2 * summary.log_emission
    if weights.c3 > 0:
        avg = _averaged_table(summary.prior, labels, weights.beta3)
        if weights.beta3 == 0.0:
            gains = gains + weights.c3 * _log(avg)
        else:
            gains = gains + weights.c3 * (avg - 1.0) / weights.beta3
    path_weight = weights.c2 + weights.c4
    if path_weight > 0:
        trans = path_weight * summary.log_transition
        init_extra = path_weight * summary.log_initial
    else:
        trans = np.zeros((num_states, num_states))
        init_extra = np.zeros(num_states)
    idx, score = best_path(gains, init_extra, trans)
    decoded = _finish(summary, idx, -score / horizon, f"label {weights.tag()}")
    return decoded, labels.labels_for(decoded.path)
