"""State-space annotation: label partitions, class-averaged posteriors, and
label-aware decoding over admissible state paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoders import DecodedPath, _combined
from .inference import PosteriorSummary, _log
from .risk import RiskWeights


@dataclass
class LabelMap:
    """A partition of the state space into named labels.

    ``assignment`` maps every 1-based state to a label name; names are
    indexed 1..num_labels in sorted order.
    """

    assignment: dict[int, str]
    names: tuple[str, ...] = field(init=False)
    label_of_state: np.ndarray = field(init=False)

    def __post_init__(self):
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


def identity_label_map(num_states: int) -> LabelMap:
    return LabelMap({s: f"s{s}" for s in range(1, num_states + 1)})


def _class_means(marginals: np.ndarray, labels: LabelMap, beta: float) -> np.ndarray:
    """Marginal table averaged within label classes (the last axis), constant
    across states sharing a label: the arithmetic class mean, or the
    geometric one when beta == 0."""
    out = np.empty_like(marginals)
    for states in labels.classes():
        block = marginals[..., states]
        if beta == 0.0:
            avg = np.exp(_log(block).mean(axis=-1))
        else:
            avg = block.mean(axis=-1)
        out[..., states] = avg[..., None]
    return out


def averaged_label_posterior(summary: PosteriorSummary, labels: LabelMap, t: int, s: int, beta: float = 1.0) -> float:
    """Class-averaged smoothed posterior weight of state s at position t (both 1-based).

    The class average is the arithmetic class mean raised to ``beta`` when
    beta != 0, and the geometric class mean when beta == 0; beta must be
    nonnegative.  The proportionality constant is fixed to 1 since only the
    argmax matters downstream.
    """
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if not 1 <= t <= summary.horizon:
        raise IndexError(f"position {t} outside 1..{summary.horizon}")
    if not 1 <= s <= summary.num_states:
        raise IndexError(f"state {s} outside 1..{summary.num_states}")
    table = _class_means(summary.smoothed, labels, beta)
    return float((table if beta == 0.0 else table**beta)[t - 1, s - 1])


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
    decoded = _combined(
        weights, f"label {weights.tag()}", lambda marginals, beta: _class_means(marginals, labels, beta)
    )(summary)
    return decoded, labels.labels_for(decoded.path)
