"""Built-in four-state worked example used by the golden tests and the CLI.

A symmetric four-state chain observed for four steps.  The first and last
observations pin the hidden state to 2; the two middle observations favour
state 1 by a tunable factor A > 1.  The instance is small enough to
enumerate, yet rich enough that the pointwise, block, and path decoders all
disagree: it is the package's standing regression fixture.
"""

from __future__ import annotations

import numpy as np

from .model import DirectLikelihood, HmmModel

TRANSITION = np.array(
    [
        [0, 4, 2, 2],
        [4, 1, 1, 2],
        [2, 1, 1, 4],
        [2, 2, 4, 0],
    ]
) / 8.0

INITIAL = np.array([0.0, 1.0, 0.0, 0.0])


def four_state_model(a: float = 2.0) -> HmmModel:
    """The four-state model with a finite emission contrast ``a`` (must exceed 1)."""
    if not 1 < a < np.inf:  # written so that NaN fails it too
        raise ValueError(f"the emission contrast must exceed 1 and be finite, got {a}")
    table = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [a, 1.0, 1.0, 1.0],
            [a, 1.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    return HmmModel(initial=INITIAL, transition=TRANSITION, emission=DirectLikelihood(table))


def four_state_observations() -> np.ndarray:
    """Row positions into the direct-likelihood table (the four observations)."""
    return np.arange(4)
