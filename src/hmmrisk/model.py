"""Hidden Markov model definition, validation, prior marginals, and sampling.

States are labelled 1..K on every public surface (paths, label maps, CLI
output); internally all arrays are indexed 0..K-1.  Categorical symbols and
direct-likelihood row positions are 0-based.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields

import numpy as np

from .errors import DirectLikelihoodNotGenerativeError
from .lattice import follow

PROB_SUM_TOL = 1e-12
_SETTLE_CHECK = 64  # prior_marginals compares a row with its predecessor every this many steps


def _log(a: np.ndarray, out=None) -> np.ndarray:
    """Natural log with log 0 = -inf and no divide-by-zero warning, into ``out`` if given."""
    with np.errstate(divide="ignore"):
        return np.log(a, out=out)


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _integers(values, low, high, integer_error: str, range_error: str) -> np.ndarray:
    """``values`` as an array, not yet cast, after checking the integer rule: every
    entry is a number with no fractional part (2 or 2.0; NaN, inf and None fail,
    with no warning), and then every entry lies in low..high."""
    values, integral = np.asarray(values), False
    with np.errstate(invalid="ignore"), contextlib.suppress(TypeError):  # inf % 1 is NaN; None % 1 raises
        integral = values.dtype.kind not in "SU" and np.all(values % 1 == 0)
    if not integral:
        raise ValueError(integer_error)
    if np.any(values < low) or np.any(values > high):
        raise ValueError(range_error)
    return values


def _table_violations(table: np.ndarray, row: str, distributions: bool = True) -> list[str]:
    """Violations of a table whose rows are probability distributions (or, with
    ``distributions=False``, only nonnegative): the first row with a non-finite
    entry, the first with a negative entry, and every row whose sum is off 1.
    ``row`` names a row; it is formatted with the 1-based row index."""
    rows = np.atleast_2d(table)
    out = []
    for problem, bad in (("a non-finite", ~np.isfinite(rows)), ("a negative", rows < 0)):
        if np.any(bad):
            out.append(f"{row.format(np.nonzero(bad)[0][0] + 1)} has {problem} entry")
    if distributions:
        sums = rows.sum(axis=1)
        for i in np.nonzero(np.abs(sums - 1.0) > PROB_SUM_TOL)[0]:
            out.append(f"{row.format(i + 1)} sums to {sums[i]:.12g}")
    return out


@dataclass
class _TableEmission:
    """An emission given by one read-only table, whose log-likelihood is the log of its likelihood.  A subclass gives
    ``rows``, the table's state-last view with one row per observation index, and its messages' parts: ``kind`` and
    ``what`` name the observations, and ``outside``, formatted with the number of rows, is the range error."""

    table: np.ndarray

    def __post_init__(self):
        self.table = _readonly(self.table)

    @property
    def num_states(self) -> int:
        return self.rows.shape[1]

    def likelihood(self, obs) -> np.ndarray:
        """Likelihood table f[t, s] = rows[obs[t], s], shape (T, K), a new C-contiguous array; raises ValueError
        unless ``obs`` is a 1-d sequence of integer indices of the rows."""
        obs, size = np.asarray(obs), len(self.rows)
        if obs.ndim != 1:
            raise ValueError(f"{self.kind} observations must be a 1-d sequence of {self.what}")
        integer_error = f"{self.kind} observations must be integer {self.what}"
        return self.rows[_integers(obs, 0, size - 1, integer_error, self.outside.format(size)).astype(int)]

    def log_likelihood(self, obs) -> np.ndarray:
        return _log(self.likelihood(obs))


@dataclass
class Categorical(_TableEmission):
    """Finite-alphabet emissions: ``table[s, m]`` is the probability of symbol m in state s."""

    kind, what, outside = "categorical", "symbol indices", "symbol index outside alphabet of size {}"
    rows = property(lambda self: self.table.T)

    def violations(self) -> list[str]:
        return _table_violations(self.table, "emission row {}")

    def sample(self, state_indices, rng) -> np.ndarray:
        cdf = np.cumsum(self.table, axis=1)
        u = rng.random(len(state_indices))
        rows = cdf[state_indices]
        return np.minimum(
            (u[:, None] > rows).sum(axis=1), self.table.shape[1] - 1
        ).astype(int)


@dataclass
class DiagonalGaussian:
    """Gaussian emissions with per-state mean and variance vectors (diagonal covariance)."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.means = _readonly(np.atleast_2d(self.means))
        self.variances = _readonly(np.atleast_2d(self.variances))

    @property
    def num_states(self) -> int:
        return self.means.shape[0]

    def violations(self) -> list[str]:
        out = []
        if self.means.shape != self.variances.shape:
            out.append("emission means and variances must have matching shapes")
            return out
        for name, table in (("mean", self.means), ("variance", self.variances)):
            for i in np.nonzero(~np.isfinite(table).all(axis=1))[0]:
                out.append(f"emission state {i + 1} has a non-finite {name}")
        for i in np.nonzero(~(self.variances > 0).all(axis=1))[0]:
            out.append(f"emission state {i + 1} has a non-positive variance")
        return out

    def log_likelihood(self, obs) -> np.ndarray:
        obs = np.asarray(obs, dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
        if obs.shape[1] != self.means.shape[1]:
            raise ValueError(
                f"observation dimension {obs.shape[1]} does not match emission dimension "
                f"{self.means.shape[1]}"
            )
        with np.errstate(over="ignore"):  # a far-out point (1e200) overflows to inf, so its density is 0, its log -inf
            diff = obs[:, None, :] - self.means[None, :, :]
            ll = -0.5 * (np.log(2.0 * np.pi * self.variances)[None] + diff**2 / self.variances[None])
        return ll.sum(axis=2)

    def likelihood(self, obs) -> np.ndarray:
        """Density table f[t, s] of the observations ``obs``, shape (T, K)."""
        return np.exp(self.log_likelihood(obs))

    def sample(self, state_indices, rng) -> np.ndarray:
        mu = self.means[state_indices]
        sd = np.sqrt(self.variances[state_indices])
        out = mu + sd * rng.standard_normal(mu.shape)
        return out[:, 0] if out.shape[1] == 1 else out


@dataclass
class DirectLikelihood(_TableEmission):
    """Explicit per-position density values ``table[t, s]`` for one fixed observation sequence.

    Observations under this mode are row positions into the table.  The mode
    exists so instances given only through density values at a handful of
    points are representable verbatim; it is not generative.
    """

    kind, what, outside = "direct-likelihood", "row positions", "position index outside likelihood table of length {}"
    rows = property(lambda self: self.table)

    def violations(self) -> list[str]:
        return _table_violations(self.table, "likelihood table row {}", distributions=False)


Emission = Categorical | DiagonalGaussian | DirectLikelihood


@dataclass
class HmmModel:
    """A hidden Markov model: initial distribution, transition matrix, emission spec.

    Instances are immutable after construction (arrays are marked read-only)
    and safe to share across concurrent decoders.
    """

    initial: np.ndarray
    transition: np.ndarray
    emission: Emission

    def __post_init__(self):
        self.initial = _readonly(self.initial)
        self.transition = _readonly(self.transition)

    @property
    def num_states(self) -> int:
        return len(self.initial)


def validate_model(model: HmmModel) -> list[str]:
    """Check every model invariant; return a list of violations (empty means valid).

    Violations name the offending field and 1-based index.  This reports and
    never raises.
    """
    if model.initial.ndim != 1:
        return [f"initial distribution must be 1-dimensional, got shape {model.initial.shape}"]
    k = model.num_states
    if k < 1:
        return ["initial distribution is empty"]
    if model.transition.shape != (k, k):
        return [f"transition matrix shape {model.transition.shape} does not match {k} states"]
    out = _table_violations(model.initial, "initial distribution") + _table_violations(model.transition, "transition row {}")
    for param in fields(model.emission):  # every emission param is a table with one row per state
        table = getattr(model.emission, param.name)
        if table.ndim != 2:
            return out + [f"emission {param.name} must be 2-dimensional, got shape {table.shape}"]
    if model.emission.num_states != k:
        out.append(
            f"emission is specified for {model.emission.num_states} states, model has {k}"
        )
    out.extend(model.emission.violations())
    return out


def prior_marginals(model: HmmModel, horizon: int) -> np.ndarray:
    """Marginal state distributions of the hidden chain: row t is pi @ P^t.

    Returns an array of shape (horizon, K) whose row t-1 is the distribution
    of the hidden state at time t.  Each row is a fixed function of the row
    before it, so once a row repeats its predecessor bit for bit every later
    row equals it; the loop looks for that every ``_SETTLE_CHECK`` steps and
    fills the rest.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    out = np.empty((horizon, model.num_states))
    out[0] = model.initial
    bits = out.view(np.uint64)
    for t in range(1, horizon):
        np.dot(out[t - 1], model.transition, out[t])
        if t % _SETTLE_CHECK == 0 and np.array_equal(bits[t], bits[t - 1]):
            out[t + 1 :] = out[t]
            break
    return out


def check_state_path(path, num_states: int) -> np.ndarray:
    """Validate a 1-based state path, or an (N, T) matrix of N paths, and
    return it as an integer array of the same shape: integer input as it is,
    with no widening copy, anything else (2.0) cast to int.

    Labels must be integers in 1..num_states; anything else raises ValueError.
    """
    arr = np.asarray(path)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError("a state path must be a non-empty 1-d sequence (or an (N, T) matrix of paths)")
    arr = _integers(arr, 1, num_states, "state labels must be integers", f"state labels must lie in 1..{num_states}")
    return arr if arr.dtype.kind in "ui" else arr.astype(int)


def check_integer(value, what: str) -> int:
    """A 1-based position or state, or a window length, by the integer rule: an integral value (2 or 2.0) as an int."""
    message = f"{what} must be an integer, got {value}"
    return int(_integers(value, -np.inf, np.inf, message, message))


def sample_trajectories(model: HmmModel, horizon: int, seeds):
    """Draw one (hidden path, observation sequence) pair of the given length per seed.

    Row n is drawn from its own ``numpy.random.default_rng(seeds[n])`` stream,
    in the same order as a single draw: ``horizon`` uniforms for the hidden
    chain, then the emissions.  Returns the hidden paths with 1-based state
    labels, in the smallest unsigned dtype that holds K, as an (N, horizon)
    array, and the observations stacked along a leading axis.  Raises for
    direct-likelihood emissions, which are tied to a fixed observation sequence.
    """
    if isinstance(model.emission, DirectLikelihood):
        raise DirectLikelihoodNotGenerativeError(
            "cannot sample trajectories from a direct-likelihood model"
        )
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u = np.empty((len(rngs), horizon))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    last = model.num_states - 1
    # moves[t - 1, n, i]: the state after i at position t, given row n's uniform u[n, t]
    moves = np.empty((horizon - 1, len(rngs), model.num_states), dtype=np.min_scalar_type(last))
    for i, row in enumerate(np.cumsum(model.transition, axis=1)):
        moves[:, :, i] = np.minimum(np.searchsorted(row, u[:, 1:].T, side="right"), last)
    first = np.minimum(np.searchsorted(np.cumsum(model.initial), u[:, 0], side="right"), last)
    states = follow(first, moves)
    obs = np.stack([model.emission.sample(path, rng) for path, rng in zip(states, rngs)])
    return np.add(states, 1, dtype=np.min_scalar_type(model.num_states)), obs  # K = 256 takes uint16: its index 255 is state 256


def sample_trajectory(model: HmmModel, horizon: int, seed: int):
    """Draw one (hidden path, observation sequence) pair of the given length.

    Deterministic for a fixed seed.  The hidden path is returned with 1-based
    state labels.  Raises for direct-likelihood emissions, which are tied to a
    fixed observation sequence.
    """
    states, obs = sample_trajectories(model, horizon, [seed])
    return tuple(states[0].tolist()), obs[0]
