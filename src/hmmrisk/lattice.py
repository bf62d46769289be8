"""Max-sum lattice kernel shared by every path decoder in the package.

A decoding problem is given by per-position gains g[t, j], an extra initial
score for the first position, and a transition score matrix w[i, j]; the
kernel maximizes

    init_extra[s_1] + sum_t g[t, s_t] + sum_t w[s_t, s_{t+1}]

over all state sequences.  Scores may be -inf; -inf is absorbing.  Every
array may carry a leading batch axis of N independent problems of equal
length, which are solved together; a single problem is the N = 1 case.

Tie policy: among all maximizers the kernel returns the lexicographically
smallest path.  A backward cost-to-go sweep computes, for every position t
and state i, the best continuation value phi[t, i].  A second, loop-free
pass then tabulates for every (t, i) the smallest successor j whose value
w[i, j] + phi[t + 1, j] is within ``TIE_TOL`` of the best one, working
through the positions in fixed-size blocks and storing each successor in the
smallest integer dtype that holds K - 1.  The path is read off that table by
following successors from the smallest near-optimal first state, which is
the same choice a greedy forward selection makes, since it compares the same
sums.  The tolerance exists because mathematically exact ties can differ by
a few ulps when the same score is accumulated along different orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFinitePathError

TIE_TOL = 1e-12
_BLOCK = 1 << 13  # elements of the (positions, N, K, K) block the tie-break tabulates at once


def follow(first: np.ndarray, successors: np.ndarray) -> np.ndarray:
    """Chase successor tables: ``paths[n, 0] = first[n]`` and
    ``paths[n, t + 1] = successors[t, n, paths[n, t]]``.

    ``successors`` has shape (T - 1, N, K); returns an int array (N, T).
    """
    steps, num, width = successors.shape
    paths = np.empty((steps + 1, num), dtype=int)
    paths[0] = first
    table = memoryview(np.ascontiguousarray(successors).reshape(-1))
    out = memoryview(paths.reshape(-1))
    cur = paths[0].tolist()
    k = num
    for base in range(0, steps * num * width, num * width):
        for n in range(num):
            cur[n] = out[k] = table[base + n * width + cur[n]]
            k += 1
    return paths.T


def best_path(gains: np.ndarray, init_extra: np.ndarray, trans: np.ndarray):
    """Return (path, score) for the lexicographically smallest maximizer.

    ``gains`` is (T, K), or (N, T, K) for N problems at once; ``init_extra``
    is (K,) or (N, K) and ``trans`` (K, K) or (N, K, K).  For one problem
    ``path`` holds 0-based state indices of shape (T,) and ``score`` is a
    float; with a batch axis they are (N, T) and (N,).  Raises
    NoFinitePathError when some problem has no path of finite score.
    """
    gains = np.asarray(gains, dtype=float)
    single = gains.ndim == 2
    if single:
        gains = gains[None]
    num, horizon, num_states = gains.shape
    trans = np.broadcast_to(trans, (num, num_states, num_states))
    phi = np.empty((horizon, num, num_states))
    phi[-1] = gains[:, -1]
    buf = np.empty((num, num_states, num_states))
    # step t: phi[t] = gains[:, t] + max_j (trans[:, :, j] + phi[t + 1][:, None, j])
    for nxt, cur, gain in zip(phi[:0:-1, :, None, :], phi[-2::-1], gains.transpose(1, 0, 2)[-2::-1]):
        np.add(trans, nxt, out=buf)
        np.maximum.reduce(buf, axis=2, out=cur)
        cur += gain
    del gains, buf
    start = init_extra + phi[0]
    best = start.max(axis=1)
    if not np.all(np.isfinite(best)):
        raise NoFinitePathError("all candidate paths have -inf score")

    # successors[t, n, i]: smallest j with trans[n, i, j] + phi[t + 1, n, j] within TIE_TOL of the best
    successors = np.empty((horizon - 1, num, num_states), dtype=np.min_scalar_type(num_states - 1))
    step = max(1, _BLOCK // (num * num_states * num_states))
    vals = np.empty((step, num, num_states, num_states))
    near = np.empty(vals.shape, dtype=bool)
    floor = np.empty((step, num, num_states, 1))
    for lo in range(0, horizon - 1, step):
        hi = min(lo + step, horizon - 1)
        v, f, m = vals[: hi - lo], floor[: hi - lo], near[: hi - lo]
        np.add(trans, phi[lo + 1 : hi + 1, :, None, :], out=v)
        np.maximum.reduce(v, axis=3, out=f[..., 0])
        f -= TIE_TOL
        np.greater_equal(v, f, out=m)
        successors[lo:hi] = m.argmax(axis=3)
    del vals, near, floor
    first = np.argmax(start >= best[:, None] - TIE_TOL, axis=1)
    path = follow(first, successors)
    return (path[0], float(best[0])) if single else (path, best)


@dataclass
class Lattice:
    """Forward score table of a decoding problem, for inspection and testing.

    ``delta[t, j]`` is the best score over prefixes ending in state j at
    position t; ``backpointers[t, j]`` is the smallest-index optimal
    predecessor (row 0 is -1); ``terminal`` is the smallest index maximizing
    the final row.
    """

    delta: np.ndarray
    backpointers: np.ndarray
    terminal: int
    score: float


def forward_lattice(gains: np.ndarray, init_extra: np.ndarray, trans: np.ndarray) -> Lattice:
    """Run the forward recursion and return the full score lattice."""
    gains = np.asarray(gains, dtype=float)
    horizon, num_states = gains.shape
    delta = np.empty_like(gains)
    back = np.full((horizon, num_states), -1, dtype=int)
    delta[0] = init_extra + gains[0]
    for t in range(1, horizon):
        cand = delta[t - 1][:, None] + trans
        back[t] = np.argmax(cand, axis=0)
        delta[t] = cand[back[t], np.arange(num_states)] + gains[t]
    terminal = int(np.argmax(delta[-1]))
    return Lattice(delta=delta, backpointers=back, terminal=terminal, score=float(delta[-1, terminal]))
