"""Max-sum lattice kernel shared by every path decoder in the package.

A decoding problem is given by per-position gains g[t, j], an extra initial
score for the first position, and a transition score matrix w[i, j]; the
kernel maximizes

    init_extra[s_1] + sum_t g[t, s_t] + sum_t w[s_t, s_{t+1}]

over all state sequences.  Scores may be -inf; -inf is absorbing.  Every
array may carry a leading batch axis of N independent problems of equal
length, which are solved together; a single problem is the N = 1 case.

The kernel, ``_max_sum``, works in place: it overwrites an (N, T, K) gains
buffer with the cost-to-go.  The public ``best_path`` copies its input and
runs the kernel on the copy, so a caller's array is never written; the
decoders stack the gains of several problems into one array and pass it to
``best_path``, so the copy is the one cost-to-go table of that call.

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


def _max_sum(gains: np.ndarray, init_extra, trans):
    """Solve the N problems of an (N, T, K) float ``gains`` buffer in place.

    The buffer is overwritten with the cost-to-go: ``gains[n, t, i]`` becomes
    the best score of a continuation from state i at position t.  Returns the
    (N, T) paths and the (N,) scores; raises NoFinitePathError when some
    problem has no path of finite score.
    """
    num, horizon, num_states = gains.shape
    trans = np.broadcast_to(trans, (num, num_states, num_states))
    phi = gains.transpose(1, 0, 2)  # (T, N, K) view of the buffer
    buf = np.empty((num, num_states, num_states))
    best_next = np.empty((num, num_states))
    # step t: phi[t] += max_j (trans[:, :, j] + phi[t + 1][:, None, j]); addition commutes, so the bits
    # are those of gains[:, t] + max(...)
    for nxt, cur in zip(phi[:0:-1, :, None, :], phi[-2::-1]):
        np.add(trans, nxt, out=buf)
        np.maximum.reduce(buf, axis=2, out=best_next)
        cur += best_next
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
    return follow(first, successors), best


def best_path(gains: np.ndarray, init_extra: np.ndarray, trans: np.ndarray):
    """Return (path, score) for the lexicographically smallest maximizer.

    ``gains`` is (T, K), or (N, T, K) for N problems at once; ``init_extra``
    is (K,) or (N, K) and ``trans`` (K, K) or (N, K, K).  For one problem
    ``path`` holds 0-based state indices of shape (T,) and ``score`` is a
    float; with a batch axis they are (N, T) and (N,).  Raises
    NoFinitePathError when some problem has no path of finite score.  The
    kernel runs on a copy, so ``gains`` is left unchanged.
    """
    gains = np.array(gains, dtype=float)
    single = gains.ndim == 2
    path, best = _max_sum(gains[None] if single else gains, init_extra, trans)
    return (path[0], float(best[0])) if single else (path, best)
