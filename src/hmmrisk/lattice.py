"""The max-sum walks of the package and their one tie rule.

A decoding problem is given by per-position gains g[t, j], an extra initial
score for the first position, and a transition score matrix w[i, j]; the
kernel maximizes

    init_extra[s_1] + sum_t g[t, s_t] + sum_t w[s_t, s_{t+1}]

over all state sequences.  Scores may be -inf; -inf is absorbing.  Every
array may carry a leading batch axis of N independent problems of equal
length, which are solved together; a single problem is the N = 1 case.

The kernel, ``best_path``, reads its gains as a sequence of N per-problem
(T, K) tables, any objects that return their rows for a slice: the decoders
pass rows that compute their gains only when sliced.  The cost-to-go lives in
a window of about ``_BLOCK`` elements that moves down the positions, and each
window's gains are copied into a block of that size, so memory does not grow
with T.  ``rabiner_walk``, the overlapping-block decoder's walk over
(k-1)-tuples of states, streams its window gains in blocks the same way.

Tie policy: among all maximizers both walks return the lexicographically
smallest path.  ``near_max`` owns the rule: the smallest index within
``TIE_TOL`` of the best.  A backward cost-to-go sweep computes, for every
position t and state i, the best continuation value phi[t, i].  As soon as
the sweep has passed a window or block, the near_max successor j of
w[i, j] + phi[t + 1, j] is tabulated for every (t, i) in it, and each
successor is stored in the smallest integer dtype that holds the largest
state or tuple index.  The path is read off that table, in that dtype, by
``follow``, from the near_max first state, which is the same choice a
greedy forward selection makes, since it compares the same sums.  The
tolerance exists because mathematically exact ties can differ by a few ulps
when the same score is accumulated along different orders.
"""

from __future__ import annotations

import numpy as np

from .errors import NoFinitePathError

TIE_TOL = 1e-12
_BLOCK = 1 << 13  # elements of a block: the tie-break's and forward-backward's (positions, N, K, K) products, and the cost-to-go window


def follow(first: np.ndarray, successors: np.ndarray) -> np.ndarray:
    """Chase successor tables: ``paths[n, 0] = first[n]`` and
    ``paths[n, t + 1] = successors[t, n, paths[n, t]]``.

    ``successors`` has shape (T - 1, N, K); returns an (N, T) array of its dtype.
    """
    steps, num, width = successors.shape
    paths = np.empty((steps + 1, num), dtype=successors.dtype)
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


def near_max(vals: np.ndarray, axis: int):
    """The tie rule: the max of ``vals`` along ``axis`` and the smallest index
    whose value is within ``TIE_TOL`` of it."""
    best = vals.max(axis=axis, keepdims=True)
    return best.squeeze(axis), np.argmax(vals >= best - TIE_TOL, axis=axis)


def best_path(gains, init_extra: np.ndarray, trans: np.ndarray):
    """Return (path, score) for the lexicographically smallest maximizer.

    ``gains`` is a sequence of N per-problem (T, K) tables, such as an
    (N, T, K) array, or one (T, K) array for a single problem; each table is
    only sliced, ``g[lo:hi]``, once per cost-to-go window.  ``init_extra`` is
    (K,) or (N, K) and ``trans`` (K, K) or (N, K, K).  For one problem
    ``path`` holds 0-based state indices of shape (T,) and ``score`` is a
    float; with a batch axis they are (N, T) and (N,), paths in the smallest
    unsigned dtype that holds K - 1.  Raises NoFinitePathError when some
    problem has no path of finite score.  The cost-to-go window and the gains
    block hold max(step, _BLOCK // (N K)) positions, step = max(1, _BLOCK // (N K K)).
    """
    single = getattr(gains, "ndim", None) == 2
    gains = [gains] if single else gains
    num, horizon, num_states = len(gains), len(gains[0]), np.shape(trans)[-1]
    trans = np.broadcast_to(trans, (num, num_states, num_states))
    step = max(1, _BLOCK // (num * num_states * num_states))
    size = max(step, _BLOCK // (num * num_states))
    window = np.empty((size + 1, num, num_states))  # window[-1]: the cost-to-go just above the window
    window[-1] = [table[horizon - 1 : horizon][0] for table in gains]
    block = np.empty((size, num, num_states))  # block[i, n]: problem n's gains at position lo + i
    buf = np.empty((num, num_states, num_states))
    add, max_reduce = np.add, np.maximum.reduce  # bound once and called positionally: the sweep is call-bound
    successors = np.empty((horizon - 1, num, num_states), dtype=np.min_scalar_type(num_states - 1))  # [t, n, i] -> j
    for hi in range(horizon - 1, 0, -size):
        lo = max(0, hi - size)
        phi = window[size - (hi - lo) :]  # phi[i] is the cost-to-go at position lo + i
        for n, table in enumerate(gains):
            block[: hi - lo, n] = table[lo:hi]
        # cur = max_j (trans[:, :, j] + nxt[:, None, j]) + gains[t]; addition commutes: the bits of gains[t] + max
        for nxt, cur, gain in zip(phi[:0:-1, :, None, :], phi[-2::-1], block[hi - lo - 1 :: -1]):
            add(trans, nxt, buf)
            max_reduce(buf, 2, None, cur)  # (array, axis, dtype, out)
            cur += gain
        for a in range(0, hi - lo, step):
            successors[lo + a : min(lo + a + step, hi)] = near_max(trans + phi[a + 1 : a + step + 1, :, None, :], axis=3)[1]
        window[-1] = phi[0]
    best, first = near_max(init_extra + window[-1], axis=1)
    if not np.all(np.isfinite(best)):
        raise NoFinitePathError("all candidate paths have -inf score")
    path = follow(first, successors)
    return (path[0], float(best[0])) if single else (path, best)


def rabiner_walk(blocks, num_states: int, k: int) -> np.ndarray:
    """0-based path of length (window starts) + k - 1 maximizing the summed
    window gains, lexicographically smallest under the tie rule.  ``blocks``
    yields (starts, K^k) gains of consecutive window starts, the last block
    first (``[table]`` is one block); column c scores the k-tuple with base-K
    digits c (k >= 2).  The backward sweep over (k-1)-tuples takes 2 numpy
    calls per start; then the block's near_max successor tuples are tabulated
    in one call and the block is dropped: only the successors outlive it.
    """
    n_tuples, lead = num_states ** (k - 1), num_states ** (k - 2)
    offsets = np.arange(n_tuples).reshape(num_states, lead) % lead * num_states  # j -> tuple index rest * K + j
    phi, buf, nodes = np.zeros((1, num_states, lead)), np.empty((num_states, lead, num_states)), []
    for block in blocks:
        # gains[a, d, rest, j]: window a holds tuple (d, rest), then state j; the next tuple is (rest, j)
        gains = block.reshape(len(block), num_states, lead, num_states)
        phi = np.concatenate((np.empty((len(gains), num_states, lead)), phi[:1]))  # phi[a]: cost-to-go at start a
        for gain, nxt, cur in zip(gains[::-1], phi[:0:-1], phi[-2::-1]):
            np.add(gain, nxt.reshape(lead, num_states), buf)
            np.maximum.reduce(buf, 2, None, cur)  # (array, axis, dtype, out)
        successors = near_max(gains + phi[1:].reshape(len(gains), 1, lead, num_states), axis=3)[1]
        nodes.append((successors + offsets).astype(np.min_scalar_type(n_tuples - 1)))
    start = int(near_max(phi[0].reshape(-1), axis=0)[1])
    tuples = follow(np.array([start]), np.concatenate(nodes[::-1]).reshape(-1, 1, n_tuples))[0].astype(int)  # K = 256 does not fit uint8
    return np.concatenate((np.unravel_index(start, (num_states,) * (k - 1)), tuples[1:] % num_states))
