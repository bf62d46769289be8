"""The max-sum walks of the package and their one tie rule.

A decoding problem is given by per-position gains g[t, j], an extra initial
score for the first position, and a transition score matrix w[i, j]; the
kernel maximizes

    init_extra[s_1] + sum_t g[t, s_t] + sum_t w[s_t, s_{t+1}]

over all state sequences.  Scores may be -inf; -inf is absorbing.  Every
array may carry a leading batch axis of N independent problems of equal
length, which are solved together; a single problem is the N = 1 case.

The kernel, ``best_path``, reads its gains as a sequence of tables, each of
one problem, (T, K), or of a group of problems, (n, T, K): any objects that
return their rows for a slice of positions.  The decoders pass one row per
decoder over a group of summaries, which computes every summary's gains only
when sliced.  The successor state j comes first and the problem axis last:
the transition scores are copied once as tj[j, i, n] = w_n[i, j] (N K^2
elements), so each step's max over j reduces a leading axis over rows of
K N elements (a last axis of K takes one inner-loop call per output
element).  The cost-to-go lives in a (positions, K, N) window of about
``_BLOCK`` elements that moves down the positions, and each window's gains
are copied into a block of that layout and size, one copy per table, so
memory does not grow with T.  A single problem has no N axis.
``rabiner_walk``, the overlapping-block decoder's walk over (k-1)-tuples of
states, streams its window gains in blocks the same way.

Tie policy: among all maximizers both walks return the lexicographically
smallest path.  ``near_max`` owns the rule: the smallest index within
``TIE_TOL`` of the best.  A backward cost-to-go sweep computes, for every
position t and state i, the best continuation value phi[t, i].  As soon as
the sweep has passed a window or block, the near_max successor j of
w[i, j] + phi[t + 1, j] is tabulated for every (t, i) in it, and each
successor is stored in the smallest integer dtype that holds the largest
state or tuple index.  The path is read off that table, in that dtype, by
``follow``, a blocked scan over the composed successor maps, from the
near_max first state, which is the same choice a greedy forward selection
makes, since it compares the same sums.  The tolerance exists because
mathematically exact ties can differ by a few ulps when the same score is
accumulated along different orders.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoFinitePathError

TIE_TOL = 1e-12
_BLOCK = 1 << 13  # elements of a block: the tie-break's and forward-backward's products over N K K, and the cost-to-go window


def _walk(first: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The interpreted walk: ``out[0] = first`` and ``out[b + 1, n] = maps[b, n, out[b, n]]``;
    ``maps`` is (B, N, width), ``out`` (B + 1, N) in its dtype."""
    steps, num, width = maps.shape
    out = np.empty((steps + 1, num), dtype=maps.dtype)
    out[0] = first
    table = memoryview(np.ascontiguousarray(maps).reshape(-1))
    view = memoryview(out.reshape(-1))
    cur = out[0].tolist()
    k = num
    for base in range(0, steps * num * width, num * width):
        for n in range(num):
            cur[n] = view[k] = table[base + n * width + cur[n]]
            k += 1
    return out


def follow(first: np.ndarray, successors: np.ndarray) -> np.ndarray:
    """Chase successor tables: ``paths[n, 0] = first[n]`` and
    ``paths[n, t + 1] = successors[t, n, paths[n, t]]``.

    ``successors`` has shape (T - 1, N, K); returns an (N, T) array of its dtype.
    A blocked scan: the T - 1 steps fall into blocks of L, and L - 1 gathers
    over every whole block at once compose each block's maps from every
    state; ``_walk`` chases the composed maps, which gives the state at every
    multiple of L, and L - 1 gathers over the blocks fill the positions in
    between.  L is about sqrt((T - 1) N / 16), which balances the walk's
    (T - 1) N / L interpreted steps against the 2 (L - 1) numpy calls.  The
    composition gathers K elements per position where the walk takes one
    step, so L is 1, the plain walk, for K above 64.  Median CPU times
    (2 shared CPUs, numpy 2.4.6): at N = 4, T = 2000 the blocked scan took
    1.1, 1.7, 2.5 and 3.1 ms at K = 32, 64, 96 and 128, the plain walk
    2.4 ms; at N = 1, T = 20000, K = 8, 1.3 ms against 9.3 ms.
    """
    steps, num, width = successors.shape
    size = 1 if width > 64 else max(1, math.isqrt(steps * num // 16))
    table = np.ascontiguousarray(successors)
    flat, row = table.reshape(-1), num * width
    offsets = (np.arange(steps // size + 1)[:, None] * (size * num) + np.arange(num)) * width  # [b, n]: map at step b L
    maps = table[: steps - steps % size : size]  # maps[b, n, i]: the state L steps after state i at position b L
    for lag in range(1, size):
        maps = np.take(flat[lag * row :], offsets[:-1, :, None] + maps)
    paths = np.empty((steps + 1, num), dtype=table.dtype)
    paths[::size] = cur = _walk(first, maps)
    for lag in range(1, size):
        count = (steps - lag) // size + 1  # the blocks that reach position b L + lag
        cur = paths[lag::size] = np.take(flat[(lag - 1) * row :], offsets[:count] + cur[:count])
    return paths.T


def near_max(vals: np.ndarray, axis: int):
    """The tie rule: the max of ``vals`` along ``axis`` and the smallest index
    whose value is within ``TIE_TOL`` of it, or 0 where none is (a NaN max).
    Off the last axis, which numpy's argmax would first copy to the end, the
    index is width minus the largest rank (width down to 1) of a hit, mod
    width: a max, which numpy reduces in place over long rows."""
    best = vals.max(axis=axis, keepdims=True)
    hit, axis = vals >= best - TIE_TOL, axis % vals.ndim
    if axis == vals.ndim - 1:
        return best.squeeze(axis), np.argmax(hit, axis=axis)
    width = vals.shape[axis]
    ranks = np.arange(width, 0, -1, dtype=np.min_scalar_type(width)).reshape(-1, *[1] * (vals.ndim - 1 - axis))
    return best.squeeze(axis), (width - np.maximum.reduce(hit * ranks, axis)) % width


def best_path(gains, init_extra: np.ndarray, trans: np.ndarray):
    """Return (path, score) for the lexicographically smallest maximizer.

    ``gains`` is one (T, K) table for a single problem, an (N, T, K) array,
    or a sequence of tables that each hold one problem, (T, K), or a group of
    n problems, (n, T, K), such as the decoders' gains rows; each table is
    only sliced, ``g[lo:hi]`` or ``g[:, lo:hi]``, once per cost-to-go window.
    ``init_extra`` is (K,) or (N, K) and ``trans`` (K, K) or (N, K, K).  For
    one problem ``path`` holds 0-based state indices of shape (T,) and
    ``score`` is a float; with a batch axis they are (N, T) and (N,), paths in
    the smallest unsigned dtype that holds K - 1.  Raises NoFinitePathError
    when some problem has no path of finite score.  Memory: the scores copied
    successor first, tj[j, i, n] = trans[n, i, j], are N K^2 floats; the
    cost-to-go window is (size + 1, K, N) and the gains block (size, K, N),
    size = max(step, _BLOCK // (N K)), step = max(1, _BLOCK // (N K K)).
    """
    ndim = getattr(gains, "ndim", 0)  # 2: one problem, 3: a batch, 0: a sequence of tables
    groups = [g if len(g.shape) == 3 else g[None] for g in ([gains] if ndim else gains)]
    bounds = np.cumsum([0] + [g.shape[0] for g in groups]).tolist()  # group i holds problems bounds[i]..bounds[i + 1] - 1
    num, horizon, num_states = bounds[-1], groups[0].shape[1], np.shape(trans)[-1]
    # successor first, problems last: tj[j, i, n] = trans[n, i, j]; a single problem has no N axis, and [pick] drops it
    tail, pick = ((), 0) if num == 1 else ((num,), slice(None))
    tj = np.ascontiguousarray(np.broadcast_to(trans, (num, num_states, num_states)).transpose(2, 1, 0))[..., pick]
    step = max(1, _BLOCK // (num * num_states * num_states))
    size = max(step, _BLOCK // (num * num_states))
    window = np.empty((size + 1, num_states, *tail))  # window[-1]: the cost-to-go just above the window
    block = np.empty((size, num_states, *tail))  # block[i, :, n]: problem n's gains at position lo + i

    def fill(out, lo, hi):  # out[i, :, n] = problem n's gains at position lo + i, one copy per group
        out = out.reshape(hi - lo, num_states, num)
        for g, a, b in zip(groups, bounds[:-1], bounds[1:]):
            out[:, :, a:b] = g[:, lo:hi].transpose(1, 2, 0)

    fill(window[-1:], horizon - 1, horizon)
    buf = np.empty((num_states, num_states, *tail))
    add, max_reduce = np.add, np.maximum.reduce  # bound once and called positionally: the sweep is call-bound
    successors = np.empty((horizon - 1, num, num_states), dtype=np.min_scalar_type(num_states - 1))  # [t, n, i] -> j
    ties = successors.transpose(0, 2, 1)[..., pick]  # ties[t, i, n] = successors[t, n, i]
    for hi in range(horizon - 1, 0, -size):
        lo = max(0, hi - size)
        phi = window[size - (hi - lo) :]  # phi[i] is the cost-to-go at position lo + i
        fill(block[: hi - lo], lo, hi)
        # cur[i, n] = max_j (tj[j, i, n] + nxt[j, 0, n]) + gain[i, n]; addition commutes: the bits of gain + max
        for nxt, cur, gain in zip(phi[:0:-1, :, None], phi[-2::-1], block[hi - lo - 1 :: -1]):
            add(tj, nxt, buf)
            max_reduce(buf, 0, None, cur)  # (array, axis, dtype, out)
            cur += gain
        for a in range(0, hi - lo, step):
            ties[lo + a : min(lo + a + step, hi)] = near_max(tj + phi[a + 1 : a + step + 1, :, None], axis=1)[1]
        window[-1] = phi[0]
    start = np.broadcast_to(init_extra, (num, num_states)).T + window[-1].reshape(num_states, num)  # start[i, n]
    best, first = near_max(start, axis=0)
    if not np.all(np.isfinite(best)):
        raise NoFinitePathError("all candidate paths have -inf score")
    path = follow(first, successors)
    return (path[0], float(best[0])) if ndim == 2 else (path, best)


def _digits(values, base: int, width: int) -> np.ndarray:
    """The ``width`` base-``base`` digits of each of ``values``, most significant first, on a new last axis:
    one flat expression, with no ``width``-axis mesh to pass numpy's axis limit."""
    return np.asarray(values)[..., None] // base ** np.arange(width - 1, -1, -1) % base


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
    return np.concatenate((_digits(start, num_states, k - 1), tuples[1:] % num_states))
