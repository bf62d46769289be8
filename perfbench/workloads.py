"""Seeded input generator and op lists of the three benchmark workloads.

Every file written here is drawn with numpy from the benchmark's ``--seed``
alone, never with hmmrisk's own sampler, so a change to the program cannot
change these files.  hmmrisk receives only them: a model JSON, an observation
file and a label file.  ``simulate`` ops are different: they decode sequences
that hmmrisk's own sampler (``hmmrisk.model.sample_trajectory``) draws from
the ``--seed`` argument this module puts into the op, so their position counts are
fixed but the sequence contents follow the program's sampler.  Sampled inputs
are never filtered or redrawn.

An op is one CLI command, run in process through ``hmmrisk.cli.main``.  Its
``positions`` count comes from the generated inputs, never from program output:

* ``decode``: T;
* ``simulate``: replicates x sum(horizons) x decoder tags, and in gap-sweep
  mode replicates x sum(horizons) x (1 + |k|) (one Viterbi path plus one
  path per k);
* ``sweep --q``: T x 2 x |q| (a plain and a rescaled decode per q).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload and what its output must look like."""

    label: str
    argv: tuple[str, ...]
    positions: int
    kind: str  # "decode", "simulate", "gap" or "sweep-q"
    out: str  # file the command writes
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    model: str
    observations: tuple[str, ...]  # observation files parsed by the setup probe


def _dirichlet_rows(rng, rows: int, cols: int, concentration: float) -> np.ndarray:
    out = rng.dirichlet(np.full(cols, concentration), size=rows)
    return out / out.sum(axis=1, keepdims=True)


def _sticky(rng, num_states: int, stay: float) -> np.ndarray:
    trans = (1.0 - stay) * _dirichlet_rows(rng, num_states, num_states, 1.0) + stay * np.eye(num_states)
    return trans / trans.sum(axis=1, keepdims=True)


def _banded(rng, num_states: int) -> np.ndarray:
    """Transition rows supported on |i - j| <= 2; other entries are 0."""
    trans = np.zeros((num_states, num_states))
    for i in range(num_states):
        lo, hi = max(0, i - 2), min(num_states, i + 3)
        trans[i, lo:hi] = rng.dirichlet(np.ones(hi - lo))
    return trans / trans.sum(axis=1, keepdims=True)


def _draw(rng, cdf_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    u = rng.random(len(rows))
    return np.minimum((cdf_rows[rows] <= u[:, None]).sum(axis=1), cdf_rows.shape[1] - 1)


def sample_symbols(rng, initial, transition, table, horizon: int) -> np.ndarray:
    """Categorical observations of one hidden-chain trajectory."""
    cdf_trans = np.cumsum(transition, axis=1)
    u = rng.random(horizon)
    states = np.empty(horizon, dtype=int)
    states[0] = min(int(np.searchsorted(np.cumsum(initial), u[0], side="right")), len(initial) - 1)
    for t in range(1, horizon):
        row = cdf_trans[states[t - 1]]
        states[t] = min(int(np.searchsorted(row, u[t], side="right")), len(initial) - 1)
    return _draw(rng, np.cumsum(table, axis=1), states)


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=1) + "\n")
    return str(path)


def _categorical_model(path: Path, initial, transition, table) -> str:
    return _write_json(
        path,
        {
            "num_states": len(initial),
            "initial": initial.tolist(),
            "transition": transition.tolist(),
            "emission": {"type": "categorical", "params": {"table": table.tolist()}},
        },
    )


def _write_symbols(path: Path, symbols) -> str:
    path.write_text("".join(f"{int(s)}\n" for s in symbols))
    return str(path)


def _decode_op(workdir: Path, label: str, selector: list[str], model, obs, horizon, states, **expect) -> Op:
    out = str(workdir / f"path-{label.replace(' ', '_').replace(',', '_')}.txt")
    argv = ("decode", "--model", model, "--obs", obs, *selector, "--out", out)
    expect = {"horizon": horizon, "states": states, "model": model, "obs": obs, **expect}
    return Op(label, argv, horizon, "decode", out, expect)


def decode_long(workdir: Path, seed: int, horizon: int = 20000):
    num_states, num_symbols = 8, 8
    rng = np.random.default_rng([seed, 1])
    initial = rng.dirichlet(np.ones(num_states))
    transition = _sticky(rng, num_states, 0.6)
    table = _dirichlet_rows(rng, num_states, num_symbols, 0.5)
    model = _categorical_model(workdir / "model.json", initial, transition, table)
    obs = _write_symbols(workdir / "obs.txt", sample_symbols(rng, initial, transition, table, horizon))
    first_class = {int(s) + 1 for s in rng.permutation(num_states)[: num_states // 2]}
    assignment = {str(s): "A" if s in first_class else "B" for s in range(1, num_states + 1)}
    labels = _write_json(workdir / "labels.json", {"labels": assignment, "beta": 1.0})
    common = dict(model=model, obs=obs, horizon=horizon, states=num_states)
    ops = (
        _decode_op(workdir, "k=inf", ["--k", "inf"], reference=True, **common),
        _decode_op(workdir, "k=3", ["--k", "3"], **common),
        _decode_op(workdir, "weights beta1=1", ["--weights", "1,0.5,0,0.2", "--beta1", "1"], **common),
        _decode_op(workdir, "alpha=0.5", ["--alpha", "0.5"], **common),
        _decode_op(workdir, "q=2", ["--q", "2"], **common),
        _decode_op(workdir, "labels", ["--weights", "1,1,0,0", "--labels", labels], labels=assignment, **common),
    )
    return Workload("decode-long", ops, model, (obs,))


def _simulate_op(workdir: Path, label, model, horizons, replicates, sim_seed, decoders=None, ks=None) -> Op:
    out = str(workdir / f"{label}.csv")
    argv = ["simulate", "--model", model, "--horizons", ",".join(map(str, horizons))]
    argv += ["--replicates", str(replicates), "--seed", str(sim_seed)]
    if ks is not None:
        argv += ["--k", ",".join(map(str, ks))]
        per_sequence, kind = 1 + len(ks), "gap"
    else:
        argv += ["--decoders", ",".join(decoders)]
        per_sequence, kind = len(decoders), "simulate"
    argv += ["--out", out]
    expect = {"horizons": list(horizons), "replicates": replicates, "decoders": decoders, "ks": ks}
    return Op(label, tuple(argv), replicates * sum(horizons) * per_sequence, kind, out, expect)


def simulate_many(workdir: Path, seed: int):
    rng = np.random.default_rng([seed, 2])
    initial = rng.dirichlet(np.ones(2))
    transition = _sticky(rng, 2, 0.7)
    means = [[0.0], [float(rng.uniform(1.0, 2.0))]]
    variances = [[float(v)] for v in rng.uniform(0.5, 1.5, size=2)]
    model = _write_json(
        workdir / "model.json",
        {
            "num_states": 2,
            "initial": initial.tolist(),
            "transition": transition.tolist(),
            "emission": {"type": "gaussian", "params": {"means": means, "variances": variances}},
        },
    )
    sim_seed = int(rng.integers(0, 2**31))
    ops = (
        _simulate_op(
            workdir, "simulate", model, (200, 2000), 20, sim_seed, decoders=("viterbi", "pmap", "pvd", "kblock:3", "alpha:0.5")
        ),
        _simulate_op(workdir, "gap-sweep", model, (200,), 30, sim_seed, ks=(2, 4, 8)),
    )
    return Workload("simulate-many", ops, model, ())


def wide_k32(workdir: Path, seed: int):
    horizon, num_states, num_symbols = 2000, 32, 16
    rng = np.random.default_rng([seed, 3])
    initial = rng.dirichlet(np.ones(num_states))
    transition = _banded(rng, num_states)
    table = _dirichlet_rows(rng, num_states, num_symbols, 0.5)
    model = _categorical_model(workdir / "model.json", initial, transition, table)
    obs = _write_symbols(workdir / "obs.txt", sample_symbols(rng, initial, transition, table, horizon))
    sim_seed = int(rng.integers(0, 2**31))
    qs = ("1", "2", "inf")
    sweep_out = str(workdir / "sweep-q.csv")
    ops = (
        _simulate_op(workdir, "simulate", model, (horizon,), 4, sim_seed, decoders=("rabiner:2", "pvd")),
        Op(
            "sweep-q",
            ("sweep", "--model", model, "--obs", obs, "--q", ",".join(qs), "--out", sweep_out),
            horizon * 2 * len(qs),
            "sweep-q",
            sweep_out,
            {"qs": [float(q) for q in qs]},
        ),
    )
    return Workload("wide-k32", ops, model, (obs,))


BUILDERS = {"decode-long": decode_long, "simulate-many": simulate_many, "wide-k32": wide_k32}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files under ``workdir`` and return its op list."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](workdir, seed)
