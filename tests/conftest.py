"""Shared fixtures and independent test oracles.

The enumeration helpers here recompute probabilities by direct products over
all paths, independently of the package's recursions, so they can serve as
oracles for the lattice and forward-backward code.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import hmmrisk as hr
from hmmrisk import io as hio
from hmmrisk.cli import main
from hmmrisk.inference import emission_likelihood

# With CI set, Hypothesis loads its "ci" profile, which derandomizes: --hypothesis-seed is then ignored and every
# run replays the same examples.  "explore" is that profile drawing afresh from the seed given on the command line.
settings.register_profile("explore", settings.get_profile("ci"), derandomize=False)


def write_model(model, path):
    """Write ``model`` as a model file; ``hio._EMISSIONS`` names its emission type and params."""
    etype, (_, names) = next((t, e) for t, e in hio._EMISSIONS.items() if isinstance(model.emission, e[0]))
    params = {name: getattr(model.emission, name).tolist() for name in names}
    doc = {"num_states": model.num_states, "initial": model.initial.tolist(), "transition": model.transition.tolist()}
    Path(path).write_text(json.dumps({**doc, "emission": {"type": etype, "params": params}}))


def write_observations(obs, path):
    """One observation per line: integers as they are, reals by ``repr``, which reads back bit for bit."""
    rows = np.asarray(obs).reshape(len(obs), -1).tolist()
    Path(path).write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))


def run_in_process(argv, out: Path):
    """Exit code, stdout, stderr and the bytes of ``out`` (None if not written) of one in-process CLI run."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


def random_categorical_model(rng, num_states=None, num_symbols=None, zero_frac=0.0):
    """A random model; ``zero_frac`` sprinkles structural zeros into the
    transition matrix and emission table (rows keep at least one entry)."""
    k = int(num_states if num_states is not None else rng.integers(2, 4))
    m = int(num_symbols if num_symbols is not None else rng.integers(2, 4))
    initial = rng.dirichlet(np.ones(k))
    transition = rng.dirichlet(np.ones(k), size=k)
    table = rng.dirichlet(np.ones(m), size=k)
    if zero_frac > 0:
        for mat in (transition, table):
            mask = rng.random(mat.shape) < zero_frac
            keep = rng.integers(0, mat.shape[1], size=mat.shape[0])
            mask[np.arange(mat.shape[0]), keep] = False
            mat[mask] = 0.0
            mat /= mat.sum(axis=1, keepdims=True)
    return hr.HmmModel(initial, transition, hr.Categorical(table))


def random_instance(rng, num_states=None, horizon=None, zero_frac=0.0):
    """(model, obs, summary) with observations sampled from the model, so the
    evidence is always positive."""
    model = random_categorical_model(rng, num_states, zero_frac=zero_frac)
    horizon = int(horizon if horizon is not None else rng.integers(3, 8))
    _, obs = hr.sample_trajectory(model, horizon, int(rng.integers(2**31)))
    return model, obs, hr.forward_backward(model, obs)


def all_paths(num_states, horizon):
    """Every 1-based path, in lexicographic order, shape (K^T, T)."""
    return np.array(list(itertools.product(range(1, num_states + 1), repeat=horizon)))


def path_joint_probs(model, obs, paths):
    """Joint probabilities p(x, s) by direct products, one per path row."""
    likes = emission_likelihood(model, obs)
    paths0 = np.asarray(paths) - 1
    horizon = paths0.shape[1]
    out = model.initial[paths0[:, 0]].copy()
    for t in range(1, horizon):
        out *= model.transition[paths0[:, t - 1], paths0[:, t]]
    for t in range(horizon):
        out *= likes[t, paths0[:, t]]
    return out


def path_prior_probs(model, paths):
    paths0 = np.asarray(paths) - 1
    out = model.initial[paths0[:, 0]].copy()
    for t in range(1, paths0.shape[1]):
        out *= model.transition[paths0[:, t - 1], paths0[:, t]]
    return out


@pytest.fixture
def four_state():
    model = hr.four_state_model(2.0)
    obs = hr.four_state_observations()
    return model, obs, hr.forward_backward(model, obs)
