"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is deterministic.
"""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import hmmrisk as hr

from conftest import all_paths, path_joint_probs, random_instance, write_model, write_observations

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_acceptance_1_four_state_golden():
    a = 2.0
    assert 80 * a > 72 * a + 12  # the strict margin the fixture relies on (a > 1.5)
    model = hr.four_state_model(a)
    obs = hr.four_state_observations()
    summary = hr.forward_backward(model, obs)
    ok = True

    rabiner = hr.rabiner_block_decode(summary, 2)
    ok &= rabiner.path == (2, 1, 1, 2)
    ok &= math.exp(hr.risk.posterior_log_probability(summary, rabiner.path)) == 0.0

    pmap = hr.pmap_decode(summary)
    ok &= pmap.path == (2, 1, 1, 2)
    row_margins = np.sort(summary.smoothed, axis=1)
    ok &= bool(np.all(row_margins[:, -1] > row_margins[:, -2] + 1e-12))  # uniqueness

    paths = all_paths(4, 4)
    joint = path_joint_probs(model, obs, paths)
    viterbi_set = {tuple(p) for p in paths[joint >= joint.max() - 1e-12]}
    ok &= viterbi_set == {(2, 1, 2, 2), (2, 2, 1, 2), (2, 1, 4, 2), (2, 4, 1, 2)}

    k2 = np.array([hr.kblock_logrisk(summary, p, 2) for p in paths])
    k2_set = {tuple(p) for p in paths[k2 <= k2.min() + 1e-12]}
    ok &= k2_set == {(2, 1, 4, 2), (2, 4, 1, 2)}

    ratio = hr.block_posterior(summary, 1, [2, 1]) / hr.block_posterior(summary, 1, [2, 2])
    ok &= abs(ratio - 40 * a / (16 * a + 6)) < 1e-9
    _report(1, "four-state golden fixtures", bool(ok))


def test_acceptance_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    failures = 0
    checked = 0
    for _ in range(200):
        _, _, summary = random_instance(rng, zero_frac=float(rng.random() * 0.3))
        k = int(rng.integers(1, 5))
        alpha = float(rng.random())
        c = rng.random(4) * 2
        c[rng.random(4) < 0.3] = 0.0
        if c.sum() == 0:
            c[int(rng.integers(4))] = 1.0
        weights = hr.RiskWeights(
            *(float(x) for x in c),
            beta1=float(rng.choice([0.0, rng.random() * 2])),
            beta3=float(rng.choice([0.0, rng.random() * 2])),
        )
        k_rab = min(k, summary.horizon)
        pairs = [
            (hr.hybrid_decode(summary, weights), hr.brute_force_decode(summary, weights)),
            (
                hr.kblock_pvd_decode(summary, k),
                hr.brute_force_decode(summary, hr.RiskWeights(1.0, float(k - 1), 0.0, 0.0)),
            ),
            (
                hr.alpha_interpolation_decode(summary, alpha),
                hr.brute_force_decode(summary, hr.RiskWeights(alpha, 1 - alpha, 0.0, 0.0))
                if 0 < alpha < 1
                else None,
            ),
            (hr.viterbi_decode(summary), hr.brute_force_decode(summary, "viterbi")),
            (hr.pmap_decode(summary), hr.brute_force_decode(summary, "pmap")),
            (hr.pvd_decode(summary), hr.brute_force_decode(summary, "pvd")),
            (
                hr.constrained_pmap_decode(summary),
                hr.brute_force_decode(summary, "constrained-pmap"),
            ),
            (
                hr.rabiner_block_decode(summary, k_rab),
                hr.brute_force_decode(summary, "rabiner", k=k_rab),
            ),
        ]
        for decoded, oracle in pairs:
            if oracle is None:
                continue
            checked += 1
            got, want = decoded.objective, oracle.objective
            if np.isinf(want):
                failures += not np.isinf(got)
            else:
                failures += abs(got - want) > 1e-9 * max(1.0, abs(want))
    _report(2, "oracle equivalence", failures == 0, f"{checked} comparisons")


def test_acceptance_3_kblock_identities():
    rng = np.random.default_rng(3033)
    bad = 0
    for _ in range(100):
        model, obs, summary = random_instance(rng)
        horizon = summary.horizon
        path = tuple(int(s) for s in rng.integers(1, summary.num_states + 1, size=horizon))
        k = int(rng.integers(2, horizon + 1))
        report = hr.evaluate_risks(summary, path)
        for chain, rinf, r1 in (
            (summary, report.rbarinf_posterior, report.rbar1_posterior),
            (hr.PriorChain(model, horizon), report.rbarinf_prior, report.rbar1_prior),
        ):
            rk = hr.kblock_logrisk(chain, path, k)
            rk1 = hr.kblock_logrisk(chain, path, k - 1)
            recursion = rinf + rk1
            closed = (k - 1) * rinf + r1
            if np.isfinite(recursion):
                bad += abs(rk - recursion) > 1e-9
                bad += abs(rk - closed) > 1e-9
            else:
                bad += not np.isinf(rk)
    _report(3, "k-block recursion and closed form", bad == 0)


def test_acceptance_4_monotone_bridge_and_sandwich():
    rng = np.random.default_rng(4044)
    violations = 0
    for _ in range(50):
        _, _, summary = random_instance(rng, zero_frac=float(rng.random() * 0.3))
        horizon = summary.horizon
        vit = hr.viterbi_decode(summary).risks
        prev_rinf, prev_r1 = None, None
        for k in range(1, horizon + 1):
            risks = hr.kblock_pvd_decode(summary, k).risks
            rinf, r1 = risks.rbarinf_posterior, risks.rbar1_posterior
            if prev_rinf is not None and not rinf <= prev_rinf + 1e-9:
                violations += 1
            if prev_r1 is not None and np.isfinite(prev_r1) and not r1 >= prev_r1 - 1e-9:
                violations += 1
            if k >= 2:
                gap = rinf - vit.rbarinf_posterior
                if not (0.0 <= gap <= vit.rbar1_posterior / (k - 1) + 1e-9):
                    violations += 1
            prev_rinf, prev_r1 = rinf, r1
    _report(4, "monotone bridge and sandwich", violations == 0)


def test_acceptance_5_admissibility():
    rng = np.random.default_rng(5055)
    inadmissible = 0
    for i in range(500):
        _, _, summary = random_instance(rng, zero_frac=0.25 + float(rng.random() * 0.2))
        if i % 2 == 0:
            weights = hr.RiskWeights(
                float(rng.random()),
                float(rng.random() + 0.05),
                float(rng.random()),
                float(rng.random()),
                beta1=float(rng.choice([0.0, 1.0])),
                beta3=float(rng.choice([0.0, 1.0])),
            )
        else:
            weights = hr.RiskWeights(
                float(rng.random() + 0.05), 0.0, 0.0, float(rng.random() + 0.05), beta1=0.0
            )
        inadmissible += not hr.hybrid_decode(summary, weights).admissible
    _report(5, "admissibility guarantees", inadmissible == 0, "500 instances")


def test_acceptance_6_transform_limits():
    rng = np.random.default_rng(6066)
    ok = True
    for _ in range(50):
        model, obs, summary = random_instance(rng, zero_frac=float(rng.random() * 0.2))
        for rescaled in (False, True):
            tables = hr.transformed_forward_backward(model, obs, 1.0, rescaled=rescaled)
            ok &= hr.symbol_by_symbol_decode(tables) == hr.pmap_decode(summary).path

    unique_checked = 0
    while unique_checked < 50:
        model, obs, _ = random_instance(rng, num_states=3, horizon=6)
        joint = path_joint_probs(model, obs, all_paths(3, 6))
        order = np.sort(joint)[::-1]
        if order[0] <= order[1] * (1 + 1e-6):
            continue
        unique_checked += 1
        tables = hr.transformed_forward_backward(model, obs, math.inf)
        ok &= hr.symbol_by_symbol_decode(tables) == hr.viterbi(model, obs)

    from test_transform import plain_linear_tables

    for _ in range(5):
        model, obs, _ = random_instance(rng, num_states=3, horizon=20)
        tables = hr.transformed_forward_backward(model, obs, 1.0)
        alpha, beta = plain_linear_tables(model, obs, 1.0)
        ok &= bool(np.allclose(np.exp(tables.alpha_q), alpha, rtol=1e-9))
        ok &= bool(np.allclose(np.exp(tables.beta_q), beta, rtol=1e-9))
    _report(6, "transform limits", bool(ok))


def test_acceptance_7_rescaling_distortion_evidence():
    data = json.loads((FIXTURES / "rescaling_disagreement.json").read_text())
    model = hr.HmmModel(
        np.array(data["initial"]),
        np.array(data["transition"]),
        hr.Categorical(np.array(data["emission_table"])),
    )
    obs = np.array(data["observations"])
    rows = hr.rescaling_distortion_probe(model, obs, [data["q"]])
    found = not rows[0]["agree"] and 1.0 < data["q"] < math.inf

    rng = np.random.default_rng(7077)
    q1_agree = True
    for _ in range(50):
        m, o, _ = random_instance(rng, zero_frac=float(rng.random() * 0.2))
        q1_agree &= hr.rescaling_distortion_probe(m, o, [1.0])[0]["agree"]
    _report(7, "rescaling distortion evidence", found and q1_agree)


def test_acceptance_8_simulation_properties():
    model = hr.HmmModel(
        [0.5, 0.5],
        [[0.85, 0.15], [0.2, 0.8]],
        hr.Categorical([[0.75, 0.25], [0.3, 0.7]]),
    )
    rows = hr.sandwich_constant_sweep(model, [100, 500], [2, 3, 6], 30, seed=88)
    gaps_ok = all(0.0 <= r["gap"] <= r["bound"] + 1e-9 for r in rows)

    out = hr.estimate_risk_trajectories(model, ["viterbi", "pmap"], [100, 500, 2000], 50, seed=99)
    order_ok = True
    for horizon in (100, 500, 2000):
        mv, sv = out.stat(horizon, "viterbi", "empirical_error")
        mp, sp = out.stat(horizon, "pmap", "empirical_error")
        se = max(sv, sp) / np.sqrt(50)
        order_ok &= mv >= mp - se
    _report(8, "simulation properties", gaps_ok and order_ok)


def test_acceptance_9_cli_determinism(tmp_path):
    model = hr.HmmModel(
        [0.6, 0.4], [[0.7, 0.3], [0.25, 0.75]], hr.Categorical([[0.8, 0.2], [0.3, 0.7]])
    )
    _, obs = hr.sample_trajectory(model, 15, seed=4)
    model_path = tmp_path / "model.json"
    obs_path = tmp_path / "obs.txt"
    write_model(model, model_path)
    write_observations(obs, obs_path)

    out = str(tmp_path / "p.txt")
    commands = [
        ["paper-example", "--A", "2"],
        ["decode", "--model", str(model_path), "--obs", str(obs_path), "--weights", "1,2,0.5,0",
         "--beta1", "1", "--out", out],
        ["sweep", "--model", str(model_path), "--obs", str(obs_path), "--k", "1..T"],
        ["sweep", "--model", str(model_path), "--obs", str(obs_path), "--q", "1,4,inf"],
        ["simulate", "--model", str(model_path), "--horizons", "30,60", "--replicates", "4",
         "--seed", "11"],
    ]
    identical = True
    for command in commands:
        # a command's two runs start together, each writing its own output file; they stay separate processes
        runs = []
        for run in range(2):
            target = tmp_path / f"p{run}.txt"
            argv = [str(target) if arg == out else arg for arg in command]
            proc = subprocess.Popen([sys.executable, "-m", "hmmrisk", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            runs.append((proc, target))
        outputs = []
        for proc, (stdout, stderr), target in [(proc, proc.communicate(), target) for proc, target in runs]:
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args, stdout, stderr)
            outputs.append(stdout + b"|" + (target.read_bytes() if target.exists() else b""))
        identical &= outputs[0] == outputs[1]
    _report(9, "CLI determinism", identical)
