import numpy as np
import pytest

import hmmrisk as hr


def noisy_two_state_model():
    return hr.HmmModel(
        [0.5, 0.5],
        [[0.85, 0.15], [0.2, 0.8]],
        hr.Categorical([[0.75, 0.25], [0.3, 0.7]]),
    )


def crisp_two_state_model():
    return hr.HmmModel(
        [0.5, 0.5],
        [[0.9, 0.1], [0.1, 0.9]],
        hr.Categorical([[0.999, 0.001], [0.001, 0.999]]),
    )


class TestRiskTrajectories:
    def test_single_state_has_zero_error(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.4, 0.6]]))
        out = hr.estimate_risk_trajectories(model, ["viterbi", "pmap"], [20, 50], 3, seed=0)
        for tag in ("viterbi", "pmap"):
            for horizon in (20, 50):
                mean, sd = out.stat(horizon, tag, "empirical_error")
                assert mean == 0.0
                assert sd == 0.0

    def test_near_deterministic_emissions_give_small_error(self):
        out = hr.estimate_risk_trajectories(
            crisp_two_state_model(), ["viterbi", "pmap"], [500], 50, seed=1
        )
        for tag in ("viterbi", "pmap"):
            mean, _ = out.stat(500, tag, "empirical_error")
            assert mean < 0.05

    def test_viterbi_error_dominates_pmap_within_one_standard_error(self):
        out = hr.estimate_risk_trajectories(
            noisy_two_state_model(), ["viterbi", "pmap"], [100, 500], 50, seed=2
        )
        for horizon in (100, 500):
            mv, sv = out.stat(horizon, "viterbi", "empirical_error")
            mp, _ = out.stat(horizon, "pmap", "empirical_error")
            assert mv >= mp - sv / np.sqrt(50)

    def test_deterministic_given_seed(self):
        model = noisy_two_state_model()
        a = hr.estimate_risk_trajectories(model, ["viterbi"], [50], 5, seed=7)
        b = hr.estimate_risk_trajectories(model, ["viterbi"], [50], 5, seed=7)
        assert a.records == b.records

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            hr.estimate_risk_trajectories(noisy_two_state_model(), ["pmap"], [10], 1, seed=0)

    @pytest.mark.parametrize(
        "tags, repeat",
        [(["viterbi", "viterbi"], "viterbi"), (["kblock:2", "pmap", "kblock:2.0"], "kblock:2"),
         (["rabiner:3.0", "rabiner:3"], "rabiner:3")],
    )
    def test_a_repeated_decoder_is_refused(self, tags, repeat):
        """Each decoder is decoded, and named in the records, once."""
        with pytest.raises(ValueError, match=f"^repeated decoder tag: {repeat}$"):
            hr.estimate_risk_trajectories(noisy_two_state_model(), tags, [10], 2, seed=0)

    def test_stat_of_an_unknown_key(self):
        trajectory = hr.estimate_risk_trajectories(noisy_two_state_model(), ["pmap"], [10], 2, seed=0)
        with pytest.raises(KeyError) as info:
            trajectory.stat(10, "pmap", "no_such_metric")
        assert info.value.args == ((10, "pmap", "no_such_metric"),)

    def test_trajectory_spread_shrinks_with_horizon(self):
        model = noisy_two_state_model()
        smaller = 0
        for run in range(10):
            out = hr.estimate_risk_trajectories(model, ["viterbi"], [100, 2000], 30, seed=1000 + run)
            _, sd_small = out.stat(100, "viterbi", "rbarinf_posterior")
            _, sd_big = out.stat(2000, "viterbi", "rbarinf_posterior")
            smaller += sd_big < sd_small
        assert smaller >= 9


class TestSandwichSweep:
    def test_bound_holds_on_every_sample(self):
        rows = hr.sandwich_constant_sweep(noisy_two_state_model(), [60, 200], [2, 3, 5, 9], 25, seed=3)
        assert len(rows) == 2 * 25 * 4
        for row in rows:
            assert 0.0 <= row["gap"] <= row["bound"] + 1e-9

    def test_gap_nonincreasing_in_k_per_sample(self):
        ks = [2, 3, 5, 9, 17]
        rows = hr.sandwich_constant_sweep(noisy_two_state_model(), [120], ks, 20, seed=4)
        by_sample = {}
        for row in rows:
            by_sample.setdefault(row["replicate"], {})[row["k"]] = row["gap"]
        for gaps in by_sample.values():
            seq = [gaps[k] for k in ks]
            assert all(b <= a + 1e-9 for a, b in zip(seq[:-1], seq[1:]))

    def test_large_k_gap_vanishes_on_unique_instances(self):
        rows = hr.sandwich_constant_sweep(crisp_two_state_model(), [40], [40], 20, seed=5)
        assert sum(row["gap"] <= 1e-12 for row in rows) >= 18

    def test_k_floor(self):
        with pytest.raises(ValueError):
            hr.sandwich_constant_sweep(noisy_two_state_model(), [20], [1], 3, seed=0)

    @pytest.mark.parametrize("ks", [[2, 2], [2, 3, 2.0]])
    def test_a_repeated_k_is_refused(self, ks):
        with pytest.raises(ValueError, match="^repeated k: 2$"):
            hr.sandwich_constant_sweep(noisy_two_state_model(), [20], ks, 3, seed=0)


def _structured_model(num_states: int, seed: int, zero_frac: float = 0.0):
    """A K-state categorical model with a sticky diagonal, so that the decoders' paths differ from run to run."""
    rng = np.random.default_rng(seed)
    transition = 0.5 * rng.dirichlet(np.ones(num_states), num_states) + 0.5 * np.eye(num_states)
    if zero_frac > 0:  # structural zeros off the diagonal, so that some paths are impossible
        transition[(rng.random(transition.shape) < zero_frac) & ~np.eye(num_states, dtype=bool)] = 0.0
        transition /= transition.sum(axis=1, keepdims=True)
    table = rng.dirichlet(np.full(4, 0.5), num_states)
    return hr.HmmModel(rng.dirichlet(np.ones(num_states)), transition, hr.Categorical(table))


def _public_decodes(model, horizon, replicates, seed, tags):
    """The true paths and decode_many's DecodedPath lists of replicates seed..seed+replicates-1, decoded in one batch
    through the public functions only."""
    truths, observations = hr.sample_trajectories(model, horizon, range(seed, seed + replicates))
    return truths, list(hr.decode_many(hr.forward_backward_many(model, observations), tags))


def _mean_sd(values):
    values = np.array(values)
    if np.all(np.isfinite(values)):
        return float(values.mean()), float(values.std(ddof=1))
    return float("inf"), float("inf")


def public_trajectory_records(model, tags, horizons, replicates, seed):
    """estimate_risk_trajectories' records, rebuilt from each replicate's DecodedPath: its risks, and the fraction
    of positions where its path misses the true one."""
    records = []
    for horizon in horizons:
        truths, decoded = _public_decodes(model, horizon, replicates, seed, tags)
        for tag, paths in zip(tags, decoded):
            values = {"empirical_error": [np.mean(np.array(p.path) != truth) for p, truth in zip(paths, truths)]}
            values.update((name, [getattr(p.risks, name) for p in paths]) for name in hr.RiskReport.FIELDS)
            for metric in hr.sim.METRICS:
                mean, sd = _mean_sd(values[metric])
                records.append(
                    {"horizon": horizon, "decoder_tag": tag, "metric": metric, "mean": mean, "sd": sd, "replicates": replicates}
                )
    return records


def public_sweep_rows(model, horizons, ks, replicates, seed):
    """sandwich_constant_sweep's rows, rebuilt from the Viterbi and k-block DecodedPaths of each replicate."""
    rows = []
    for horizon in horizons:
        _, (viterbi, *kblocks) = _public_decodes(model, horizon, replicates, seed, ["viterbi"] + [f"kblock:{k}" for k in ks])
        for r, vit in enumerate(viterbi):
            for k, paths in zip(ks, kblocks):
                gap = paths[r].risks.rbarinf_posterior - vit.risks.rbarinf_posterior
                rows.append({"horizon": horizon, "k": k, "replicate": r, "gap": gap, "bound": vit.risks.rbar1_posterior / (k - 1)})
    return rows


ROUTE_CASES = {
    # K = 3 with structural zeros, so that pmap's paths can be impossible; rabiner:2 makes the groups read windows
    "rabiner": (lambda: _structured_model(3, 11, zero_frac=0.5), [2, 7, 40], 5, None),
    # K = 32 in groups of one replicate
    "k32 groups of one": (lambda: _structured_model(32, 12), [30], 3, 1),
    # K = 256, whose labels are uint16: index 255 is state 256
    "k256 uint16 labels": (lambda: _structured_model(256, 13), [5], 3, None),
}
ROUTE_TAGS = ["viterbi", "pmap", "constrained-pmap", "pvd", "kblock:3", "alpha:0.5", "rabiner:1", "rabiner:2"]


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_studies_match_the_public_route_bit_for_bit(monkeypatch, case):
    """Both Monte Carlo studies, which score label blocks as risk columns, give the records and rows that
    sample_trajectories, forward_backward_many and decode_many give, replicate by replicate, bit for bit."""
    build, horizons, replicates, group = ROUTE_CASES[case]
    model = build()
    if group is not None:  # groups of ``group`` replicates at every horizon, with or without window posteriors
        monkeypatch.setattr(hr.sim, "_GROUP_CELLS", group * min(horizons) * model.num_states)
        parsed = [hr.decoders._parse_tag(tag) for tag in ROUTE_TAGS]
        assert {len(seeds) for h in horizons for _, seeds in hr.sim._groups(model, h, replicates, 0, parsed)} == {group}
    trajectory = hr.estimate_risk_trajectories(model, ROUTE_TAGS, horizons, replicates, 21)
    assert trajectory.records == public_trajectory_records(model, ROUTE_TAGS, horizons, replicates, 21)
    ks = [2, 3, 5]
    assert hr.sandwich_constant_sweep(model, horizons, ks, replicates, 22) == public_sweep_rows(model, horizons, ks, replicates, 22)


def test_k256_labels_are_uint16():
    """State 256 survives the label blocks the studies score."""
    model = _structured_model(256, 13)
    _, observations = hr.sample_trajectories(model, 5, range(3))
    parsed = [hr.decoders._parse_tag(tag) for tag in ("viterbi", "pmap", "rabiner:2")]
    summaries = hr.decoders._summaries(model, observations, parsed)
    for _, paths, _ in hr.decoders._solve_group(summaries, parsed):
        assert paths.dtype == np.uint16 and paths.shape == (3, 5)
