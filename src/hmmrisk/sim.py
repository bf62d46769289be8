"""Monte Carlo study of decoder risks as the horizon grows.

No limiting constants are asserted anywhere; the module produces trajectories
and checks inequalities that must hold sample by sample.  Replicate r always
uses seed ``seed + r``, so runs are reproducible and horizons share common
random numbers.

Replicates of one horizon are sampled, smoothed and decoded in groups, each
as one batch.  A group holds at most ``_GROUP_CELLS // (T * K)`` replicates
(and at least one), half that when a decoder reads window posteriors
(``rabiner:k``, k >= 2), which bounds the memory its (replicate, position,
state) tables take; the results do not depend on the group size.  A study
parses its tags once.  A group's summaries keep the likelihood and smoothed
tables, and the forward and backward tables only for window posteriors.  A
group's lattice decoders share one max-sum call, which reads each decoder's
gains over the whole group window by window, and each decoder's paths are
scored in one call, as uint8 labels at K <= 255.  ``_GROUP_CELLS`` is 80,000:
a group of 20 at T = 2000, K = 2 and five tags that read no windows peaks at
about 2.6 MB (tracemalloc), 4.0 (T, K) float64 tables per replicate; with
``rabiner:2`` a group holds 10, and at T = 2000, K = 32 one replicate.
Horizons must be integers of at least 1; trajectories need at least 2
replicates (for standard deviations) and at least one decoder tag, the gap
sweep at least 1 replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoders import _VITERBI, _decode_group, _kblock, _parse_tag, _summaries
from .lattice import TIE_TOL
from .model import HmmModel, check_horizon, check_integer, read_integer, sample_trajectories
from .risk import RiskReport

METRICS = ("empirical_error",) + RiskReport.FIELDS
_GROUP_CELLS = 80_000


def _mean_sd(values: np.ndarray) -> tuple[float, float]:
    if np.all(np.isfinite(values)):
        return float(values.mean()), float(values.std(ddof=1))
    return float("inf"), float("inf")


@dataclass
class RiskTrajectory:
    """Per-horizon, per-decoder sample means and standard deviations."""

    replicates: int
    records: list[dict]

    def stat(self, horizon: int, decoder: str, metric: str) -> tuple[float, float]:
        for row in self.records:
            if row["horizon"] == horizon and row["decoder_tag"] == decoder and row["metric"] == metric:
                return row["mean"], row["sd"]
        raise KeyError((horizon, decoder, metric))


def _groups(model: HmmModel, horizon: int, replicates: int, seed: int, decoders=()):
    """Yield the first replicate and the seeds of each group of replicates.

    A group whose ``decoders`` read window posteriors keeps twice the (T, K)
    tables per replicate, so it holds half the replicates.  Callers build a
    group's tables inside one function call per group, so they are freed
    before the next group is built.
    """
    size = max(1, _GROUP_CELLS // ((2 if any(d.windows for d in decoders) else 1) * horizon * model.num_states))
    for lo in range(0, replicates, size):
        yield lo, range(seed + lo, seed + min(lo + size, replicates))


def _sample_group(model: HmmModel, horizon: int, seeds, decoders):
    """True paths of one group of replicates and ``_decode_group``'s DecodedPath lists over the summaries
    ``decoders`` read; the observations are freed on return."""
    truths, observations = sample_trajectories(model, horizon, seeds)
    return truths, _decode_group(_summaries(model, observations, decoders), decoders)


def _record_group(values, model, decoders, horizon, seeds, lo) -> None:
    truths, per_decoder = _sample_group(model, horizon, seeds, decoders)
    rows = slice(lo, lo + len(truths))
    for table in values:
        decoded = next(per_decoder)  # the previous list is dropped first; zip would hold it until this call returns
        paths = np.array([path.path for path in decoded], dtype=truths.dtype)
        table["empirical_error"][rows] = (paths != truths).mean(axis=1)
        for name in RiskReport.FIELDS:
            table[name][rows] = [getattr(path.risks, name) for path in decoded]
        del decoded


def _record_name(tag: str) -> str:
    """A parsed tag as the records name it: kblock:k and rabiner:k with k as the integer it reads as, any other as given."""
    head, _, arg = tag.partition(":")
    return f"{head}:{read_integer(arg, 'k')}" if head in ("kblock", "rabiner") else tag


def estimate_risk_trajectories(
    model: HmmModel, decoders, horizons, replicates: int, seed: int
) -> RiskTrajectory:
    """Sample trajectories, decode each with every requested decoder, and
    aggregate the risks over replicates.

    ``decoders`` is a non-empty list of tags understood by resolve_decoder.  For every
    replicate the decoded path is scored both against the posterior (the full
    RiskReport) and against the true sampled path (empirical_error, the
    fraction of misclassified positions).  Records name each decoder by its
    tag, a kblock or rabiner k as the integer it reads as (kblock:2.0 is
    kblock:2).
    """
    if (replicates := check_integer(replicates, "replicates")) < 2:
        raise ValueError("at least 2 replicates are needed for standard deviations")
    horizons = tuple(map(check_horizon, horizons))
    tags = tuple(decoders)
    if not tags:
        raise ValueError("no decoder tags")
    parsed, names = [_parse_tag(tag) for tag in tags], [_record_name(tag) for tag in tags]
    records = []
    for horizon in horizons:
        values = [{metric: np.empty(replicates) for metric in METRICS} for _ in parsed]
        for lo, seeds in _groups(model, horizon, replicates, seed, parsed):
            _record_group(values, model, parsed, horizon, seeds, lo)
        for name, table in zip(names, values):
            for metric in METRICS:
                mean, sd = _mean_sd(table[metric])
                records.append(
                    {
                        "horizon": horizon,
                        "decoder_tag": name,
                        "metric": metric,
                        "mean": mean,
                        "sd": sd,
                        "replicates": replicates,
                    }
                )
    return RiskTrajectory(replicates, records)


def _gap_rows(model, horizon, ks, decoders, seeds, lo) -> list[dict]:
    _, decoded = _sample_group(model, horizon, seeds, decoders)
    base = [d.risks for d in next(decoded)]
    gaps = [[d.risks.rbarinf_posterior - b.rbarinf_posterior for d, b in zip(paths, base)] for paths in decoded]
    rows = []
    for r, (vit, row) in enumerate(zip(base, zip(*gaps)), start=lo):
        for k, gap in zip(ks, row):
            bound = vit.rbar1_posterior / (k - 1)
            if not (-TIE_TOL <= gap <= bound + 1e-9):  # Viterbi's path is optimal within the tie rule's slack
                raise AssertionError(f"gap {gap} outside [{-TIE_TOL}, {bound}] at horizon={horizon} k={k} replicate={r}")
            rows.append({"horizon": horizon, "k": k, "replicate": r, "gap": gap, "bound": bound})
    return rows


def sandwich_constant_sweep(model: HmmModel, horizons, ks, replicates: int, seed: int) -> list[dict]:
    """Realized interpolation gaps against their theoretical envelope.

    For every sampled sequence and every k >= 2, the gap
    rbarinf(k-block path) - rbarinf(viterbi path) must lie in
    [-TIE_TOL, rbar1(viterbi)/(k-1) + 1e-9]; a violation raises AssertionError.
    Returns one row per (horizon, k, replicate).
    """
    ks = [check_integer(k, "k") for k in ks]
    if any(k < 2 for k in ks):
        raise ValueError("the gap bound needs k >= 2")
    if (replicates := check_integer(replicates, "replicates")) < 1:
        raise ValueError("the gap sweep needs at least 1 replicate")
    horizons = tuple(map(check_horizon, horizons))
    decoders = [_VITERBI, *map(_kblock, ks)]
    rows = []
    for horizon in horizons:
        for lo, seeds in _groups(model, horizon, replicates, seed, decoders):
            rows += _gap_rows(model, horizon, ks, decoders, seeds, lo)
    return rows
