"""Command line front end.

Commands: decode, risk, sweep, simulate, paper-example.  All numeric output
uses 12 significant digits, file formats are documented in the io module, and
every run is deterministic given identical inputs and seeds.

Exit codes: 0 success, 2 usage, 3 parse error, 4 missing or unreadable
file, 5 zero evidence, 6 no finite path, 7 k out of range, 8 instance too
large, 9 non-generative model, 10 invalid parameter combination.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import io as hio
from .decoders import _decode_group, _kblock, _parse_tag, _summaries, alpha_interpolation_decode, hybrid_decode
from .decoders import kblock_pvd_decode, viterbi_decode
from .errors import (
    DirectLikelihoodNotGenerativeError,
    InstanceTooLargeError,
    KOutOfRangeError,
    NoFinitePathError,
    ParseError,
    ZeroEvidenceError,
)
from .labelling import label_decode
from .model import read_integer
from .risk import RiskReport, RiskWeights, evaluate_risks, posterior_log_probability
from .sim import estimate_risk_trajectories, sandwich_constant_sweep
from .transform import rescaling_distortion_probe, symbol_by_symbol_decode, transformed_forward_backward
from .worked_example import four_state_model, four_state_observations

_ERROR_CODES = [
    (ParseError, 3),
    (OSError, 4),
    (ZeroEvidenceError, 5),
    (NoFinitePathError, 6),
    (KOutOfRangeError, 7),
    (InstanceTooLargeError, 8),
    (DirectLikelihoodNotGenerativeError, 9),
    (ValueError, 10),
]

SWEEP_COLUMNS = ",".join(("param", "value", "path", "posterior_log_prob", "objective", "admissible", *RiskReport.FIELDS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmmrisk", description="risk-based hidden-path decoders")
    sub = parser.add_subparsers(dest="command", required=True)

    decode = sub.add_parser("decode", help="decode one observation sequence")
    decode.add_argument("--model", required=True)
    decode.add_argument("--obs", required=True)
    decode.add_argument("--labels")
    decode.add_argument("--weights", help="c1,c2,c3,c4")
    decode.add_argument("--beta1", type=float, help="needs --weights (default 0)")
    decode.add_argument("--beta3", type=float, help="needs --weights (default 0)")
    decode.add_argument("--k", help="block length (integer) or 'inf' for Viterbi")
    decode.add_argument("--alpha", type=float)
    decode.add_argument("--q", help="power-transform exponent (>= 1 or 'inf')")
    decode.add_argument("--rescaled", action="store_true", help="needs --q")
    decode.add_argument("--out", required=True, help="path file to write")

    risk = sub.add_parser("risk", help="evaluate the risks of a given path")
    risk.add_argument("--model", required=True)
    risk.add_argument("--obs", required=True)
    risk.add_argument("--path", required=True, help="path file, one state per line")

    sweep = sub.add_parser("sweep", help="sweep k, alpha, or q grids on one instance")
    sweep.add_argument("--model", required=True)
    sweep.add_argument("--obs", required=True)
    sweep.add_argument("--k", help="integer range a..b (b may be 'T') or a comma list")
    sweep.add_argument("--alpha", help="comma list of values in [0, 1]")
    sweep.add_argument("--q", help="comma list of exponents, 'inf' allowed")
    sweep.add_argument("--out", help="CSV output file (default stdout)")

    simulate = sub.add_parser("simulate", help="Monte Carlo risk trajectories")
    simulate.add_argument("--model", required=True)
    simulate.add_argument("--horizons", required=True, help="comma list of horizons")
    simulate.add_argument("--replicates", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--decoders", help="comma list of decoder tags (default viterbi,pmap; not with --k)")
    simulate.add_argument("--k", help="comma list of k >= 2: run the gap sweep instead")
    simulate.add_argument("--out", help="CSV output file (default stdout)")

    example = sub.add_parser("paper-example", help="run the bundled four-state worked example")
    example.add_argument("--A", type=float, default=2.0, help="emission contrast (> 1)")
    return parser


def _parse_weights(text: str, beta1: float | None, beta3: float | None) -> RiskWeights:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--weights needs 4 comma-separated values, got {len(parts)}")
    c1, c2, c3, c4 = (float(p) for p in parts)
    return RiskWeights(c1, c2, c3, c4, beta1=0.0 if beta1 is None else beta1, beta3=0.0 if beta3 is None else beta3)


def _parse_k_range(text: str, horizon: int) -> range | list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        top = horizon if hi.strip().upper() == "T" else read_integer(hi, "k")
        _kblock(top)  # refuses a top too large for a float before the range is built
        if (lo := read_integer(lo, "k")) > top:
            raise ValueError(f"empty k range: {text}")
        if top - lo >= sys.maxsize:  # more k's than a range can count could never all be decoded
            raise ValueError(f"k range too long: {text}")
        return range(lo, top + 1)
    return [read_integer(p, "k") for p in text.split(",")]


def _parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decode_path(args, model, obs, labels):
    """The path ``decode`` writes, its risk report, and its label names (None
    without --labels).  Its summary is window-free (likelihood and smoothed
    tables, then the prior marginals the risks read); the power-transform
    tables are freed before it is built, and the summary when this returns."""
    if args.q is not None:
        path = symbol_by_symbol_decode(transformed_forward_backward(model, obs, float(args.q), rescaled=args.rescaled))
        return path, evaluate_risks(_summaries(model, [obs])[0], path), None
    summary = _summaries(model, [obs])[0]
    names = None
    if labels is not None:
        decoded, names = label_decode(summary, labels, _parse_weights(args.weights, args.beta1, args.beta3))
    elif args.weights is not None:
        decoded = hybrid_decode(summary, _parse_weights(args.weights, args.beta1, args.beta3))
    elif args.k is not None:
        decoded = viterbi_decode(summary) if args.k.lower() == "inf" else kblock_pvd_decode(summary, read_integer(args.k, "k"))
    else:
        decoded = alpha_interpolation_decode(summary, args.alpha)
    return decoded.path, decoded.risks, names


def _cmd_decode(args) -> int:
    model = hio.load_model(args.model)
    obs = hio.load_observations(args.obs, model)
    selectors = [s for s in (args.weights, args.k, args.alpha, args.q) if s is not None]
    if len(selectors) != 1:
        raise ValueError("exactly one of --weights, --k, --alpha, --q must be given")
    if args.rescaled and args.q is None:
        raise ValueError("--rescaled needs --q")
    if (args.beta1 is not None or args.beta3 is not None) and args.weights is None:
        raise ValueError("--beta1 and --beta3 need --weights")
    labels = hio.load_label_map(args.labels, model.num_states) if args.labels else None
    if labels is not None and args.q is not None:
        raise ValueError("--labels cannot be combined with --q")
    if labels is not None and args.weights is None:
        raise ValueError("--labels needs --weights (label-averaged objective)")

    path, report, names = _decode_path(args, model, obs, labels)
    _emit([str(s) for s in path] if names is None else [f"{s} {name}" for s, name in zip(path, names)], args.out)
    sys.stdout.write("\n".join(hio.risk_record_lines(report)) + "\n")
    return 0


def _cmd_risk(args) -> int:
    model = hio.load_model(args.model)
    obs = hio.load_observations(args.obs, model)
    path = hio.load_path(args.path)
    report = evaluate_risks(_summaries(model, [obs])[0], path)
    sys.stdout.write("\n".join(hio.risk_record_lines(report)) + "\n")
    return 0


def _sweep_row(param: str, value, decoded) -> str:
    report = decoded.risks
    return hio.csv_line(
        [
            param,
            value,
            "-".join(str(s) for s in decoded.path),
            -len(decoded.path) * report.rbarinf_posterior,
            decoded.objective,
            decoded.admissible,
            *report.as_dict().values(),
        ]
    )


def _cmd_sweep(args) -> int:
    model = hio.load_model(args.model)
    obs = hio.load_observations(args.obs, model)
    grids = [g for g in (args.k, args.alpha, args.q) if g is not None]
    if len(grids) != 1:
        raise ValueError("exactly one of --k, --alpha, --q must be given")
    if args.q is not None:
        lines = [
            hio.csv_line([row["q"], hio.path_hash(row["plain_path"]), hio.path_hash(row["rescaled_path"]), row["agree"]])
            for row in rescaling_distortion_probe(model, obs, _parse_float_list(args.q))
        ]
        _emit(["q,plain_path_hash,rescaled_path_hash,agree"] + lines, args.out)
        return 0
    summary = _summaries(model, [obs])[0]
    if args.k is not None:
        param, values, decode = "k", _parse_k_range(args.k, summary.horizon), kblock_pvd_decode
    else:
        param, values, decode = "alpha", _parse_float_list(args.alpha), alpha_interpolation_decode
    _emit([SWEEP_COLUMNS] + [_sweep_row(param, value, decode(summary, value)) for value in values], args.out)
    return 0


def _cmd_simulate(args) -> int:
    model = hio.load_model(args.model)
    horizons = [read_integer(h, "horizon") for h in args.horizons.split(",")]
    if args.k is not None and args.decoders is not None:
        raise ValueError("--decoders cannot be combined with --k (the gap sweep decodes viterbi and kblock:k)")
    if args.k is not None:
        ks = [read_integer(k, "k") for k in args.k.split(",")]
        columns = ("horizon", "k", "replicate", "gap", "bound")
        rows = sandwich_constant_sweep(model, horizons, ks, args.replicates, args.seed)
    else:
        tags = [t.strip() for t in ("viterbi,pmap" if args.decoders is None else args.decoders).split(",") if t.strip()]
        columns = ("horizon", "decoder_tag", "metric", "mean", "sd", "replicates")
        rows = estimate_risk_trajectories(model, tags, horizons, args.replicates, args.seed).records
    _emit([",".join(columns)] + [hio.csv_line([row[c] for c in columns]) for row in rows], args.out)
    return 0


def _cmd_paper_example(args) -> int:
    model = four_state_model(args.A)
    obs = four_state_observations()
    parsed = [_parse_tag(tag) for tag in ("viterbi", "pmap", "constrained-pmap", "pvd", "kblock:2", "rabiner:2")]
    summary = _summaries(model, [obs], parsed)[0]
    out = [f"four-state worked example, A = {hio.fmt(args.A)}"]
    out.append(f"{'decoder':<18} {'path':<12} {'p(path|x)':<16} admissible")
    for (decoded,) in _decode_group([summary], parsed):
        posterior = math.exp(posterior_log_probability(summary, decoded.path))
        path_text = "(" + ",".join(str(s) for s in decoded.path) + ")"
        out.append(f"{decoded.decoder_tag:<18} {path_text:<12} {hio.fmt(posterior):<16} {'yes' if decoded.admissible else 'no'}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


_COMMANDS = {
    "decode": _cmd_decode,
    "risk": _cmd_risk,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "paper-example": _cmd_paper_example,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
