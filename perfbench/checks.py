"""Output checks, run after each op and outside its timed span.

The checks hold for any correct decoder, whichever optimal path a tie policy
picks: paths are checked for shape and range, for agreement with the ``risk``
command, and against the Viterbi path's joint log-likelihood with a
tolerance of 1e-9 * T; CSV outputs are checked for their rows, columns and the
sandwich bound.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# The simulate CSV's metric column: empirical_error plus every RiskReport field.
SIM_METRICS = (
    "empirical_error",
    "r1_posterior",
    "rbar1_posterior",
    "rinf_posterior",
    "rbarinf_posterior",
    "rbarinf_joint",
    "r1_prior",
    "rbar1_prior",
    "rbarinf_prior",
)
GAP_TOL = 1e-9
JOINT_TOL_PER_STEP = 1e-9


def run_cli(main, argv) -> tuple[int, str, str]:
    """Call the CLI entry point in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _csv(path: str) -> tuple[str, list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def _not_nan(text: str) -> bool:
    return not math.isnan(float(text))


class Checker:
    """Checks op outputs.  Results that depend only on an output's bytes (the
    ``risk`` record and joint log-likelihood of a path) are computed once per
    distinct output and reused when a later repetition writes the same path."""

    def __init__(self):
        import hmmrisk
        import hmmrisk.cli
        import hmmrisk.io

        self.hr = hmmrisk
        self._path_facts: dict = {}
        self._summaries: dict = {}
        self._reference_joint: dict = {}

    def check(self, op, stdout: str) -> list[str]:
        """Return the problems found in ``op``'s output; empty means it passed."""
        try:
            return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, stdout)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _summary(self, model_file: str, obs_file: str):
        key = (model_file, obs_file)
        if key not in self._summaries:
            model = self.hr.io.load_model(model_file)
            self._summaries[key] = self.hr.forward_backward(model, self.hr.io.load_observations(obs_file, model))
        return self._summaries[key]

    def _check_decode(self, op, stdout: str) -> list[str]:
        exp = op.expect
        model_file, obs_file = exp["model"], exp["obs"]
        rows = [line.split() for line in Path(op.out).read_text().splitlines()]
        path = tuple(int(row[0]) for row in rows)
        problems = []
        if len(path) != exp["horizon"]:
            problems.append(f"path has {len(path)} states, expected T={exp['horizon']}")
        if any(not 1 <= s <= exp["states"] for s in path):
            problems.append(f"path has a state outside 1..{exp['states']}")
        if "labels" in exp and any(row[1:] != [exp["labels"][row[0]]] for row in rows):
            problems.append("a label does not match the label map")
        if problems:
            return problems

        key = (model_file, obs_file, path)
        if key not in self._path_facts:
            code, record, err = run_cli(
                self.hr.cli.main, ["risk", "--model", model_file, "--obs", obs_file, "--path", op.out]
            )
            if code != 0:
                return [f"risk command exited {code}: {err.strip()}"]
            joint = self.hr.joint_log_likelihood(self._summary(model_file, obs_file), path)
            self._path_facts[key] = (record, joint)
        record, joint = self._path_facts[key]
        if stdout != record:
            problems.append("stdout risk record differs from `hmmrisk risk` on the written path")
        if exp.get("reference"):
            self._reference_joint[(model_file, obs_file)] = joint
        else:
            best = self._reference_joint.get((model_file, obs_file))
            if best is not None and joint > best + JOINT_TOL_PER_STEP * exp["horizon"]:
                problems.append(f"joint log-likelihood {joint!r} beats the --k inf path's {best!r}")
        return problems

    def _check_simulate(self, op, stdout: str) -> list[str]:
        exp = op.expect
        header, rows = _csv(op.out)
        if header != "horizon,decoder_tag,metric,mean,sd,replicates":
            return [f"unexpected header {header!r}"]
        expected = {(h, tag, m) for h in exp["horizons"] for tag in exp["decoders"] for m in SIM_METRICS}
        seen = []
        for row in rows:
            if len(row) != 6 or row[5] != str(exp["replicates"]):
                return [f"malformed row {row}"]
            if not (_not_nan(row[3]) and _not_nan(row[4])):
                return [f"NaN in row {row}"]
            seen.append((int(row[0]), row[1], row[2]))
        if sorted(seen) != sorted(expected):
            return [f"rows do not cover horizons x decoders x metrics once each ({len(seen)} rows)"]
        return []

    def _check_gap(self, op, stdout: str) -> list[str]:
        exp = op.expect
        header, rows = _csv(op.out)
        if header != "horizon,k,replicate,gap,bound":
            return [f"unexpected header {header!r}"]
        expected = {(h, k, r) for h in exp["horizons"] for k in exp["ks"] for r in range(exp["replicates"])}
        seen = []
        for row in rows:
            if len(row) != 5:
                return [f"malformed row {row}"]
            gap, bound = float(row[3]), float(row[4])
            if not 0.0 <= gap <= bound + GAP_TOL:
                return [f"gap outside [0, bound + {GAP_TOL}] in row {row}"]
            seen.append((int(row[0]), int(row[1]), int(row[2])))
        if sorted(seen) != sorted(expected):
            return [f"rows do not cover horizons x k x replicates once each ({len(seen)} rows)"]
        return []

    def _check_sweep_q(self, op, stdout: str) -> list[str]:
        header, rows = _csv(op.out)
        if header != "q,plain_path_hash,rescaled_path_hash,agree":
            return [f"unexpected header {header!r}"]
        if [float(row[0]) for row in rows] != op.expect["qs"]:
            return ["rows do not list the requested q values in order"]
        for row in rows:
            hashes_ok = all(len(h) == 12 and all(c in "0123456789abcdef" for c in h) for h in row[1:3])
            if len(row) != 4 or not hashes_ok or row[3] != ("true" if row[1] == row[2] else "false"):
                return [f"malformed row {row}"]
        return []
