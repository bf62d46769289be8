"""On-disk formats: model files, observation files, label maps, and the flat
risk-record / CSV serializations used by the command line tool.

Model file (JSON): keys ``num_states``, ``initial``, ``transition``, and
``emission: {type, params}`` with type one of "categorical" (params: table),
"gaussian" (params: means, variances), "direct" (params: table).

Observation file: one observation per line; a symbol index for categorical
emissions, whitespace-separated finite reals for Gaussian emissions, a row
position for direct-likelihood emissions.

Label file (JSON): ``{"labels": {"1": "A", ...}}``; other keys are ignored.

All numbers are printed with 12 significant digits; +inf serializes as "inf".
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ParseError
from .labelling import LabelMap
from .model import Categorical, DiagonalGaussian, DirectLikelihood, HmmModel, validate_model
from .risk import RiskReport


def fmt(x) -> str:
    """Format one number with 12 significant digits; -0.0 prints as 0."""
    return f"{float(x) + 0.0:.12g}"  # -0.0 + 0.0 is 0.0, and every other number is itself


def path_hash(path) -> str:
    """Stable short digest of a state path."""
    text = "-".join(str(int(s)) for s in path)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


_EMISSIONS = {  # type -> emission class and its params, in the order they are read
    "categorical": (Categorical, ("table",)),
    "gaussian": (DiagonalGaussian, ("means", "variances")),
    "direct": (DirectLikelihood, ("table",)),
}


def model_to_dict(model: HmmModel) -> dict:
    etype = next(t for t, (cls, _) in _EMISSIONS.items() if isinstance(model.emission, cls))
    params = {name: getattr(model.emission, name).tolist() for name in _EMISSIONS[etype][1]}
    return {
        "num_states": model.num_states,
        "initial": model.initial.tolist(),
        "transition": model.transition.tolist(),
        "emission": {"type": etype, "params": params},
    }


def model_from_dict(data: dict) -> HmmModel:
    try:
        num_states = data["num_states"]
        initial = np.asarray(data["initial"], dtype=float)
        transition = np.asarray(data["transition"], dtype=float)
        spec = data["emission"]
        etype = spec["type"]
        params = spec["params"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}") from exc
    if type(num_states) is not int:  # a JSON integer: not 2.0, "2" or true (bool is an int subclass)
        raise ParseError(f"num_states must be an integer, got {json.dumps(num_states)}")
    if not isinstance(etype, str) or etype not in _EMISSIONS:
        raise ParseError(f"unknown emission type {etype!r}")
    cls, names = _EMISSIONS[etype]
    try:
        emission = cls(*(np.asarray(params[name], dtype=float) for name in names))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed emission params: {exc}") from exc
    model = HmmModel(initial=initial, transition=transition, emission=emission)
    if initial.ndim == 1 and model.num_states != num_states:  # validate_model reports a misshapen initial
        raise ParseError(
            f"num_states is {num_states} but the initial distribution has {model.num_states} entries"
        )
    return model


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc


def load_model(path) -> HmmModel:
    """Parse and validate a model file; raises ParseError on any violation."""
    data = _load_json(path)
    try:
        model = model_from_dict(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    violations = validate_model(model)
    if violations:
        raise ParseError(f"{path}: invalid model: " + "; ".join(violations))
    return model


def save_model(model: HmmModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_observations(path, model: HmmModel) -> np.ndarray:
    """Parse an observation file according to the model's emission type."""
    with open(path) as fh:
        lines = [raw.strip() for raw in fh]  # blank lines kept, so that errors can give the file's line number
    if not any(lines):
        raise ParseError(f"{path}: no observations")
    try:
        if not isinstance(model.emission, DiagonalGaussian):
            return np.asarray([int(line) for line in lines if line])
        rows = [[float(x) for x in line.split()] for line in lines if line]
    except ValueError as exc:
        raise ParseError(f"{path}: bad observation line: {exc}") from exc
    numbers = [n for n, line in enumerate(lines, start=1) if line]  # the file's line number of each row
    for number, row in zip(numbers, rows):
        if len(row) != len(rows[0]):
            raise ParseError(
                f"{path}: line {number}: ragged observation rows: {len(row)} values, line {numbers[0]} has {len(rows[0])}"
            )
    out = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if len(bad):
        number = numbers[bad[0]]
        raise ParseError(f"{path}: line {number}: non-finite observation {lines[number - 1]!r}")
    return out[:, 0] if out.shape[1] == 1 else out


def save_observations(obs, path) -> None:
    arr = np.asarray(obs)
    with open(path, "w") as fh:
        if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
            fh.writelines(f"{int(v)}\n" for v in arr)
        else:
            arr2 = arr[:, None] if arr.ndim == 1 else arr
            # repr round-trips binary64 exactly; observation files are inputs
            fh.writelines(" ".join(repr(float(v)) for v in row) + "\n" for row in arr2)


def load_label_map(path, num_states: int) -> LabelMap:
    data = _load_json(path)
    try:
        raw = data["labels"]
        assignment = {int(k): str(v) for k, v in raw.items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"{path}: malformed label map: {exc}") from exc
    if sorted(assignment) != list(range(1, num_states + 1)):
        raise ParseError(f"{path}: label map must cover states 1..{num_states}")
    return LabelMap(assignment)


def load_path(path) -> tuple[int, ...]:
    """Read a state path file: one 1-based state per line (extra columns ignored)."""
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                out.append(int(line.split()[0]))
            except ValueError as exc:
                raise ParseError(f"{path}: bad path line {line!r}") from exc
    if not out:
        raise ParseError(f"{path}: empty path file")
    return tuple(out)


def risk_record_lines(report: RiskReport) -> list[str]:
    """Flat key/value record, one metric per line, in canonical field order."""
    return [f"{name} {fmt(value)}" for name, value in report.as_dict().items()]


def csv_line(values) -> str:
    parts = []
    for v in values:
        if isinstance(v, bool):
            parts.append("true" if v else "false")
        elif isinstance(v, (int, np.integer)):
            parts.append(str(int(v)))
        elif isinstance(v, float):
            parts.append(fmt(v))
        else:
            parts.append(str(v))
    return ",".join(parts)
