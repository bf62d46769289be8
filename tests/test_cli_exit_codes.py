"""Every bad input gets its documented exit code, checked as one property.

The test drives ``cli.main`` in process over the five commands.  Each example
starts from small valid files and argument values and applies at most one
mutation that makes the input invalid: an empty file, a NaN, inf, fractional,
negative or out-of-alphabet token, a ragged row, an observation width that
differs from the model's, a label file that misses a state, an out-of-range
k, q, alpha or contrast, a k too large for a float (up to 400 digits), a
non-finite or negative weight, a weight near the float limit that overflows
the path scores, a horizon or replicate count below its minimum, an empty k
range or tag list, a k range too long to count, an option that no selected
decoder reads (``--decoders`` with the gap sweep included), or an unknown
decoder tag.  The models are a categorical one, one- and two-column Gaussian
ones, and a direct-likelihood one.

A valid example must exit 0 and write nothing to stderr.  A mutated one must
exit with the code documented for its error class and write exactly one
``error: `` line, with no traceback, naming the offending file at most once
and, for a bad line of an observation file, naming that line.  No example may
raise a RuntimeWarning.  Values that argparse would read as an option (a
leading "-" that is not a plain negative number) are never drawn, so every
example reaches the program.
"""

import contextlib
import io
import json
import warnings
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmmrisk.cli import main

from conftest import run_in_process

DOCUMENTED = {0, 2, 3, 4, 5, 6, 7, 8, 9, 10}

CATEGORICAL = {
    "num_states": 2,
    "initial": [0.6, 0.4],
    "transition": [[0.7, 0.3], [0.25, 0.75]],
    "emission": {"type": "categorical", "params": {"table": [[0.8, 0.2], [0.3, 0.7]]}},
}
GAUSSIAN = {
    "num_states": 2,
    "initial": [0.5, 0.5],
    "transition": [[0.9, 0.1], [0.1, 0.9]],
    "emission": {"type": "gaussian", "params": {"means": [[0.0], [1.0]], "variances": [[1.0], [1.0]]}},
}
GAUSSIAN2 = {
    **GAUSSIAN,
    "emission": {"type": "gaussian", "params": {"means": [[0.0, 0.0], [1.0, 1.0]], "variances": [[1.0, 1.0], [1.0, 1.0]]}},
}
DIRECT = {**CATEGORICAL, "emission": {"type": "direct", "params": {"table": [[0.5, 0.2], [0.1, 0.9], [0.3, 0.3], [0.7, 0.4]]}}}
SYMBOLS = ["0", "1", "1", "0", "1", "0"]  # T = 6 over the alphabet {0, 1}
POINTS = ["0.1", "1.2", "-0.3", "0.8"]
POINTS2 = ["0.1 0.2", "1.2 0.9", "-0.3 0.1", "0.8 1.1"]
ROWS = ["0", "1", "2", "3"]  # positions in the direct-likelihood table
STATES = ["1", "2", "2", "1", "2", "1"]
BASE_FILES = {
    "model": json.dumps(CATEGORICAL),
    "gmodel": json.dumps(GAUSSIAN),
    "gmodel2": json.dumps(GAUSSIAN2),
    "dmodel": json.dumps(DIRECT),
    "obs": "\n".join(SYMBOLS) + "\n",
    "gobs": "\n".join(POINTS) + "\n",
    "gobs2": "\n".join(POINTS2) + "\n",
    "dobs": "\n".join(ROWS) + "\n",
    "path": "\n".join(STATES) + "\n",
    "labels": json.dumps({"labels": {"1": "A", "2": "B"}, "beta": 1.0}),
}
# k - 1 weighs the joint term, so a k at or above 2**1024 (no float) exits 7; below 1e300 it decodes
HUGE_K = st.integers(2**1024, 10**400 - 1).map(str)
LARGE_K = st.integers(9, 10**300).map(str)
# a range top that is a float but leaves more k's than a range can count (sys.maxsize on 64-bit builds)
LONG_RANGE_TOP = st.integers(2**63, 10**300).map(str)
# a joint weight of at least 1e308 overflows a score of every sequence of the categorical model, whatever its
# length: at the first position one state scores log 0.6 + log 0.2 or log 0.4 + log 0.3, both below -2.1
OVERFLOWING = st.floats(1e308, 1.7976931348623157e308).map(repr)


@dataclass
class Case:
    """argv with ``{name}`` placeholders for the files, the exit code it must
    give, the file contents that replace the valid ones, and the file and line
    number the error line must name."""

    argv: list
    code: int = 0
    files: dict = field(default_factory=dict)
    bad_file: str | None = None
    line: int | None = None


def _text(x: float) -> str:
    return f"{x:.4f}"


def _replace_line(lines, index, token):
    return "\n".join(lines[:index] + [token] + lines[index + 1 :]) + "\n"


weight = st.floats(0.0, 4.0).map(_text)
coefficient = st.one_of(weight, st.floats(4.0, 1e300).map(repr))
unit = st.floats(0.0, 1.0).map(_text)
bad_unit = st.one_of(st.floats(1.001, 9.0).map(_text), st.integers(-9, -1).map(str), st.sampled_from(["nan", "inf"]))
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"])


@st.composite
def decode_cases(draw):
    argv = ["decode", "--model", "{model}", "--obs", "{obs}", "--out", "{out}"]
    kind = draw(st.sampled_from(["k", "alpha", "q", "weights", "labels"]))
    valid = draw(
        {
            "k": st.one_of(st.integers(1, 8).map(str), LARGE_K, st.just("inf")).map(lambda k: ["--k", k]),
            "alpha": unit.map(lambda alpha: ["--alpha", alpha]),
            "q": st.one_of(st.floats(1.0, 8.0).map(_text), st.just("inf")).map(lambda q: ["--q", q]),
            "weights": st.tuples(st.lists(coefficient, min_size=3, max_size=3), weight, weight).map(
                lambda w: ["--weights", ",".join(["1.0", *w[0]]), "--beta1", w[1], "--beta3", w[2]]
            ),
            "labels": st.just(["--weights", "1,1,0,0", "--labels", "{labels}"]),
        }[kind]
    )
    mutation = draw(st.sampled_from(["none", "selector", "obs", "model", "missing", "two selectors", "stray option"]))
    if mutation == "none":
        return Case(argv + valid)
    if mutation == "stray option":
        # an option that no selected decoder reads: --rescaled belongs to --q, --beta1 and --beta3 to --weights
        beta = [draw(st.sampled_from(["--beta1", "--beta3"])), draw(st.one_of(weight, st.sampled_from(["nan", "inf"])))]
        strays = {"q": [beta], "weights": [["--rescaled"]], "labels": [["--rescaled"]]}.get(kind, [beta, ["--rescaled"]])
        return Case(argv + valid + draw(st.sampled_from(strays)), 10)
    if mutation == "obs":
        token, code = draw(st.sampled_from([("nan", 3), ("inf", 3), ("1.5", 3), ("x", 3), ("-1", 10), ("2", 10)]))
        text = _replace_line(SYMBOLS, draw(st.integers(0, len(SYMBOLS) - 1)), token)
        text = draw(st.sampled_from([text, "", "\n\n"]))
        return Case(argv + valid, 3 if not text.strip() else code, {"obs": text}, "obs")
    if mutation == "model":
        bad = json.loads(BASE_FILES["model"])
        bad["transition"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = float(draw(non_finite))
        return Case(argv + valid, 3, {"model": json.dumps(bad)}, "model")
    if mutation == "missing":
        return Case([a.replace("{obs}", "{missing}") for a in argv] + valid, 4)
    if mutation == "two selectors":
        return Case(argv + valid + ["--alpha", "0.5"] if kind != "alpha" else argv + valid + ["--k", "2"], 10)
    if kind == "k":
        return Case(argv + ["--k", draw(st.one_of(st.integers(-3, 0).map(str), HUGE_K))], 7)
    if kind == "alpha":
        return Case(argv + ["--alpha", draw(bad_unit)], 10)
    if kind == "q":
        return Case(argv + ["--q", draw(st.one_of(st.floats(0.0, 0.999).map(_text), st.just("nan")))], 10)
    if kind == "labels":
        return draw(st.sampled_from([
            Case(argv + ["--q", "2", "--labels", "{labels}"], 10),
            Case(argv + valid, 3, {"labels": json.dumps({"labels": {"1": "A"}})}, "labels"),
            Case(argv + ["--weights", f"1,{draw(OVERFLOWING)},0,0", "--labels", "{labels}"], 10),
        ]))
    # a non-finite, negative or overflowing weight, or a non-finite or negative exponent; a negative value
    # never leads an argument
    slot = draw(st.integers(0, 5))
    bad = draw(st.sampled_from(["nan", "inf", "-2"] if slot else ["nan", "inf"]))
    if slot == 1 and draw(st.booleans()):
        bad = draw(OVERFLOWING)
    parts = valid[1].split(",") + [valid[3], valid[5]]
    parts[slot] = bad
    return Case(argv + ["--weights", ",".join(parts[:4]), "--beta1", parts[4], "--beta3", parts[5]], 10)


@st.composite
def gaussian_decode_cases(draw):
    two = draw(st.booleans())
    model, obs, points = ("gmodel2", "gobs2", POINTS2) if two else ("gmodel", "gobs", POINTS)
    argv = ["decode", "--model", f"{{{model}}}", "--obs", f"{{{obs}}}", "--k", draw(st.sampled_from(["1", "2", "3"])),
            "--out", "{out}"]
    index = draw(st.integers(0, len(points) - 1))
    mutation = draw(st.sampled_from(["none", "non-finite", "ragged", "width"]))
    if mutation == "none":
        return Case(argv)
    if mutation == "width":  # every row one column short of or beyond the model's dimension
        return Case(argv, 10, {obs: "\n".join(POINTS2 if not two else POINTS) + "\n"})
    if mutation == "non-finite":
        row = points[index].split()
        row[draw(st.integers(0, len(row) - 1))] = draw(non_finite)
        return Case(argv, 3, {obs: _replace_line(points, index, " ".join(row))}, obs, index + 1)
    index = max(index, 1)  # the first row sets the width
    return Case(argv, 3, {obs: _replace_line(points, index, "0.5" if two else "0.5 0.5")}, obs, index + 1)


@st.composite
def direct_cases(draw):
    """A direct-likelihood model: observations are rows of its table, and it cannot be sampled."""
    if draw(st.booleans()):
        return Case(["simulate", "--model", "{dmodel}", "--horizons", "3", "--replicates", "2"], 9)
    argv = ["decode", "--model", "{dmodel}", "--obs", "{dobs}", "--k", draw(st.sampled_from(["1", "2", "inf"])),
            "--out", "{out}"]
    token, code = draw(st.sampled_from([(None, 0), ("4", 10), ("-1", 10), ("1.5", 3), ("x", 3)]))
    if token is None:
        return Case(argv)
    return Case(argv, code, {"dobs": _replace_line(ROWS, draw(st.integers(0, len(ROWS) - 1)), token)}, "dobs")


@st.composite
def risk_cases(draw):
    argv = ["risk", "--model", "{model}", "--obs", "{obs}", "--path", "{path}"]
    index = draw(st.integers(0, len(STATES) - 1))
    token, code = draw(st.sampled_from([(None, 0), ("0", 10), ("3", 10), ("1.5", 3), ("x", 3), ("", 10), ("empty", 3)]))
    if token is None:
        return Case(argv)
    text = "" if token == "empty" else _replace_line(STATES, index, token)  # "" drops a state: length 5
    return Case(argv, code, {"path": text}, "path")


@st.composite
def sweep_cases(draw):
    argv = ["sweep", "--model", "{model}", "--obs", "{obs}"]
    grid = draw(st.sampled_from(["k", "alpha", "q"]))
    if not draw(st.booleans()):
        lo = draw(st.integers(1, 6))
        value = {
            "k": f"{lo}..{draw(st.sampled_from([str(lo + 1), 'T']))}",
            "alpha": ",".join(draw(st.lists(unit, min_size=1, max_size=3))),
            "q": ",".join(draw(st.lists(st.floats(1.0, 6.0).map(_text), min_size=1, max_size=3))),
        }[grid]
        return Case(argv + [f"--{grid}", value])
    if grid == "k":
        lo = draw(st.integers(2, 8))
        below = draw(st.sampled_from([str(lo - 1), "T"] if lo > 6 else [str(lo - 1)]))  # T = 6
        return draw(st.sampled_from([
            Case(argv + ["--k", f"0..{draw(st.integers(0, 6))}"], 7),
            Case(argv + ["--k", f"1..{draw(HUGE_K)}"], 7),
            Case(argv + ["--k", f"1..{draw(LONG_RANGE_TOP)}"], 10),
            Case(argv + ["--k", f"2,{draw(HUGE_K)}"], 7),
            Case(argv + ["--k", f"{lo}..{below}"], 10),
        ]))
    if grid == "alpha":
        return Case(argv + ["--alpha", f"0.5,{draw(bad_unit)}"], 10)
    return Case(argv + draw(st.sampled_from([["--q", "2,0.5"], ["--q", "nan"], []])), 10)


TAGS = ["viterbi", "pmap", "pvd", "constrained-pmap", "kblock:2", "alpha:0.5", "rabiner:1", "weights:1/0.5/0/0.2"]


@st.composite
def simulate_cases(draw):
    horizons = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    argv = ["simulate", "--model", "{model}", "--seed", str(draw(st.integers(0, 99)))]
    gap = draw(st.booleans())
    tail = ["--k", ",".join(draw(st.lists(st.sampled_from(["2", "3", "4"]), min_size=1, max_size=2)))] if gap else [
        "--decoders", ",".join(draw(st.lists(st.sampled_from(TAGS), min_size=1, max_size=3)))
    ]
    replicates = draw(st.integers(1 if gap else 2, 3))
    mutation = draw(st.sampled_from(["none", "horizon", "replicates", "tag"] + (["decoders"] if gap else ["no tags"])))
    code = 10
    if mutation == "horizon":
        horizons.append(draw(st.integers(-3, 0)))
    elif mutation == "replicates":
        replicates = draw(st.integers(-2, 0 if gap else 1))
    elif mutation == "decoders":  # the gap sweep decodes viterbi and kblock:k only
        tail += ["--decoders", draw(st.sampled_from(TAGS + ["nonsense-tag", ""]))]
    elif mutation == "tag" and gap:
        tail, code = draw(st.sampled_from([(["--k", "1"], 10), (["--k", f"2,{draw(HUGE_K)}"], 7)]))
    elif mutation == "tag":
        bad, code = draw(st.sampled_from([("foo", 10), ("kblock", 10), ("kblock:0", 7), ("alpha:2", 10),
                                          ("weights:1/0/0/nan", 10), ("weights:1/0/0/0/inf/0", 10),
                                          (f"kblock:{draw(HUGE_K)}", 7), (f"weights:1/{draw(OVERFLOWING)}/0/0", 10)]))
        tail = ["--decoders", f"viterbi,{bad}"]
    elif mutation == "no tags":
        tail = ["--decoders", draw(st.sampled_from([",", "", " , "]))]
    else:
        code = 0
    return Case(argv + ["--horizons", ",".join(map(str, horizons)), "--replicates", str(replicates)] + tail, code)


paper_cases = st.one_of(
    st.floats(1.01, 1e6).map(lambda a: Case(["paper-example", "--A", repr(a)])),
    st.sampled_from(["1", "0.5", "0", "-2", "nan", "inf"]).map(lambda a: Case(["paper-example", "--A", a], 10)),
)

cases = st.one_of(
    decode_cases(), gaussian_decode_cases(), direct_cases(), risk_cases(), sweep_cases(), simulate_cases(), paper_cases
)


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-exit-codes")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=150, deadline=None)
@example(Case(["decode", "--model", "{model}", "--obs", "{obs}", "--weights", "1,0,0,nan", "--out", "{out}"], 10))
@example(Case(["decode", "--model", "{model}", "--obs", "{obs}", "--weights", "1,0,0,0", "--beta1", "nan",
               "--out", "{out}"], 10))
@example(Case(["paper-example", "--A", "inf"], 10))
@example(Case(["decode", "--model", "{model}", "--obs", "{obs}", "--k", str(10**399), "--out", "{out}"], 7))
@example(Case(["decode", "--model", "{model}", "--obs", "{obs}", "--k", str(10**308), "--out", "{out}"], 10))
@example(Case(["sweep", "--model", "{model}", "--obs", "{obs}", "--k", f"1..{10**399}"], 7))
@example(Case(["simulate", "--model", "{model}", "--horizons", "3", "--replicates", "2", "--k", str(10**399)], 7))
@example(Case(["simulate", "--model", "{model}", "--horizons", "3", "--replicates", "2",
               "--decoders", f"kblock:{10**399}"], 7))
@example(Case(["sweep", "--model", "{model}", "--obs", "{obs}", "--k", "3..2"], 10))
@example(Case(["sweep", "--model", "{model}", "--obs", "{obs}", "--k", f"1..{10**20}"], 10))
@example(Case(["simulate", "--model", "{model}", "--horizons", "5", "--replicates", "2", "--k", "2",
               "--decoders", "nonsense-tag"], 10))
@example(Case(["simulate", "--model", "{model}", "--horizons", "3", "--replicates", "2", "--decoders", ","], 10))
@example(Case(["decode", "--model", "{model}", "--obs", "{obs}", "--weights", "1e308,1e308,0,0", "--out", "{out}"], 10))
@example(Case(["decode", "--model", "{model}", "--obs", "{obs}", "--weights", "1e300,1,0,1", "--out", "{out}"]))
@example(Case(["decode", "--model", "{gmodel}", "--obs", "{gobs}", "--k", "2", "--out", "{out}"], 3,
              {"gobs": "0.1\n1.2\n0.5 0.5\n0.8\n"}, "gobs", 3))
@given(cases)
def test_every_exit_code_is_documented_with_one_error_line(base_dir, case):
    paths = {name: str(base_dir / name) for name in [*BASE_FILES, "out", "missing"]}
    for name, text in {**BASE_FILES, **case.files}.items():
        (base_dir / name).write_text(text)
    argv = [arg.format(**paths) for arg in case.argv]
    code, err, runtime_warnings = run_main(argv)
    assert code in DOCUMENTED
    assert code == case.code, (argv, err)
    assert not runtime_warnings, [str(w.message) for w in runtime_warnings]
    if code == 0:
        assert err == ""
        return
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    if case.bad_file is not None:
        assert err.count(paths[case.bad_file]) <= 1, err
    if case.line is not None:
        assert f"line {case.line}:" in err, err


SIMULATE = ["simulate", "--model", "{model}", "--replicates", "2", "--horizons"]


@pytest.mark.parametrize(
    "argv, what",
    [
        (["decode", "--model", "{model}", "--obs", "{obs}", "--out", "{out}", "--k", "{}"], "k"),
        (["sweep", "--model", "{model}", "--obs", "{obs}", "--k", "{}..3"], "k"),
        (["sweep", "--model", "{model}", "--obs", "{obs}", "--k", "3,{}"], "k"),
        ([*SIMULATE, "3,{}"], "horizon"),
        ([*SIMULATE, "3", "--k", "{}"], "k"),
        ([*SIMULATE, "3", "--decoders", "kblock:{}"], "k"),
        ([*SIMULATE, "3", "--decoders", "kblock:2,kblock:{}"], "k"),  # one decoder, one name in one CSV
        ([*SIMULATE, "3", "--decoders", "rabiner:{}"], "k"),
    ],
)
def test_integer_options_follow_the_integer_rule(base_dir, argv, what):
    """Each integer option and tag argument reads its text by the library's integer rule: 2.0 is 2 (a tag's
    rows are named with the integer), and 2.5, x, nan or 1e999 exits 10 naming its text, not as int()'s
    "invalid literal" or as the float it reads as."""
    paths = {name: str(base_dir / name) for name in [*BASE_FILES, "out"]}
    for name, text in BASE_FILES.items():
        (base_dir / name).write_text(text)

    def run(value):
        return run_in_process([arg.format(value, **paths) for arg in argv], base_dir / "out")

    assert run("2.0") == (integral := run("2")) and integral[0] == 0
    for bad in ("2.5", "x", "nan", "1e999"):
        assert run(bad) == (10, "", f"error: {what} must be an integer, got {bad}\n", None)


@pytest.mark.parametrize("option", ["--replicates", "--seed"])
def test_seed_and_replicates_stay_argparse_integers(option):
    code, err, _ = run_main([*SIMULATE, "3", option, "2.0"])
    assert code == 2 and f"argument {option}: invalid int value: '2.0'" in err
