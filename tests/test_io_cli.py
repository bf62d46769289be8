import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk import cli, decoders, inference
from hmmrisk import io as hio
from hmmrisk.cli import main
from hmmrisk.decoders import kblock_pvd_decode
from hmmrisk.errors import KOutOfRangeError, ParseError

from conftest import random_categorical_model, run_in_process, write_model, write_observations


DOC = {  # a 2-state categorical model document
    "num_states": 2,
    "initial": [0.6, 0.4],
    "transition": [[0.7, 0.3], [0.25, 0.75]],
    "emission": {"type": "categorical", "params": {"table": [[0.8, 0.2], [0.3, 0.7]]}},
}


@pytest.fixture
def workdir(tmp_path):
    """A model/observation pair on disk (the model of DOC, T=12)."""
    model_path, obs_path = tmp_path / "model.json", tmp_path / "obs.txt"
    model_path.write_text(json.dumps(DOC))
    model = hio.load_model(model_path)
    _, obs = hr.sample_trajectory(model, 12, seed=5)
    write_observations(obs, obs_path)
    return tmp_path, model, obs, str(model_path), str(obs_path)


@pytest.fixture
def files(workdir):
    """The --model and --obs options that name the workdir files."""
    _, _, _, model_path, obs_path = workdir
    return ["--model", model_path, "--obs", obs_path]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decode_document(capsys, tmp_path, doc):
    """The model file and the outcome of decoding three symbols with the model document ``doc``."""
    model, obs = tmp_path / "model.json", tmp_path / "obs.txt"
    model.write_text(json.dumps(doc))
    obs.write_text("0\n1\n0\n")
    return model, run_cli(capsys, "decode", "--model", str(model), "--obs", str(obs), "--k", "2", "--out", str(tmp_path / "p.txt"))


class TestModelFiles:
    def test_round_trip_categorical(self, tmp_path):
        rng = np.random.default_rng(311)
        model = random_categorical_model(rng, zero_frac=0.3)
        path = tmp_path / "m.json"
        write_model(model, path)
        loaded = hio.load_model(path)
        np.testing.assert_array_equal(loaded.initial, model.initial)
        np.testing.assert_array_equal(loaded.transition, model.transition)
        np.testing.assert_array_equal(loaded.emission.table, model.emission.table)

    def test_round_trip_gaussian_and_direct(self, tmp_path):
        gauss = hr.HmmModel(
            [0.5, 0.5],
            [[0.9, 0.1], [0.2, 0.8]],
            hr.DiagonalGaussian([[0.0], [2.0]], [[1.0], [0.5]]),
        )
        direct = hr.four_state_model(2.0)
        for name, model in (("g.json", gauss), ("d.json", direct)):
            path = tmp_path / name
            write_model(model, path)
            loaded = hio.load_model(path)
            assert type(loaded.emission) is type(model.emission)

    @pytest.mark.parametrize(
        "emission, text",
        [
            (
                hr.Categorical([[0.25, 0.75]]),
                '  "type": "categorical",\n  "params": {\n   "table": [\n    [\n     0.25,\n     0.75\n    ]\n   ]\n',
            ),
            (
                hr.DiagonalGaussian([[0.5]], [[2.0]]),
                '  "type": "gaussian",\n  "params": {\n   "means": [\n    [\n     0.5\n    ]\n   ],\n'
                '   "variances": [\n    [\n     2.0\n    ]\n   ]\n',
            ),
            (
                hr.DirectLikelihood([[0.1], [0.3]]),
                '  "type": "direct",\n  "params": {\n   "table": [\n    [\n     0.1\n    ],\n    [\n     0.3\n    ]\n   ]\n',
            ),
        ],
    )
    def test_indented_model_documents(self, tmp_path, emission, text):
        path = tmp_path / "m.json"
        head = '{\n "num_states": 1,\n "initial": [\n  1.0\n ],\n "transition": [\n  [\n   1.0\n  ]\n ],\n "emission": {\n'
        path.write_text(head + text + "  }\n }\n}\n")
        assert type(hio.load_model(path).emission) is type(emission)

    @pytest.mark.parametrize(
        "etype, params, message",
        [
            ("categorical", {}, "malformed emission params: 'table'"),
            ("direct", {"tables": [[1.0]]}, "malformed emission params: 'table'"),
            ("gaussian", {"variances": [[1.0]]}, "malformed emission params: 'means'"),
            ("gaussian", {"means": [[0.0]]}, "malformed emission params: 'variances'"),
            ("gaussian", {}, "malformed emission params: 'means'"),
            ("poisson", {"table": [[1.0]]}, "unknown emission type 'poisson'"),
        ],
    )
    def test_emission_param_errors(self, tmp_path, etype, params, message):
        doc = {"num_states": 1, "initial": [1.0], "transition": [[1.0]], "emission": {"type": etype, "params": params}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            hio.load_model(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "change",
        [
            {"emission": {"type": [], "params": {}}},
            {"emission": {"type": {}, "params": {}}},
            {"num_states": 1, "initial": [[1.0]], "transition": [[1.0]]},
            {"initial": 1.0},
            {"emission": {"type": "categorical", "params": {"table": 1.0}}},
            {"emission": {"type": "direct", "params": {"table": [1.0]}}},
            {"emission": {"type": "gaussian", "params": {"means": [[[0.0]], [[1.0]]], "variances": [[[1.0]], [[1.0]]]}}},
            {"emission": {"type": "gaussian", "params": {"means": [[[0.0]]], "variances": [[[1.0]]]}}},
        ],
    )
    def test_misshapen_documents_exit_3(self, tmp_path, capsys, change):
        doc = {**DOC, **change}
        model, (code, _, err) = decode_document(capsys, tmp_path, doc)
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        if not isinstance(doc["emission"]["type"], str):  # an unknown type is named as every unknown type is
            assert err == f"error: {model}: unknown emission type {doc['emission']['type']!r}\n"
        else:
            assert err.startswith(f"error: {model}: invalid model: ") and "dimensional, got shape" in err, err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"num_states": 0, "initial": [], "transition": []}, "invalid model: initial distribution is empty"),
            ({"transition": [[1.0, 0.0]]}, "invalid model: transition matrix shape (1, 2) does not match 2 states"),
            (
                {"emission": {"type": "categorical", "params": {"table": [[0.5, 0.5]] * 3}}},
                "invalid model: emission is specified for 3 states, model has 2",
            ),
            (
                {"emission": {"type": "gaussian", "params": {"means": [[0.0], [1.0]], "variances": [[1.0, 1.0], [1.0, 1.0]]}}},
                "invalid model: emission means and variances must have matching shapes",
            ),
            ({"num_states": 3}, "num_states is 3 but the initial distribution has 2 entries"),
        ],
    )
    def test_models_of_mismatched_sizes_exit_3(self, tmp_path, capsys, change, message):
        model, outcome = decode_document(capsys, tmp_path, {**DOC, **change})
        assert outcome == (3, "", f"error: {model}: {message}\n")

    def test_document_errors_name_the_file(self, tmp_path, capsys):
        model, outcome = decode_document(capsys, tmp_path, {key: DOC[key] for key in ("num_states", "initial", "transition")})
        assert outcome == (3, "", f"error: {model}: malformed model document: 'emission'\n")

    @pytest.mark.parametrize("num_states, initial", [(2.9, [0.6, 0.4]), ("2", [0.6, 0.4]), (2.0, [0.6, 0.4]), (True, [1.0])])
    def test_num_states_must_be_a_json_integer(self, capsys, tmp_path, num_states, initial):
        """int() truncated 2.9 and parsed "2", and true read as 1: each decoded a model of that size."""
        size = len(initial)
        doc = {
            "num_states": num_states,
            "initial": initial,
            "transition": np.eye(size).tolist(),
            "emission": {"type": "categorical", "params": {"table": [[0.5, 0.5]] * size}},
        }
        model_path, (code, _, err) = decode_document(capsys, tmp_path, doc)
        assert code == 3
        assert err == f"error: {model_path}: num_states must be an integer, got {json.dumps(num_states)}\n"

    def test_invalid_documents_raise_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            hio.load_model(bad)
        bad.write_text(json.dumps({"num_states": 1}))
        with pytest.raises(ParseError):
            hio.load_model(bad)
        doc = {
            "num_states": 2,
            "initial": [0.5, 0.5],
            "transition": [[0.5, 0.6], [0.5, 0.5]],
            "emission": {"type": "categorical", "params": {"table": [[1.0], [1.0]]}},
        }
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="transition row 1"):
            hio.load_model(bad)

    def test_non_finite_parameters_raise_parse_error(self, tmp_path):
        path = tmp_path / "nan.json"
        models = [
            hr.HmmModel([np.nan, 0.5], np.eye(2), hr.Categorical([[0.5, 0.5], [0.2, 0.8]])),
            hr.HmmModel([0.5, 0.5], np.eye(2), hr.DirectLikelihood([[0.1, np.inf]])),
            hr.HmmModel([0.5, 0.5], np.eye(2), hr.DiagonalGaussian([[np.nan], [1.0]], [[1.0], [1.0]])),
        ]
        for model in models:
            write_model(model, path)  # json writes NaN and Infinity literals, which it reads back
            with pytest.raises(ParseError, match="non-finite"):
                hio.load_model(path)

    def test_observation_parsing(self, tmp_path, workdir):
        _, model, obs, _, obs_path = workdir
        loaded = hio.load_observations(obs_path, model)
        np.testing.assert_array_equal(loaded, obs)
        ragged = tmp_path / "r.txt"
        ragged.write_text("0\nx\n")
        with pytest.raises(ParseError):
            hio.load_observations(ragged, model)

    @pytest.mark.parametrize("means", [[[0.0], [1.0]], [[0.0, 0.0], [1.0, 1.0]]])
    def test_gaussian_observations_round_trip_bit_for_bit(self, tmp_path, means):
        model = hr.HmmModel([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], hr.DiagonalGaussian(means, np.ones_like(means)))
        _, obs = hr.sample_trajectory(model, 20, seed=3)
        obs[:3] = [1 / 3, -0.0, 5e-324] if obs.ndim == 1 else [[1 / 3, 1e300], [-0.0, 0.1], [5e-324, -2.5]]
        path = tmp_path / "obs.txt"
        write_observations(obs, path)
        loaded = hio.load_observations(path, model)
        assert loaded.shape == obs.shape and loaded.tobytes() == obs.tobytes()

    def test_label_file(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": {"1": "A", "2": "B"}, "beta": 0.0}))  # the unread beta key still loads
        labels = hio.load_label_map(path, 2)
        assert labels.names == ("A", "B")
        path.write_text(json.dumps({"labels": {"1": "A"}}))
        with pytest.raises(ParseError):
            hio.load_label_map(path, 2)

    def test_number_formatting(self):
        assert hio.fmt(np.inf) == "inf"
        assert hio.fmt(1 / 3) == "0.333333333333"
        assert hio.fmt(2.0) == "2"
        assert len(hio.fmt(np.pi).replace(".", "").lstrip("0")) <= 12


class TestDecodeAndRisk:
    def test_round_trip_record_is_bit_identical(self, capsys, files, tmp_path):
        out_path = str(tmp_path / "path.txt")
        code, decode_out, _ = run_cli(capsys, "decode", *files, "--weights", "1,1,0,0", "--out", out_path)
        assert code == 0
        code, risk_out, _ = run_cli(capsys, "risk", *files, "--path", out_path)
        assert code == 0
        assert decode_out == risk_out
        assert len(risk_out.strip().splitlines()) == 8

    def test_one_state_records_print_zero_not_negative_zero(self, capsys, tmp_path):
        """The one path of a one-state model has log risks of -0.0, which printed as -0."""
        model_path, obs_path, out_path = tmp_path / "m.json", tmp_path / "o.txt", str(tmp_path / "p.txt")
        write_model(hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.5, 0.5]])), model_path)
        obs_path.write_text("0\n1\n0\n")
        record = (
            "r1_posterior 0\nrbar1_posterior 0\nrinf_posterior 0\nrbarinf_posterior 0\n"
            "rbarinf_joint 0.69314718056\nr1_prior 0\nrbar1_prior 0\nrbarinf_prior 0\n"
        )
        decode = ["decode", "--model", str(model_path), "--obs", str(obs_path), "--k", "2", "--out", out_path]
        assert run_cli(capsys, *decode) == (0, record, "")
        assert run_cli(capsys, "risk", "--model", str(model_path), "--obs", str(obs_path), "--path", out_path) == (0, record, "")
        assert hio.fmt(-0.0) == "0"

    def test_k_inf_is_the_viterbi_alias(self, capsys, files, tmp_path):
        out_a = str(tmp_path / "a.txt")
        out_b = str(tmp_path / "b.txt")
        run_cli(capsys, "decode", *files, "--k", "inf", "--out", out_a)
        run_cli(capsys, "decode", *files, "--weights", "0,1,0,0", "--out", out_b)
        assert open(out_a).read() == open(out_b).read()

    def test_label_output_lines(self, capsys, files, tmp_path):
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"labels": {"1": "hot", "2": "cold"}, "beta": 1.0}))
        out_path = str(tmp_path / "p.txt")
        argv = ["--labels", str(labels_path), "--weights", "1,0.1,0,0", "--beta1", "1", "--out", out_path]
        code, _, _ = run_cli(capsys, "decode", *files, *argv)
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 12
        for line in lines:
            state, label = line.split()
            assert label == ("hot" if state == "1" else "cold")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (json.dumps({"labels": ["hot", "cold"]}), "malformed label map: 'list' object has no attribute 'items'"),
        ],
    )
    def test_malformed_label_files_exit_3(self, capsys, files, tmp_path, text, message):
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(text)
        argv = ["decode", *files, "--labels", str(labels_path), "--weights", "1,1,0,0"]
        assert run_cli(capsys, *argv, "--out", str(tmp_path / "p.txt")) == (3, "", f"error: {labels_path}: {message}\n")

    def test_alpha_selector_decodes_the_interpolated_objective(self, capsys, workdir, tmp_path):
        _, model, obs, model_path, obs_path = workdir
        out_path = tmp_path / "p.txt"
        code, out, err = run_cli(capsys, "decode", "--model", model_path, "--obs", obs_path, "--alpha", "0.5", "--out", str(out_path))
        decoded = hr.alpha_interpolation_decode(hr.forward_backward(model, obs), 0.5)
        assert (code, err) == (0, "")
        assert out_path.read_text() == "".join(f"{s}\n" for s in decoded.path)
        assert out == "\n".join(hio.risk_record_lines(decoded.risks)) + "\n"

    @pytest.mark.parametrize(
        "selector", [["--k", "1"], ["--k", "2"], ["--k", "inf"], ["--weights", "1,1,0,0"], ["--q", "1", "--rescaled"]]
    )
    def test_ruled_out_state_decodes(self, capsys, tmp_path, selector):
        """State 1 can never be entered and the points fit it alone; its
        overflowing backward variable made these exit 6, print nan, or write
        a path through state 1."""
        model = hr.HmmModel([0.0, 1.0], [[0.5, 0.5], [0.0, 1.0]], hr.DiagonalGaussian([[0.0], [30.0]], [[1.0], [1.0]]))
        model_path, obs_path, out_path = tmp_path / "m.json", tmp_path / "o.txt", tmp_path / "p.txt"
        write_model(model, model_path)
        obs_path.write_text("0\n0\n0\n0\n")
        code, out, err = run_cli(
            capsys, "decode", "--model", str(model_path), "--obs", str(obs_path), *selector, "--out", str(out_path)
        )
        assert (code, err) == (0, "")
        assert out_path.read_text() == "2\n2\n2\n2\n"
        assert "nan" not in out

    def test_selector_exclusivity(self, capsys, files, tmp_path):
        code, _, err = run_cli(capsys, "decode", *files, "--k", "2", "--alpha", "0.5", "--out", str(tmp_path / "x.txt"))
        assert code == 10
        assert "exactly one" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--weights", "1,2,3"], "--weights needs 4 comma-separated values, got 3"),
            (["--weights", "1,0,0,0,1"], "--weights needs 4 comma-separated values, got 5"),
            (["--q", "2", "--labels", "{labels}"], "--labels cannot be combined with --q"),
        ],
    )
    def test_bad_option_combinations_exit_10(self, capsys, files, tmp_path, extra, message):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"labels": {"1": "A", "2": "B"}}))
        extra = [arg.format(labels=labels) for arg in extra]
        code, out, err = run_cli(capsys, "decode", *files, *extra, "--out", str(tmp_path / "x.txt"))
        assert (code, out, err) == (10, "", f"error: {message}\n")

    def test_transform_selector(self, capsys, workdir, tmp_path):
        _, model, obs, model_path, obs_path = workdir
        out_path = str(tmp_path / "q.txt")
        code, _, _ = run_cli(
            capsys, "decode", "--model", model_path, "--obs", obs_path, "--q", "1", "--out", out_path
        )
        assert code == 0
        got = tuple(int(line) for line in open(out_path).read().split())
        assert got == hr.pmap_decode(hr.forward_backward(model, obs)).path

    @pytest.mark.parametrize("selector", [["--k", "3"], ["--alpha", "0.5"]])
    def test_labels_without_weights_are_rejected_before_smoothing(
        self, capsys, files, tmp_path, monkeypatch, selector
    ):
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"labels": {"1": "hot", "2": "cold"}}))

        def refuse(*args, **kwargs):
            raise AssertionError("forward_backward ran before the arguments were checked")

        monkeypatch.setattr("hmmrisk.decoders._forward_backward", refuse)
        code, _, err = run_cli(capsys, "decode", *files, "--labels", str(labels_path), *selector, "--out", str(tmp_path / "x.txt"))
        assert code == 10
        assert "--labels needs --weights" in err

    def test_non_finite_model_exit_code(self, capsys, tmp_path):
        model_path, obs_path = tmp_path / "nan.json", tmp_path / "obs.txt"
        model = hr.HmmModel([0.5, 0.5], np.eye(2), hr.DiagonalGaussian([[0.0], [np.nan]], [[1.0], [1.0]]))
        write_model(model, model_path)
        obs_path.write_text("0.1\n0.2\n")
        code, _, err = run_cli(
            capsys, "decode", "--model", str(model_path), "--obs", str(obs_path),
            "--k", "2", "--out", str(tmp_path / "x.txt"),
        )
        assert code == 3
        assert "emission state 2 has a non-finite mean" in err

    def test_missing_file_exit_code(self, capsys, workdir, tmp_path):
        _, _, _, model_path, _ = workdir
        code, _, err = run_cli(
            capsys, "decode", "--model", model_path, "--obs", str(tmp_path / "nope.txt"),
            "--k", "2", "--out", str(tmp_path / "x.txt"),
        )
        assert code == 4
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command in ("decode", "risk", "sweep") for option in ("--model", "--obs")]
        + [("simulate", "--model"), ("decode", "--labels"), ("risk", "--path")]
        + [(command, "--out") for command in ("decode", "sweep", "simulate")],
    )
    def test_a_directory_given_as_a_file_exits_4(self, capsys, workdir, tmp_path, command, option):
        _, _, obs, model_path, obs_path = workdir
        labels, path, out, directory = (str(tmp_path / name) for name in ("labels.json", "path.txt", "x.txt", "dir"))
        Path(labels).write_text(json.dumps({"labels": {"1": "hot", "2": "cold"}}))
        Path(path).write_text("1\n" * len(obs))
        Path(directory).mkdir()
        files = ["--model", model_path, "--obs", obs_path]
        argv = {
            "decode": [*files, "--weights", "1,1,0,0", "--labels", labels, "--out", out],
            "risk": [*files, "--path", path],
            "sweep": [*files, "--k", "1..2", "--out", out],
            "simulate": ["--model", model_path, "--horizons", "5", "--replicates", "2", "--out", out],
        }[command]
        argv = [command, *argv]
        assert run_cli(capsys, *argv)[0] == 0  # the files as given are valid
        argv[argv.index(option) + 1] = str(directory)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_path_file_blank_lines_are_skipped(self, capsys, workdir, tmp_path):
        _, _, obs, model_path, obs_path = workdir
        states = [1 + i % 2 for i in range(len(obs))]
        plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
        plain.write_text("".join(f"{s}\n" for s in states))
        spaced.write_text("\n" + "".join(f"{s}\n  \n" for s in states) + "\n")
        outcomes = [run_cli(capsys, "risk", "--model", model_path, "--obs", obs_path, "--path", str(f)) for f in (plain, spaced)]
        assert outcomes[0][0] == 0 and outcomes[0] == outcomes[1]

    def test_blank_only_path_file_exit_code(self, capsys, files, tmp_path):
        blank = tmp_path / "blank.txt"
        blank.write_text("\n  \n\t\n")
        code, out, err = run_cli(capsys, "risk", *files, "--path", str(blank))
        assert (code, out) == (3, "")
        assert err == f"error: {blank}: empty path file\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["decode", "--k", "3"],
            ["decode", "--k", "inf"],
            ["decode", "--alpha", "0.5"],
            ["decode", "--weights", "1,0.5,0,0.2"],
            ["decode", "--weights", "1,1,0,0", "--labels", "{labels}"],
            ["decode", "--q", "2"],
            ["decode", "--q", "2", "--rescaled"],
            ["risk", "--path", "{path}"],
        ],
        ids=["k=3", "k=inf", "alpha", "weights", "labels", "q=2", "q=2-rescaled", "risk"],
    )
    def test_decode_and_risk_peak_below_five_tables(self, capsys, tmp_path, command):
        """The summary is window-free: it keeps the emission likelihood and
        smoothed tables, and the risks add the prior marginals, so three
        (T, K) tables remain.  The forward-backward pass writes the emission
        into its table row, keeps no forward or backward table and no log
        table, and the power-transform tables are freed before it runs."""
        horizon, num_states = 4000, 8
        model = random_categorical_model(np.random.default_rng(4), num_states=num_states, num_symbols=8)
        path, obs = hr.sample_trajectory(model, horizon, seed=4)
        write_model(model, tmp_path / "m.json")
        write_observations(obs, tmp_path / "o.txt")
        (tmp_path / "labels.json").write_text(json.dumps({"labels": {str(s): "AB"[s % 2] for s in range(1, 9)}}))
        (tmp_path / "path.txt").write_text("".join(f"{s}\n" for s in path))
        files = {"labels": tmp_path / "labels.json", "path": tmp_path / "path.txt"}
        command, *options = (arg.format(**files) for arg in command)
        argv = [command, "--model", str(tmp_path / "m.json"), "--obs", str(tmp_path / "o.txt"), *options]
        argv += ["--out", str(tmp_path / "p.txt")] if command == "decode" else []
        assert run_cli(capsys, *argv)[0] == 0  # warm: imports and first-call caches stay out of the peak
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 5 * horizon * num_states * 8, peak / (horizon * num_states * 8)


class TestSweep:
    def test_k_sweep_monotone_posterior_column(self, capsys, files, tmp_path):
        out_path = str(tmp_path / "sweep.csv")
        code, _, _ = run_cli(capsys, "sweep", *files, "--k", "1..T", "--out", out_path)
        assert code == 0
        rows = open(out_path).read().splitlines()
        header = rows[0].split(",")
        assert rows[1:] and len(rows) == 13
        col = header.index("posterior_log_prob")
        values = [float(r.split(",")[col]) for r in rows[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(values[:-1], values[1:]))

    def test_k_comma_list(self, capsys, files):
        sweep = ["sweep", *files, "--k"]
        code, ranged, _ = run_cli(capsys, *sweep, "2..4")
        assert code == 0
        header, *rows = ranged.splitlines()
        code, listed, _ = run_cli(capsys, *sweep, "2,4")
        assert (code, listed.splitlines()) == (0, [header, rows[0], rows[2]])
        code, single, _ = run_cli(capsys, *sweep, "3")
        assert (code, single.splitlines()) == (0, [header, rows[1]])
        code, out, err = run_cli(capsys, *sweep, "0,2")
        assert (code, out) == (7, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_alpha_sweep(self, capsys, files):
        code, out, _ = run_cli(capsys, "sweep", *files, "--alpha", "0,0.5,1")
        assert code == 0
        assert out.splitlines()[0].startswith("param,value,path,")
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("grids", [[], ["--k", "1..2", "--alpha", "0.5"], ["--alpha", "0.5", "--q", "2"]])
    def test_exactly_one_grid(self, capsys, files, grids):
        code, out, err = run_cli(capsys, "sweep", *files, *grids)
        assert (code, out, err) == (10, "", "error: exactly one of --k, --alpha, --q must be given\n")

    def test_q_sweep_probe_columns(self, capsys, files):
        code, out, _ = run_cli(capsys, "sweep", *files, "--q", "1,2,inf")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,plain_path_hash,rescaled_path_hash,agree"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] in {"true", "false"}
        assert first[1] == first[2]  # q=1 rows agree


class TestSimulateCommand:
    def test_trajectory_csv(self, capsys, workdir, tmp_path):
        _, _, _, model_path, _ = workdir
        out_path = str(tmp_path / "sim.csv")
        code, _, _ = run_cli(
            capsys, "simulate", "--model", model_path, "--horizons", "30,60",
            "--replicates", "4", "--seed", "9", "--out", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert lines[0] == "horizon,decoder_tag,metric,mean,sd,replicates"
        assert len(lines) == 1 + 2 * 2 * 9  # horizons x decoders x metrics

    def test_sandwich_csv(self, capsys, workdir):
        _, _, _, model_path, _ = workdir
        code, out, _ = run_cli(
            capsys, "simulate", "--model", model_path, "--horizons", "40",
            "--replicates", "3", "--seed", "2", "--k", "2,4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "horizon,k,replicate,gap,bound"
        assert len(lines) == 1 + 3 * 2

    def test_inadmissible_pmap_paths_give_infinite_means(self, capsys, tmp_path):
        # 1 -> 1 is forbidden, and symbol 0 comes from state 1 only: pmap can pick state 1 twice in a row
        model = hr.HmmModel(
            [0.3, 0.4, 0.3],
            [[0.0, 0.9, 0.1], [0.6, 0.1, 0.3], [0.7, 0.1, 0.2]],
            hr.Categorical([[0.5, 0.5], [0.0, 1.0], [0.0, 1.0]]),
        )
        model_path = tmp_path / "model.json"
        write_model(model, model_path)
        argv = ["simulate", "--model", str(model_path), "--horizons", "8", "--replicates", "3", "--seed", "1", "--decoders", "pmap"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        rows = {line.split(",")[2]: line for line in out.splitlines()[1:]}
        for metric in ("rbarinf_posterior", "rbarinf_joint", "rbarinf_prior"):
            assert rows[metric] == f"8,pmap,{metric},inf,inf,3"
        assert rows["r1_posterior"] == "8,pmap,r1_posterior,0.327145400833,0.246663685134,3"

    def test_not_generative_exit_code(self, capsys, tmp_path):
        model_path = tmp_path / "direct.json"
        write_model(hr.four_state_model(2.0), model_path)
        code, _, err = run_cli(
            capsys, "simulate", "--model", str(model_path), "--horizons", "10", "--replicates", "2"
        )
        assert code == 9
        assert "error:" in err


class TestPaperExample:
    def test_golden_table(self, capsys):
        code, out, _ = run_cli(capsys, "paper-example")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "four-state worked example, A = 2"
        table = {}
        for line in lines[2:]:
            tokens = line.split()
            path = next(tok for tok in tokens if tok.startswith("("))
            table[" ".join(tokens[: tokens.index(path)])] = (path, tokens[-1])
        assert table["viterbi"] == ("(2,1,2,2)", "yes")
        assert table["pmap"] == ("(2,1,1,2)", "no")
        assert table["kblock k=2"] == ("(2,1,4,2)", "yes")
        assert table["rabiner k=2"] == ("(2,1,1,2)", "no")
        assert table["constrained-pmap"] == ("(2,1,4,2)", "yes")
        assert table["pvd"] == ("(2,1,4,2)", "yes")

    def test_contrast_must_exceed_one(self, capsys):
        code, _, err = run_cli(capsys, "paper-example", "--A", "1.0")
        assert code == 10
        assert "error:" in err


def assert_one_error_line(err):
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


class TestBadCountsAndNonFiniteInputs:
    """Each repro gives its library exception and its documented exit code,
    with exactly one error line."""

    def gaussian_files(self, tmp_path, text):
        model = hr.HmmModel([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], hr.DiagonalGaussian([[0.0], [1.0]], [[1.0], [1.0]]))
        model_path, obs_path = tmp_path / "g.json", tmp_path / "g.txt"
        write_model(model, model_path)
        obs_path.write_text(text)
        return model, str(model_path), str(obs_path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_gaussian_observation_is_a_parse_error(self, capsys, tmp_path, token):
        model, model_path, obs_path = self.gaussian_files(tmp_path, f"0.1\n\n0.5\n{token}\n0.2\n")
        with pytest.raises(ParseError, match=f"line 4: non-finite observation '{token}'"):
            hio.load_observations(obs_path, model)
        code, _, err = run_cli(capsys, "decode", "--model", model_path, "--obs", obs_path, "--k", "3",
                               "--out", str(tmp_path / "p.txt"))
        assert code == 3
        assert_one_error_line(err)
        assert "line 4" in err

    def test_finite_gaussian_rows_still_parse(self, tmp_path):
        model, _, obs_path = self.gaussian_files(tmp_path, "0.1\n\n-2.5\n1e300\n")
        np.testing.assert_array_equal(hio.load_observations(obs_path, model), [0.1, -2.5, 1e300])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("far", ["1e200", "1e308", "-1e308"])
    @pytest.mark.parametrize(
        "command",
        [["decode", "--k", "3"], ["decode", "--k", "inf"], ["decode", "--q", "2"], ["decode", "--q", "2", "--rescaled"],
         ["sweep", "--q", "2"]],
        ids=" ".join,
    )
    def test_far_out_gaussian_point_is_impossible(self, capsys, tmp_path, command, far):
        """A point whose squared distance to every mean overflows has density 0 in every state."""
        _, model_path, obs_path = self.gaussian_files(tmp_path, f"0\n{far}\n0.5\n")
        code, out, err = run_cli(
            capsys, command[0], "--model", model_path, "--obs", obs_path, *command[1:], "--out", str(tmp_path / "p.txt")
        )
        assert code == 5 and out == ""
        assert err == "error: observation sequence impossible under the model at t=2\n"

    @pytest.mark.parametrize("ks", [None, [2]])
    @pytest.mark.parametrize("horizons", [[0], [5, 0], [-3]])
    def test_horizons_below_one_are_rejected(self, capsys, workdir, horizons, ks):
        _, model, _, model_path, _ = workdir
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            if ks is None:
                hr.estimate_risk_trajectories(model, ["viterbi"], horizons, 3, 0)
            else:
                hr.sandwich_constant_sweep(model, horizons, ks, 3, 0)
        argv = ["simulate", "--model", model_path, "--horizons", ",".join(map(str, horizons)), "--replicates", "3"]
        code, out, err = run_cli(capsys, *argv, *([] if ks is None else ["--k", "2"]))
        assert code == 10 and out == ""
        assert_one_error_line(err)

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_gap_sweep_needs_a_replicate(self, capsys, workdir, replicates):
        _, model, _, model_path, _ = workdir
        with pytest.raises(ValueError, match="at least 1 replicate"):
            hr.sandwich_constant_sweep(model, [5], [2], replicates, 0)
        code, out, err = run_cli(
            capsys, "simulate", "--model", model_path, "--horizons", "5", "--replicates", str(replicates), "--k", "2"
        )
        assert code == 10 and out == ""
        assert_one_error_line(err)

    def test_one_replicate_gap_sweep_and_two_replicate_trajectories_run(self, workdir):
        _, model, _, _, _ = workdir
        assert len(hr.sandwich_constant_sweep(model, [5], [2], 1, 0)) == 1
        with pytest.raises(ValueError, match="at least 2 replicates"):
            hr.estimate_risk_trajectories(model, ["viterbi"], [5], 1, 0)
        assert hr.estimate_risk_trajectories(model, ["viterbi"], [5], 2, 0).replicates == 2

    def test_nan_contrast_is_rejected(self, capsys):
        with pytest.raises(ValueError, match="must exceed 1"):
            hr.four_state_model(float("nan"))
        code, out, err = run_cli(capsys, "paper-example", "--A", "nan")
        assert code == 10 and out == ""
        assert_one_error_line(err)

    def test_inf_contrast_is_rejected_without_runtime_warnings(self, capsys, recwarn):
        with pytest.raises(ValueError, match="must exceed 1 and be finite"):
            hr.four_state_model(float("inf"))
        code, out, err = run_cli(capsys, "paper-example", "--A", "inf")
        assert code == 10 and out == ""
        assert_one_error_line(err)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_ragged_gaussian_rows_name_the_file_once_and_the_first_differing_line(self, capsys, tmp_path):
        model, model_path, obs_path = self.gaussian_files(tmp_path, "0.1\n\n0.5\n0.2 0.3\n0.4 0.4\n")
        with pytest.raises(ParseError, match="line 4: ragged observation rows: 2 values, line 1 has 1"):
            hio.load_observations(obs_path, model)
        code, _, err = run_cli(capsys, "decode", "--model", model_path, "--obs", obs_path, "--k", "2",
                               "--out", str(tmp_path / "p.txt"))
        assert code == 3
        assert_one_error_line(err)
        assert err.count(obs_path) == 1 and "line 4" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--weights", "1,0,0,nan"],
            ["--weights", "1,inf,0,0"],
            ["--weights", "1,0,0,0", "--beta1", "nan"],
            ["--weights", "1,0,0,0", "--beta1", "inf"],
            ["--weights", "1,0,1,0", "--beta3", "nan"],
        ],
    )
    def test_non_finite_decode_weights_exit_10(self, capsys, tmp_path, files, argv):
        code, out, err = run_cli(capsys, "decode", *files, *argv, "--out", str(tmp_path / "p.txt"))
        assert code == 10 and out == ""
        assert_one_error_line(err)
        assert "must be finite and nonnegative" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--k", "3", "--beta1", "nan"], "--beta1 and --beta3 need --weights"),
            (["--alpha", "0.5", "--beta3", "inf"], "--beta1 and --beta3 need --weights"),
            (["--weights", "1,0,0,0", "--rescaled"], "--rescaled needs --q"),
            (["--k", "inf", "--rescaled"], "--rescaled needs --q"),
        ],
    )
    def test_options_no_selected_decoder_reads_exit_10(self, capsys, tmp_path, files, argv, message):
        """--rescaled is read by --q only, --beta1 and --beta3 by --weights only."""
        code, out, err = run_cli(capsys, "decode", *files, *argv, "--out", str(tmp_path / "p.txt"))
        assert code == 10 and out == ""
        assert_one_error_line(err)
        assert message in err
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("tag", ["weights:1/0/0/0/nan/0", "weights:1/0/0/nan", "weights:1/0/0/0/0/inf"])
    def test_non_finite_simulate_weights_exit_10(self, capsys, workdir, tag):
        _, _, _, model_path, _ = workdir
        code, out, err = run_cli(
            capsys, "simulate", "--model", model_path, "--horizons", "5", "--replicates", "2", "--decoders", tag
        )
        assert code == 10 and out == ""
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "command, far, overflow",
        [
            # log 0.2 times 1e308 is finite, so the first overflow is the path weight 1e308 + 1e308
            (["decode", "--weights", "0,1e308,0,1e308"], False, "scalar add"),
            # the point 30 has log-density -450.9 in state 1: its gain overflows before the path weight is formed
            (["decode", "--weights", "0,1e308,0,1e308"], True, "multiply"),
            (["simulate", "--horizons", "5", "--replicates", "2", "--decoders", "weights:1/1e308/0/0"], False, "add"),
        ],
    )
    def test_overflowing_weights_name_the_first_overflow(self, capsys, workdir, command, far, overflow):
        tmp_path, _, _, model_path, obs_path = workdir
        if far:
            _, model_path, obs_path = self.gaussian_files(tmp_path, "0.1\n1.2\n30\n0.8\n")
        files = ["--obs", obs_path, "--out", str(tmp_path / "p.txt")] if command[0] == "decode" else []
        code, out, err = run_cli(capsys, command[0], "--model", model_path, *command[1:], *files)
        assert code == 10 and out == ""
        assert err == f"error: decoder weights too large: the path scores overflow (overflow encountered in {overflow})\n"

    @pytest.mark.parametrize("tags", ["nonsense-tag", "viterbi", "viterbi,pmap", ""])
    def test_decoders_with_the_gap_sweep_exit_10(self, capsys, workdir, tags):
        """The gap sweep decodes viterbi and kblock:k only, so --decoders is refused with --k."""
        _, _, _, model_path, _ = workdir
        code, out, err = run_cli(capsys, "simulate", "--model", model_path, "--horizons", "5", "--replicates", "2",
                                 "--k", "2", "--decoders", tags)
        assert code == 10 and out == ""
        assert_one_error_line(err)
        assert "--decoders cannot be combined with --k" in err

    def test_rabiner_k_tuples_above_the_cap_exit_7(self, capsys, workdir):
        """2^20 window tuples exceed the 10^6 cap, though k = 20 fits the horizon."""
        _, _, _, model_path, _ = workdir
        code, out, err = run_cli(
            capsys, "simulate", "--model", model_path, "--horizons", "20", "--replicates", "2", "--decoders", "rabiner:20"
        )
        assert code == 7 and out == ""
        assert_one_error_line(err)
        assert "K^k exceeds the tabulation cap" in err

    def test_simulate_decoders_default_to_viterbi_and_pmap(self, capsys, workdir):
        _, _, _, model_path, _ = workdir
        argv = ["simulate", "--model", model_path, "--horizons", "5", "--replicates", "2"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--decoders", "viterbi,pmap")

    @pytest.mark.parametrize("top", [str(10**20), str(2**63 + 1)])
    def test_k_range_too_long_to_count_exits_10(self, capsys, tmp_path, files, top):
        code, out, err = run_cli(capsys, "sweep", *files, "--k", f"1..{top}", "--out", str(tmp_path / "s.csv"))
        assert code == 10 and out == ""
        assert_one_error_line(err)
        assert "k range too long" in err

    def test_k_range_is_decoded_one_k_at_a_time(self, capsys, tmp_path, files, monkeypatch):
        """A range of 10**6 k's is not listed up front: the first bad k stops the sweep early."""
        seen = []

        def decode(summary, k):
            seen.append(k)
            if k == 3:
                raise KOutOfRangeError("stop at k=3")
            return kblock_pvd_decode(summary, k)

        monkeypatch.setattr(cli, "kblock_pvd_decode", decode)
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "sweep", *files, "--k", f"1..{10**6}", "--out", str(tmp_path / "s.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 7 and seen == [1, 2, 3]
        assert_one_error_line(err)
        assert peak < 1 << 20, peak


@st.composite
def cli_instances(draw):
    """A small categorical, Gaussian or direct-likelihood model with structural zeros (in the initial distribution
    too) at ``zero_frac``, its observations and a path of its states.  Sampled observations have positive evidence;
    the others are drawn apart from the model, so some sequences are impossible, and some Gaussian points lie far
    out (up to 40, or at 1e200) where densities underflow.  The path is drawn apart from the model too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_states, horizon = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    zero_frac, sampled = draw(st.sampled_from([0.0, 0.3, 0.6])), draw(st.booleans())
    base = random_categorical_model(rng, num_states, num_symbols=3, zero_frac=zero_frac)
    initial = base.initial * (rng.random(num_states) >= zero_frac)
    initial = initial / initial.sum() if initial.sum() > 0 else base.initial
    emission = draw(st.sampled_from(["categorical", "gaussian", "direct"]))
    if emission == "gaussian":
        means, variances = rng.normal(0.0, 2.0, (num_states, 1)), rng.uniform(0.3, 2.0, (num_states, 1))
        model = hr.HmmModel(initial, base.transition, hr.DiagonalGaussian(means, variances))
        obs = rng.choice([-1.0, 1.0], horizon) * rng.uniform(0.0, 40.0, horizon)
        obs[: draw(st.integers(0, 1))] = 1e200
    elif emission == "direct":
        table = rng.uniform(0.0, 3.0, (horizon, num_states)) * (rng.random((horizon, num_states)) >= zero_frac)
        model = hr.HmmModel(initial, base.transition, hr.DirectLikelihood(table))
        obs = np.arange(horizon) if sampled else rng.permutation(horizon)
    else:
        model = hr.HmmModel(initial, base.transition, base.emission)
        obs = rng.integers(0, 3, horizon)
    if sampled and emission != "direct":
        obs = hr.sample_trajectory(model, horizon, int(rng.integers(2**31)))[1]
    return model, obs, rng.integers(1, num_states + 1, horizon)


# every decode selector, then risk and both sweeps that smooth; {labels}, {path} and {out} name the instance's files
WINDOW_FREE_COMMANDS = [
    ["decode", "--k", "1", "--out", "{out}"],
    ["decode", "--k", "2", "--out", "{out}"],
    ["decode", "--k", "inf", "--out", "{out}"],
    ["decode", "--alpha", "0.5", "--out", "{out}"],
    ["decode", "--weights", "1,0.5,0,0.2", "--beta1", "1", "--out", "{out}"],
    ["decode", "--weights", "1,1,0,0", "--labels", "{labels}", "--out", "{out}"],
    ["decode", "--q", "2", "--out", "{out}"],
    ["decode", "--q", "2", "--rescaled", "--out", "{out}"],
    ["risk", "--path", "{path}"],
    ["sweep", "--k", "1..T", "--out", "{out}"],
    ["sweep", "--alpha", "0,0.25,0.5,1", "--out", "{out}"],
]


class TestWindowFreeSummaries:
    """decode, risk and sweep smooth without the forward and backward tables, which only window posteriors read,
    and print what the windowed summaries print."""

    @settings(max_examples=30, deadline=None)
    @given(cli_instances())
    def test_window_free_runs_print_the_same_bytes(self, instance):
        model, obs, path = instance
        flags = []

        def window_free(model, observations, windows):
            flags.append(windows)
            return inference._forward_backward(model, observations, windows)

        def windowed(model, observations, windows):
            flags.append(True)
            return inference._forward_backward(model, observations, True)

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_model(model, tmp / "m.json")
            write_observations(obs, tmp / "o.txt")
            (tmp / "path.txt").write_text("".join(f"{s}\n" for s in path))
            labels = {str(s): "AB"[s % 2] for s in range(1, model.num_states + 1)}
            (tmp / "labels.json").write_text(json.dumps({"labels": labels}))
            files = {"labels": tmp / "labels.json", "path": tmp / "path.txt", "out": tmp / "out.txt"}
            for command, *options in WINDOW_FREE_COMMANDS:
                argv = [command, "--model", str(tmp / "m.json"), "--obs", str(tmp / "o.txt")]
                argv += [option.format(**files) for option in options]
                outcomes = []
                for smoothing in (window_free, windowed):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(decoders, "_forward_backward", smoothing)
                        outcomes.append(run_in_process(argv, files["out"]))
                assert flags in ([], [False, True]), (argv, flags)  # neither run smoothed, or each did once
                assert outcomes[0] == outcomes[1], argv
                del flags[:]

    def test_paper_example_keeps_its_window_tables(self, capsys, monkeypatch):
        """paper-example decodes rabiner:2, whose block posteriors read the forward and backward tables."""
        flags = []

        def smoothing(model, observations, windows):
            flags.append(windows)
            return inference._forward_backward(model, observations, windows)

        monkeypatch.setattr(decoders, "_forward_backward", smoothing)
        code, out, err = run_cli(capsys, "paper-example")
        assert (code, err, flags) == (0, "", [True])
        assert "rabiner k=2" in out

