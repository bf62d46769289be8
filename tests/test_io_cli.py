import json

import numpy as np
import pytest

import hmmrisk as hr
from hmmrisk import io as hio
from hmmrisk.cli import main
from hmmrisk.errors import ParseError

from conftest import random_categorical_model


@pytest.fixture
def workdir(tmp_path):
    """A model/observation pair on disk (2-state categorical, T=12)."""
    model = hr.HmmModel(
        [0.6, 0.4],
        [[0.7, 0.3], [0.25, 0.75]],
        hr.Categorical([[0.8, 0.2], [0.3, 0.7]]),
    )
    _, obs = hr.sample_trajectory(model, 12, seed=5)
    model_path = tmp_path / "model.json"
    obs_path = tmp_path / "obs.txt"
    hio.save_model(model, model_path)
    hio.save_observations(obs, obs_path)
    return tmp_path, model, obs, str(model_path), str(obs_path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelFiles:
    def test_round_trip_categorical(self, tmp_path):
        rng = np.random.default_rng(311)
        model = random_categorical_model(rng, zero_frac=0.3)
        path = tmp_path / "m.json"
        hio.save_model(model, path)
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
            hio.save_model(model, path)
            loaded = hio.load_model(path)
            assert type(loaded.emission) is type(model.emission)

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
            hio.save_model(model, path)  # json writes NaN and Infinity literals, which it reads back
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

    def test_label_file(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": {"1": "A", "2": "B"}, "beta": 0.0}))
        labels = hio.load_label_map(path, 2)
        assert labels.names == ("A", "B")
        assert labels.averaging_beta == 0.0
        path.write_text(json.dumps({"labels": {"1": "A"}}))
        with pytest.raises(ParseError):
            hio.load_label_map(path, 2)

    def test_number_formatting(self):
        assert hio.fmt(np.inf) == "inf"
        assert hio.fmt(1 / 3) == "0.333333333333"
        assert hio.fmt(2.0) == "2"
        assert len(hio.fmt(np.pi).replace(".", "").lstrip("0")) <= 12


class TestDecodeAndRisk:
    def test_round_trip_record_is_bit_identical(self, capsys, workdir, tmp_path):
        _, _, _, model_path, obs_path = workdir
        out_path = str(tmp_path / "path.txt")
        code, decode_out, _ = run_cli(
            capsys, "decode", "--model", model_path, "--obs", obs_path,
            "--weights", "1,1,0,0", "--out", out_path,
        )
        assert code == 0
        code, risk_out, _ = run_cli(
            capsys, "risk", "--model", model_path, "--obs", obs_path, "--path", out_path
        )
        assert code == 0
        assert decode_out == risk_out
        assert len(risk_out.strip().splitlines()) == 8

    def test_k_inf_is_the_viterbi_alias(self, capsys, workdir, tmp_path):
        _, _, _, model_path, obs_path = workdir
        out_a = str(tmp_path / "a.txt")
        out_b = str(tmp_path / "b.txt")
        run_cli(capsys, "decode", "--model", model_path, "--obs", obs_path, "--k", "inf", "--out", out_a)
        run_cli(capsys, "decode", "--model", model_path, "--obs", obs_path, "--weights", "0,1,0,0", "--out", out_b)
        assert open(out_a).read() == open(out_b).read()

    def test_label_output_lines(self, capsys, workdir, tmp_path):
        _, _, _, model_path, obs_path = workdir
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"labels": {"1": "hot", "2": "cold"}, "beta": 1.0}))
        out_path = str(tmp_path / "p.txt")
        code, _, _ = run_cli(
            capsys, "decode", "--model", model_path, "--obs", obs_path,
            "--labels", str(labels_path), "--weights", "1,0.1,0,0", "--beta1", "1", "--out", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 12
        for line in lines:
            state, label = line.split()
            assert label == ("hot" if state == "1" else "cold")

    def test_selector_exclusivity(self, capsys, workdir, tmp_path):
        _, _, _, model_path, obs_path = workdir
        code, _, err = run_cli(
            capsys, "decode", "--model", model_path, "--obs", obs_path,
            "--k", "2", "--alpha", "0.5", "--out", str(tmp_path / "x.txt"),
        )
        assert code == 10
        assert "exactly one" in err

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
        self, capsys, workdir, tmp_path, monkeypatch, selector
    ):
        _, _, _, model_path, obs_path = workdir
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"labels": {"1": "hot", "2": "cold"}}))

        def refuse(*args, **kwargs):
            raise AssertionError("forward_backward ran before the arguments were checked")

        monkeypatch.setattr("hmmrisk.cli.forward_backward", refuse)
        code, _, err = run_cli(
            capsys, "decode", "--model", model_path, "--obs", obs_path,
            "--labels", str(labels_path), *selector, "--out", str(tmp_path / "x.txt"),
        )
        assert code == 10
        assert "--labels needs --weights" in err

    def test_non_finite_model_exit_code(self, capsys, tmp_path):
        model_path, obs_path = tmp_path / "nan.json", tmp_path / "obs.txt"
        model = hr.HmmModel([0.5, 0.5], np.eye(2), hr.DiagonalGaussian([[0.0], [np.nan]], [[1.0], [1.0]]))
        hio.save_model(model, model_path)
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


class TestSweep:
    def test_k_sweep_monotone_posterior_column(self, capsys, workdir, tmp_path):
        _, _, _, model_path, obs_path = workdir
        out_path = str(tmp_path / "sweep.csv")
        code, _, _ = run_cli(
            capsys, "sweep", "--model", model_path, "--obs", obs_path, "--k", "1..T", "--out", out_path
        )
        assert code == 0
        rows = open(out_path).read().splitlines()
        header = rows[0].split(",")
        assert rows[1:] and len(rows) == 13
        col = header.index("posterior_log_prob")
        values = [float(r.split(",")[col]) for r in rows[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(values[:-1], values[1:]))

    def test_alpha_sweep(self, capsys, workdir):
        _, _, _, model_path, obs_path = workdir
        code, out, _ = run_cli(
            capsys, "sweep", "--model", model_path, "--obs", obs_path, "--alpha", "0,0.5,1"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("param,value,path,")
        assert len(out.splitlines()) == 4

    def test_q_sweep_probe_columns(self, capsys, workdir):
        _, _, _, model_path, obs_path = workdir
        code, out, _ = run_cli(
            capsys, "sweep", "--model", model_path, "--obs", obs_path, "--q", "1,2,inf"
        )
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

    def test_not_generative_exit_code(self, capsys, tmp_path):
        model_path = tmp_path / "direct.json"
        hio.save_model(hr.four_state_model(2.0), model_path)
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
        hio.save_model(model, model_path)
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
