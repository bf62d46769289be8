"""Tests of the benchmark harness itself: the tracer's rebinding and self
time, the seeded generator, the output checks and the reference clock.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import hmmrisk  # noqa: E402
import hmmrisk.cli  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _references():
    """Every module attribute and module-level dict entry of the package."""
    refs = {}
    for name, module in list(sys.modules.items()):
        if name == "hmmrisk" or name.startswith("hmmrisk."):
            for attr, value in vars(module).items():
                refs[(name, attr)] = value
                if isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        refs[(name, attr, key)] = item
    return refs


def test_install_then_uninstall_restores_every_reference():
    before = _references()
    original_best_path = hmmrisk.lattice.best_path
    tracer = tracing.Tracer()
    undo = tracing.install(tracing.hmmrisk_wrappers(tracer))
    try:
        # names imported into other modules and registry entries are rebound too
        assert hmmrisk.decoders.best_path is not original_best_path
        assert hmmrisk.decoders.best_path is hmmrisk.lattice.best_path
        assert hmmrisk.decoders._FIXED_DECODERS["pvd"] is hmmrisk.decoders.pvd_decode
        assert hmmrisk.pvd_decode is hmmrisk.decoders.pvd_decode is not before[("hmmrisk.decoders", "pvd_decode")]
        assert hmmrisk.cli.main is not before[("hmmrisk.cli", "main")]
    finally:
        tracing.uninstall(undo)
    after = _references()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrapped_calls_record_spans_only_inside_an_op():
    tracer = tracing.Tracer()
    undo = tracing.install(tracing.hmmrisk_wrappers(tracer))
    try:
        model = hmmrisk.four_state_model(2.0)
        summary = hmmrisk.forward_backward(model, hmmrisk.four_state_observations())
        hmmrisk.decoders.resolve_decoder("pvd")(summary)
        assert tracer.spans == []
        tracer.context = {"op": 1, "cycle": 0}
        hmmrisk.decoders.resolve_decoder("pvd")(summary)
        tracer.context = None
    finally:
        tracing.uninstall(undo)
    names = [span["name"] for span in tracer.spans]
    assert names[0] == "decoders.pvd_decode"
    assert "lattice.best_path" in names and "risk.evaluate_risks" in names
    assert all(span["parent"] == tracer.spans[0]["id"] for span in tracer.spans[1:] if span["name"] != "model.prior_marginals")


def test_self_time_on_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    first = tracer.wrap("first", lambda: None)
    second = tracer.wrap("second", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (first(), second()))
    tracer.context = {"op": 1, "cycle": 0}
    outer()
    summary = tracing.summarize(tracer.spans)
    assert {name: row["self_s"] for name, row in summary.items()} == {
        "outer": 4.0,  # 10 - (3 - 1) - (8 - 4)
        "first": 2.0,
        "second": 2.0,  # 4 - (7 - 5)
        "leaf": 2.0,
    }
    assert summary["outer"]["total_s"] == 10.0
    assert sum(row["self_s"] for row in summary.values()) == summary["outer"]["total_s"]


def test_a_raising_call_counts_as_an_error_and_still_closes_its_span():
    tracer = tracing.Tracer()
    boom = tracer.wrap("boom", lambda: 1 / 0)
    tracer.context = {"op": 1, "cycle": 0}
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracing.summarize(tracer.spans)["boom"]["errors"] == 1
    assert tracer._stack == []


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    def files(seed, sub):
        workloads.generate(name, seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first["model.json"] != other["model.json"]


def _corrupt(path: Path, how: str, num_states: int):
    lines = path.read_text().splitlines()
    if how == "out-of-range":
        lines[0] = str(num_states + 1)
    elif how == "truncated":
        lines = lines[:-1]
    else:  # another valid path: its risk record differs from the one printed
        lines[0] = str(int(lines[0]) % num_states + 1)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("how", ["out-of-range", "truncated", "other-path"])
def test_corrupted_path_file_is_a_failed_op(tmp_path, how):
    workload = workloads.decode_long(tmp_path, seed=3, horizon=60)
    op = workload.ops[0]
    with refclock.ReferenceClock() as clock:
        client = run.Client(hmmrisk, workload, clock)
        client.run_op(op)
        assert (client.attempted, client.failed) == (1, 0)

        def corrupting_main(argv):
            code = hmmrisk.cli.main(argv)
            _corrupt(Path(op.out), how, op.expect["states"])
            return code

        client.cli = types.SimpleNamespace(main=corrupting_main)
        client.run_op(op)
    assert (client.attempted, client.failed) == (2, 1)
    assert client.failures[0].startswith(op.label)


def test_reference_clock_scales_cpu_time_and_stops_its_loop():
    affinity = os.sched_getaffinity(0)
    with refclock.ReferenceClock() as clock:
        assert os.sched_getaffinity(0) == {clock.cpu}
        _, cost, wall = clock.measure(sum, range(3_000_000))
        _, twice, _ = clock.measure(lambda: [sum(range(3_000_000)) for _ in range(2)])
        _, child, _ = clock.measure(run._run_python, "sum(range(3_000_000))", children=True)
    assert not clock._loop.is_alive() and clock._loop.exitcode is not None
    assert os.sched_getaffinity(0) == affinity
    assert cost > 0 and wall > 0 and child > 0
    assert 1.3 < twice / cost < 3.0


def test_a_decoded_path_beating_viterbi_is_caught(tmp_path):
    workload = workloads.decode_long(tmp_path, seed=3, horizon=60)
    checker = checks.Checker()
    reference, other = workload.ops[0], workload.ops[1]
    code, stdout, _ = checks.run_cli(hmmrisk.cli.main, reference.argv)
    assert code == 0 and checker.check(reference, stdout) == []
    # pretend the Viterbi op wrote a worse path: then the k-block path beats it
    _corrupt(Path(reference.out), "other-path", reference.expect["states"])
    _, record, _ = checks.run_cli(hmmrisk.cli.main, ["risk", "--model", workload.model, "--obs", reference.expect["obs"], "--path", reference.out])
    assert checker.check(reference, record) == []
    code, stdout, _ = checks.run_cli(hmmrisk.cli.main, other.argv)
    assert code == 0
    assert any("beats the --k inf path" in p for p in checker.check(other, stdout))
