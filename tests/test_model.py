import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmrisk as hr
from hmmrisk.errors import DirectLikelihoodNotGenerativeError

from conftest import random_categorical_model


class TestValidateModel:
    def test_single_state_chain_is_valid(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.5, 0.5]]))
        assert hr.model.validate_model(model) == []

    def test_four_state_example_is_valid(self):
        assert hr.model.validate_model(hr.four_state_model(2.0)) == []

    def test_bad_transition_row_is_reported_with_index(self):
        model = hr.HmmModel(
            [1.0, 0.0], [[0.5, 0.6], [0.5, 0.5]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]])
        )
        report = hr.model.validate_model(model)
        assert any("transition row 1 sums to 1.1" in v for v in report)

    def test_negative_entries_and_bad_initial(self):
        model = hr.HmmModel(
            [0.5, 0.4], [[1.0, 0.0], [-0.5, 1.5]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]])
        )
        report = hr.model.validate_model(model)
        assert any("initial" in v for v in report)
        assert any("negative" in v for v in report)

    def test_emission_violations(self):
        bad_cat = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.7, 0.7]]))
        assert any("emission row 1" in v for v in hr.model.validate_model(bad_cat))
        bad_var = hr.HmmModel([1.0], [[1.0]], hr.DiagonalGaussian([[0.0]], [[0.0]]))
        assert any("variance" in v for v in hr.model.validate_model(bad_var))
        bad_direct = hr.HmmModel([1.0], [[1.0]], hr.DirectLikelihood([[-1.0]]))
        assert any("negative" in v for v in hr.model.validate_model(bad_direct))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_are_reported_with_field_and_row(self, bad):
        cat = hr.Categorical([[0.5, 0.5], [0.2, 0.8]])
        cases = {
            "initial distribution has a non-finite entry": hr.HmmModel([bad, 0.5], np.eye(2), cat),
            "transition row 2 has a non-finite entry": hr.HmmModel([0.5, 0.5], [[1, 0], [bad, 0.5]], cat),
            "emission row 1 has a non-finite entry": hr.HmmModel(
                [0.5, 0.5], np.eye(2), hr.Categorical([[bad, 0.2], [0.5, 0.5]])
            ),
            "likelihood table row 2 has a non-finite entry": hr.HmmModel(
                [0.5, 0.5], np.eye(2), hr.DirectLikelihood([[0.1, 0.2], [0.3, bad]])
            ),
            "emission state 2 has a non-finite mean": hr.HmmModel(
                [0.5, 0.5], np.eye(2), hr.DiagonalGaussian([[0.0], [bad]], [[1.0], [1.0]])
            ),
            "emission state 1 has a non-finite variance": hr.HmmModel(
                [0.5, 0.5], np.eye(2), hr.DiagonalGaussian([[0.0], [1.0]], [[bad], [1.0]])
            ),
        }
        for message, model in cases.items():
            assert message in hr.model.validate_model(model)

    def test_arrays_are_frozen(self):
        model = hr.four_state_model(2.0)
        with pytest.raises(ValueError):
            model.transition[0, 0] = 1.0


class TestPriorMarginals:
    def test_uniform_initial_doubly_stochastic_stays_uniform(self):
        p = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        model = hr.HmmModel(np.full(3, 1 / 3), p, hr.Categorical(np.full((3, 2), 0.5)))
        marg = hr.model.prior_marginals(model, 50)
        np.testing.assert_allclose(marg, 1 / 3, atol=1e-12)

    def test_four_state_first_rows(self, four_state):
        model, _, _ = four_state
        marg = hr.model.prior_marginals(model, 2)
        np.testing.assert_allclose(marg[0], [0, 1, 0, 0], atol=0)
        np.testing.assert_allclose(marg[1], [4 / 8, 1 / 8, 1 / 8, 2 / 8], atol=1e-15)

    def test_rows_remain_stochastic_over_long_horizons(self):
        rng = np.random.default_rng(7)
        model = random_categorical_model(rng, num_states=4)
        marg = hr.model.prior_marginals(model, 10_000)
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(marg >= 0)

    def test_irreducible_aperiodic_chains_converge(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            initial = rng.dirichlet(np.ones(4))
            transition = rng.dirichlet(np.ones(4), size=4)  # strictly positive a.s.
            model = hr.HmmModel(initial, transition, hr.Categorical(np.full((4, 2), 0.5)))
            marg = hr.model.prior_marginals(model, 1001)
            assert np.abs(marg[1000] - marg[999]).max() < 1e-8


def loop_prior_marginals(model, horizon):
    """Reference: every row from its predecessor, with no stop at a fixed point."""
    out = np.empty((horizon, model.num_states))
    out[0] = model.initial
    for t in range(1, horizon):
        out[t] = out[t - 1] @ model.transition
    return out


def assert_same_bits(got, expect):
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


class TestPriorMarginalsFixedPoint:
    """prior_marginals stops once a row repeats its predecessor and fills the rest;
    the rows must equal the full loop's bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 3000),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.sampled_from([0.0, 0.9, 0.999]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_full_loop(self, num_states, horizon, zero_frac, stay, seed):
        rng = np.random.default_rng(seed)
        base = random_categorical_model(rng, num_states, zero_frac=zero_frac)
        transition = (1 - stay) * base.transition + stay * np.eye(num_states)  # slow chains settle late or not at all
        model = hr.HmmModel(base.initial, transition, base.emission)
        assert_same_bits(hr.model.prior_marginals(model, horizon), loop_prior_marginals(model, horizon))

    @pytest.mark.parametrize("initial", [[0.5, 0.5], [0.3, 0.7]])
    @pytest.mark.parametrize("horizon", [1, 2, 64, 65, 129, 3000])
    def test_periodic_chain(self, initial, horizon):
        """The flip chain is fixed from a uniform start and alternates forever from any other."""
        model = hr.HmmModel(initial, [[0.0, 1.0], [1.0, 0.0]], hr.Categorical(np.full((2, 2), 0.5)))
        marg = hr.model.prior_marginals(model, horizon)
        assert_same_bits(marg, loop_prior_marginals(model, horizon))
        np.testing.assert_array_equal(marg[1::2], np.tile(initial[::-1], (len(marg[1::2]), 1)))


class TestSampleTrajectory:
    def test_single_state_constant_path(self):
        model = hr.HmmModel([1.0], [[1.0]], hr.Categorical([[0.3, 0.7]]))
        path, obs = hr.sample_trajectory(model, 20, seed=0)
        assert path == (1,) * 20
        assert len(obs) == 20

    def test_absorbing_state_never_leaves(self):
        model = hr.HmmModel(
            [0.0, 1.0], [[0.5, 0.5], [0.0, 1.0]], hr.Categorical([[1.0, 0.0], [0.0, 1.0]])
        )
        path, _ = hr.sample_trajectory(model, 100, seed=3)
        assert path == (2,) * 100

    def test_equal_seeds_are_bit_identical(self):
        rng = np.random.default_rng(5)
        model = random_categorical_model(rng)
        p1, o1 = hr.sample_trajectory(model, 500, seed=42)
        p2, o2 = hr.sample_trajectory(model, 500, seed=42)
        assert p1 == p2
        np.testing.assert_array_equal(o1, o2)

    def test_empirical_transition_frequencies_match(self):
        transition = np.array([[0.8, 0.2], [0.35, 0.65]])
        model = hr.HmmModel([0.5, 0.5], transition, hr.Categorical([[0.9, 0.1], [0.2, 0.8]]))
        path, _ = hr.sample_trajectory(model, 100_000, seed=9)
        arr = np.asarray(path) - 1
        for i in range(2):
            rows = arr[:-1] == i
            for j in range(2):
                freq = np.mean(arr[1:][rows] == j)
                assert abs(freq - transition[i, j]) < 0.01

    def test_gaussian_sampling_and_loglik_shapes(self):
        model = hr.HmmModel(
            [0.5, 0.5],
            [[0.9, 0.1], [0.1, 0.9]],
            hr.DiagonalGaussian([[0.0, 0.0], [3.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]]),
        )
        path, obs = hr.sample_trajectory(model, 50, seed=1)
        assert obs.shape == (50, 2)
        summary = hr.forward_backward(model, obs)
        assert summary.smoothed.shape == (50, 2)

    def test_direct_likelihood_is_not_generative(self, four_state):
        model, _, _ = four_state
        with pytest.raises(DirectLikelihoodNotGenerativeError):
            hr.sample_trajectory(model, 4, seed=0)

    def test_horizon_zero_is_refused(self):
        model = hr.HmmModel([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], hr.Categorical([[0.8, 0.2], [0.3, 0.7]]))
        for call in (lambda: hr.model.prior_marginals(model, 0), lambda: hr.sample_trajectories(model, 0, [1, 2])):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "horizon must be at least 1"


class TestDiagonalGaussian:
    @pytest.mark.parametrize("far", [1e200, 1e308, -1e308])
    def test_far_out_point_has_log_density_minus_inf_without_a_warning(self, far):
        emission = hr.DiagonalGaussian([[0.0], [1.0]], [[1.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_like, like = emission.log_likelihood([0.0, far, 0.5]), emission.likelihood([0.0, far, 0.5])
        assert np.all(np.isneginf(log_like[1])) and np.all(like[1] == 0.0)
        np.testing.assert_array_equal(log_like[[0, 2]], emission.log_likelihood([0.0, 0.5]))


def _table_emissions(num_states: int, rng):
    """A categorical emission over 3 symbols and a direct-likelihood one over 4 row positions, with the
    function that gives each one's likelihood of observation o in state s from its table."""
    categorical = hr.Categorical(rng.dirichlet(np.ones(3), num_states))
    direct = hr.DirectLikelihood(rng.uniform(0.0, 2.0, (4, num_states)))
    return [(categorical, 3, lambda o, s: categorical.table[s, o]), (direct, 4, lambda o, s: direct.table[o, s])]


class TestTableEmissions:
    """Categorical and direct-likelihood emissions gather their likelihood rows from one read-only table."""

    @pytest.mark.parametrize("horizon", [1, 7])
    @pytest.mark.parametrize("num_states", [1, 2, 256])
    def test_likelihood_is_the_per_entry_definition_bit_for_bit(self, num_states, horizon):
        rng = np.random.default_rng(10 * num_states + horizon)
        for emission, size, entry in _table_emissions(num_states, rng):
            obs = rng.integers(0, size, horizon)
            expected = np.array([[entry(o, s) for s in range(num_states)] for o in obs])
            got = emission.likelihood(obs)
            assert emission.num_states == num_states
            assert got.shape == (horizon, num_states) and got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_likelihood_is_a_new_writable_c_contiguous_array(self):
        for emission, size, _ in _table_emissions(3, np.random.default_rng(5)):
            table = emission.table.copy()
            got = emission.likelihood([size - 1, 0, 1, 1])
            assert got.flags.c_contiguous and got.flags.writeable
            assert not np.shares_memory(got, emission.table)
            got[...] = -1.0
            np.testing.assert_array_equal(emission.table, table)
            assert not emission.table.flags.writeable

    @pytest.mark.parametrize(
        "kind, obs, message",
        [
            ("categorical", [[0, 1]], "categorical observations must be a 1-d sequence of symbol indices"),
            ("categorical", [0, 1.5], "categorical observations must be integer symbol indices"),
            ("categorical", [0, 3], "symbol index outside alphabet of size 3"),
            ("categorical", [-1, 0], "symbol index outside alphabet of size 3"),
            ("direct", 2, "direct-likelihood observations must be a 1-d sequence of row positions"),
            ("direct", [0, np.nan], "direct-likelihood observations must be integer row positions"),
            ("direct", [4], "position index outside likelihood table of length 4"),
            ("direct", [0, -1], "position index outside likelihood table of length 4"),
        ],
    )
    def test_messages(self, kind, obs, message):
        categorical, direct = (emission for emission, _, _ in _table_emissions(2, np.random.default_rng(0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as info:
                (categorical if kind == "categorical" else direct).likelihood(obs)
        assert type(info.value) is ValueError and str(info.value) == message


_CATEGORICAL = hr.HmmModel([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], hr.Categorical([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]))
_LABELS = "state labels must be integers"

# entry point -> (a call whose integer argument is v, where v = 2 is valid, and the ValueError message for a bad v)
_INTEGER_SLOTS = {
    "evaluate_risks": (lambda m, s, v: hr.evaluate_risks(s, (2, v, 1, 2)), lambda v: _LABELS),
    "joint_log_likelihood": (lambda m, s, v: hr.joint_log_likelihood(s, (2, v, 1, 2)), lambda v: _LABELS),
    "kblock_logrisk path": (lambda m, s, v: hr.kblock_logrisk(s, (2, v, 1, 2), 2), lambda v: _LABELS),
    "kblock_logrisk k": (lambda m, s, v: hr.kblock_logrisk(s, (2, 1, 1, 2), v), lambda v: f"k must be an integer, got {v}"),
    "rabiner_gain_batch path": (lambda m, s, v: hr.risk.rabiner_gain_batch(s, (2, v, 1, 2), 2), lambda v: _LABELS),
    "rabiner_gain_batch k": (
        lambda m, s, v: hr.risk.rabiner_gain_batch(s, (2, 1, 1, 2), v),
        lambda v: f"k must be an integer, got {v}",
    ),
    "rabiner_block_decode k": (lambda m, s, v: hr.rabiner_block_decode(s, v), lambda v: f"k must be an integer, got {v}"),
    "kblock_pvd_decode k": (lambda m, s, v: hr.kblock_pvd_decode(s, v), lambda v: f"k must be an integer, got {v}"),
    "block_posterior block": (lambda m, s, v: hr.block_posterior(s, 1, [v, 1]), lambda v: _LABELS),
    "block_posterior t": (lambda m, s, v: hr.block_posterior(s, v, [1]), lambda v: f"position must be an integer, got {v}"),
    "averaged_label_posterior t": (
        lambda m, s, v: hr.averaged_label_posterior(s, hr.LabelMap({1: "a", 2: "a", 3: "b", 4: "b"}), v, 1),
        lambda v: f"position must be an integer, got {v}",
    ),
    "averaged_label_posterior s": (
        lambda m, s, v: hr.averaged_label_posterior(s, hr.LabelMap({1: "a", 2: "a", 3: "b", 4: "b"}), 1, v),
        lambda v: f"state must be an integer, got {v}",
    ),
    "forward_backward categorical": (
        lambda m, s, v: hr.forward_backward(_CATEGORICAL, [0, v, 1]).smoothed.tolist(),
        lambda v: "categorical observations must be integer symbol indices",
    ),
    "forward_backward direct": (
        lambda m, s, v: hr.forward_backward(m, [0, 1, v, 3]).smoothed.tolist(),
        lambda v: "direct-likelihood observations must be integer row positions",
    ),
}


class TestIntegerRule:
    """Symbols, row positions, state labels, positions, states and window
    lengths follow one rule: an integral value (2 or 2.0) is that integer, and
    anything else, NaN and inf included, raises ValueError without a warning."""

    @pytest.mark.parametrize("entry", sorted(_INTEGER_SLOTS))
    def test_one_rule_at_every_entry_point(self, four_state, entry):
        model, _, summary = four_state
        call, message = _INTEGER_SLOTS[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert call(model, summary, 2.0) == call(model, summary, 2)
            for bad in (np.nan, np.inf, np.float64(-np.inf), 1.5, None):  # None makes an object array, or is one
                with pytest.raises(ValueError) as info:
                    call(model, summary, bad)
                assert type(info.value) is ValueError
                assert str(info.value) == message(bad)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: hr.model.check_state_path([1, None], 2), _LABELS),
            (lambda: _CATEGORICAL.emission.likelihood([0, None]), "categorical observations must be integer symbol indices"),
        ],
    )
    def test_a_non_number_in_an_object_array_is_a_value_error(self, call, message):
        """numpy's % has no loop for None, so its TypeError must not get through."""
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message
