import json
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from consensuslab import (
    ConfigError,
    MatrixDistribution,
    RngPolicy,
    load_config,
    sample,
    validate_matrix,
)
from consensuslab import core
from consensuslab.analysis import random_verdict
from consensuslab.core import (
    MatrixValidationError,
    block_slices,
    checked_number,
    distribution_from_config,
    path_draws,
    pick_atoms,
    registered_generators,
    resolve_x0,
    spawn_streams,
)

from conftest import random_stochastic, random_stochastic_matrix


class TestValidateMatrix:
    def test_doubly_stochastic_averaging(self):
        m = validate_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert m.n == 2

    def test_zero_diagonal_allowed(self):
        m = validate_matrix([[1, 0], [1, 0]])
        assert m.entries[1, 1] == 0.0

    def test_row_sum_error(self):
        with pytest.raises(MatrixValidationError, match="row 0 sums"):
            validate_matrix([[0.6, 0.5], [0.5, 0.5]])

    def test_negative_below_tolerance_rejected(self):
        with pytest.raises(MatrixValidationError, match="negative entry"):
            validate_matrix([[1e-6 + 1.0, -1e-6], [0.5, 0.5]])

    def test_tiny_negative_clamped_to_zero(self):
        m = validate_matrix([[1.0 + 5e-13, -5e-13], [0.5, 0.5]])
        assert m.entries[0, 1] == 0.0

    @pytest.mark.parametrize("raw, message", [
        ([[0, 1], [1.5, -0.5]], "negative entry -0.5 at (1,1) below tolerance"),
        ([[0.5, 0.5], [0.75, 0.5]], "row 1 sums to 1.25, expected 1 within 1e-09"),
    ])
    def test_error_names_the_bad_entry_as_a_plain_float(self, raw, message):
        with pytest.raises(MatrixValidationError) as exc:
            validate_matrix(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw, message", [
        ([[np.inf, -np.inf], [0.0, 1.0]], "matrix has non-finite entries"),
        ([[1e308, 1e308], [0.0, 1.0]], "row 0 sums to inf, expected 1 within 1e-09"),
    ], ids=["inf_minus_inf_row", "overflowing_row"])
    def test_non_finite_row_sum_refused_without_a_warning(self, raw, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MatrixValidationError) as exc:
                validate_matrix(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw", ["abc", [[1], [0, 1]], {"a": 1}, [["x", "y"], ["z", "w"]],
                                     [[1.0, [0.0]], [0.0, 1.0]]],
                             ids=["string", "ragged", "object", "strings", "nested_entry"])
    def test_unreadable_raw_refused(self, raw):
        with pytest.raises(MatrixValidationError) as exc:
            validate_matrix(raw)
        assert str(exc.value) == "matrix must be a square array of numbers"

    def test_non_square_rejected(self):
        with pytest.raises(MatrixValidationError, match="square"):
            validate_matrix([[0.5, 0.5]])

    def test_rows_never_renormalized(self):
        # sum inside tolerance stays as given
        m = validate_matrix([[0.5 + 4e-10, 0.5], [0.5, 0.5]])
        assert m.entries[0, 0] == 0.5 + 4e-10

    def test_constant_vector_fixed(self, rng):
        for n in (1, 2, 5, 9):
            m = validate_matrix(random_stochastic(rng, n))
            ones = np.ones(n) * 3.7
            assert np.max(np.abs(m.entries @ ones - ones)) <= 1e-9

    def test_entries_frozen(self):
        m = validate_matrix([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0


class TestSampling:
    def test_dirac_always_same(self, rng):
        m = validate_matrix([[0.2, 0.8], [0.3, 0.7]])
        dist = MatrixDistribution.dirac(m)
        for _ in range(10):
            assert sample(dist, rng) is m

    def test_inverse_cdf_selection(self):
        # uniform draw 0.3 against probs (0.5, 0.5) picks the first atom
        assert pick_atoms([0.5, 0.5], 0.3) == 0
        assert pick_atoms([0.5, 0.5], 0.5) == 1
        assert pick_atoms([0.2, 0.3, 0.5], 0.49) == 1
        assert pick_atoms([0.5, 0.5], 1.0 - 1e-16) == 1

    def test_gossip_uniform_over_pairs_chi_square(self):
        # chi-square over 1e5 draws, 2 dof; 9.210 is the 1% critical value
        dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
        rng = np.random.default_rng(7)
        counts = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        draws = 100_000
        for _ in range(draws):
            m = sample(dist, rng).entries
            pair = next(p for p in counts if m[p[0], p[1]] == 0.5)
            counts[pair] += 1
        expected = draws / 3
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < 9.210

    def test_finite_frequencies_within_4_se(self):
        probs = (0.7, 0.3)
        mats = [
            validate_matrix([[1.0, 0.0], [0.0, 1.0]]),
            validate_matrix([[0.0, 1.0], [1.0, 0.0]]),
        ]
        dist = MatrixDistribution.finite(list(zip(probs, mats)))
        rng = np.random.default_rng(11)
        draws = 100_000
        hits = sum(sample(dist, rng) is mats[0] for _ in range(draws))
        se = np.sqrt(probs[0] * (1 - probs[0]) / draws)
        assert abs(hits / draws - probs[0]) < 4 * se

    @pytest.mark.parametrize("name,params", [
        ("pairwise_gossip", {"n": 4}),
        ("dirichlet_rows", {"n": 5, "alpha": 0.5}),
        ("lazy_permutation", {"n": 4, "hold_prob": 0.25}),
    ])
    def test_every_generator_draw_validates(self, name, params):
        dist = MatrixDistribution.generator(name, params)
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            sample(dist, rng)  # validate_matrix runs on each draw

    def test_unknown_generator(self):
        with pytest.raises(ConfigError, match="unknown generator"):
            MatrixDistribution.generator("nope", {"n": 3})

    def test_bad_generator_params(self):
        with pytest.raises(ConfigError, match="alpha"):
            MatrixDistribution.generator("dirichlet_rows", {"n": 3, "alpha": -1})
        with pytest.raises(ConfigError, match="hold_prob"):
            MatrixDistribution.generator("lazy_permutation", {"n": 3, "hold_prob": 2})

    @pytest.mark.parametrize("spec, message", [
        ({"name": "dirichlet_rows", "params": 5}, "generator 'params' must be an object, got int"),
        ({"name": "dirichlet_rows", "params": "ab"}, "generator 'params' must be an object, got str"),
        ({"name": "pairwise_gossip", "params": [3]}, "generator 'params' must be an object, got list"),
        ({"name": [], "params": {}}, "generator 'name' must be a string, got list"),
        ({"name": 3, "params": {"n": 3}}, "generator 'name' must be a string, got int"),
    ], ids=["params_int", "params_str", "params_list", "name_list", "name_int"])
    def test_generator_spec_types_checked(self, spec, message):
        with pytest.raises(ConfigError) as exc:
            distribution_from_config({"distribution": {"type": "generator", **spec}})
        assert str(exc.value) == message

    def test_registered_set(self):
        assert set(registered_generators()) == {
            "pairwise_gossip",
            "dirichlet_rows",
            "lazy_permutation",
            "lifted_pair",
        }


class TestDistributionInvariants:
    def test_finite_prob_sum_checked(self):
        m = validate_matrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigError, match="sum"):
            MatrixDistribution.finite([(0.7, m), (0.4, m)])

    def test_finite_prob_sum_message(self):
        m = validate_matrix(np.eye(2))
        with pytest.raises(ConfigError) as exc:
            MatrixDistribution.finite([(0.7, m), (0.4, m)])
        assert str(exc.value) == "atom probabilities sum to 1.1, expected 1"

    @pytest.mark.parametrize("probs", [(float("nan"), 1.0), (float("inf"), -float("inf"))])
    def test_finite_nonfinite_probs_rejected(self, probs):
        # NaN slips past every comparison; the picker needs a finite cumulative sum
        m = validate_matrix(np.eye(2))
        with pytest.raises(ConfigError, match="atom probabilities must be finite"):
            MatrixDistribution.finite([(p, m) for p in probs])

    def test_finite_mixed_dims_rejected(self):
        m2 = validate_matrix(np.eye(2))
        m3 = validate_matrix(np.eye(3))
        with pytest.raises(ConfigError, match="dimension"):
            MatrixDistribution.finite([(0.5, m2), (0.5, m3)])

    def test_round_trip_serialization(self, rng):
        m = validate_matrix(random_stochastic(rng, 4))
        dist = MatrixDistribution.finite([(0.25, m), (0.75, validate_matrix(np.eye(4)))])
        doc = json.loads(json.dumps({"n": 4, "distribution": dist.to_config()}))
        reloaded, _ = load_config(doc)
        for (p, a), (q, b) in zip(dist.atoms, reloaded.atoms):
            assert p == q
            assert a.allclose(b, tol=1e-15)


class TestRngPolicy:
    def test_streams_reproducible(self):
        policy = RngPolicy(99)
        a = policy.path_stream(3).random(8)
        b = policy.path_stream(3).random(8)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        policy = RngPolicy(99)
        assert not np.array_equal(policy.path_stream(0).random(8), policy.path_stream(1).random(8))
        assert not np.array_equal(policy.path_stream(0).random(8), policy.x0_stream().random(8))


# one- and two-word seeds, on both sides of each word boundary
ORACLE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
# spawn_streams takes one-word indices; a lone path stream takes any index
ONE_WORD_INDICES = (0, 1, 199, 2**31, 2**32 - 1)
MULTI_WORD_INDICES = (2**32, 2**40 + 7, 2**70 + 1)


def _oracle(seed, key):
    """The stream NumPy's own SeedSequence derives: the reference for the vectorised deriver."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _assert_same_stream(got, expected):
    assert got.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(got.random(16), expected.random(16))


class TestStreamDeriver:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("key", [(0,), (1,), (2,), (5, 2**33)], ids=str)
    def test_one_word_indices_match_seed_sequence(self, seed, key):
        streams = spawn_streams(seed, key, ONE_WORD_INDICES)
        assert len(streams) == len(ONE_WORD_INDICES)
        for index, got in zip(ONE_WORD_INDICES, streams):
            _assert_same_stream(got, _oracle(seed, (*key, index)))

    def test_long_entropy_matches_seed_sequence(self):
        # beyond the 64-bit seed contract: seven words of entropy, more than the pool holds
        for index, got in zip(ONE_WORD_INDICES, spawn_streams(2**200, (0,), ONE_WORD_INDICES)):
            _assert_same_stream(got, _oracle(2**200, (0, index)))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_policy_streams_match_seed_sequence(self, seed):
        policy = RngPolicy(seed)
        for index in ONE_WORD_INDICES + MULTI_WORD_INDICES:
            _assert_same_stream(policy.path_stream(index), _oracle(seed, (0, index)))
        _assert_same_stream(policy.x0_stream(), _oracle(seed, (1, 0)))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("label", ("matrix_validation", "spectral_identity", "lifting"))
    def test_selfcheck_substreams_match_seed_sequence(self, seed, label):
        from consensuslab.selfcheck import _rng

        _assert_same_stream(_rng(seed, label), _oracle(seed, (zlib.crc32(label.encode()),)))

    @pytest.mark.parametrize("seed", (0, 2**64 - 1))
    def test_batch_equals_one_at_a_time(self, seed):
        policy = RngPolicy(seed)
        streams = policy.path_streams(250)
        assert len(streams) == 250
        for k in (0, 1, 17, 199, 249):
            _assert_same_stream(streams[k], policy.path_stream(k))
        assert policy.path_streams(0) == []

    @pytest.mark.parametrize("indices", [[2**32], [-1], [0, 2**70 + 1]], ids=str)
    def test_index_outside_one_word_refused(self, indices):
        with pytest.raises(ValueError, match=r"stream index must lie in \[0, 2\^32\)"):
            spawn_streams(5, (0,), indices)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_streams(-1, (0,), [0])


class TestLoadConfig:
    def test_dirac(self):
        text = json.dumps({"n": 2, "distribution": {"type": "dirac", "matrix": [[0.5, 0.5], [0.5, 0.5]]}})
        dist, params = load_config(text)
        assert dist.kind == "dirac" and dist.n == 2
        assert params.paths == 200 and params.horizon == 300

    def test_finite(self):
        text = json.dumps({
            "distribution": {"type": "finite", "atoms": [
                {"prob": 0.7, "matrix": [[1, 0], [0, 1]]},
                {"prob": 0.3, "matrix": [[0, 1], [1, 0]]},
            ]}
        })
        dist, _ = load_config(text)
        assert dist.kind == "finite" and len(dist.atoms) == 2

    def test_bad_prob_sum_reported(self):
        text = json.dumps({
            "distribution": {"type": "finite", "atoms": [
                {"prob": 0.7, "matrix": [[1, 0], [0, 1]]},
                {"prob": 0.4, "matrix": [[0, 1], [1, 0]]},
            ]}
        })
        with pytest.raises(ConfigError, match="atom probabilities sum to 1.1"):
            load_config(text)

    def test_parse_error_has_line(self):
        with pytest.raises(ConfigError, match="line"):
            load_config("{\n  broken\n}")

    def test_matrix_error_names_atom(self):
        text = json.dumps({
            "distribution": {"type": "finite", "atoms": [
                {"prob": 1.0, "matrix": [[0.6, 0.5], [0.5, 0.5]]},
            ]}
        })
        with pytest.raises(ConfigError, match="atom 0"):
            load_config(text)

    def test_n_mismatch(self):
        text = json.dumps({"n": 3, "distribution": {"type": "dirac", "matrix": [[1.0]]}})
        with pytest.raises(ConfigError, match="disagrees"):
            load_config(text)

    @pytest.mark.parametrize("n, shown", [(3, "3"), (3.0, "3.0"), ("3", "'3'")])
    def test_n_mismatch_echoes_the_config_value(self, n, shown):
        with pytest.raises(ConfigError) as exc:
            load_config({"n": n, "distribution": {"type": "dirac", "matrix": [[1.0]]}})
        assert str(exc.value) == f"config field n={shown} disagrees with distribution dimension 1"

    def test_simulation_block(self):
        text = json.dumps({
            "distribution": {"type": "dirac", "matrix": [[1.0]]},
            "simulation": {"paths": 5, "horizon": 10, "eps": 0.01, "seed": 4, "x0": [2.0]},
        })
        _, params = load_config(text)
        assert (params.paths, params.horizon, params.eps, params.seed) == (5, 10, 0.01, 4)
        assert params.x0 == [2.0]

    def test_unknown_simulation_field(self):
        text = json.dumps({
            "distribution": {"type": "dirac", "matrix": [[1.0]]},
            "simulation": {"bogus": 1},
        })
        with pytest.raises(ConfigError, match="bogus"):
            load_config(text)


class TestResolveX0:
    def test_explicit(self):
        x0 = resolve_x0([1.0, 2.0], 2, RngPolicy(0))
        assert np.array_equal(x0, [1.0, 2.0])

    def test_uniform01_seeded(self):
        a = resolve_x0("uniform01", 5, RngPolicy(8))
        b = resolve_x0("uniform01", 5, RngPolicy(8))
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))

    def test_wrong_length(self):
        with pytest.raises(ConfigError, match="length"):
            resolve_x0([1.0], 2, RngPolicy(0))

    def test_bad_keyword(self):
        with pytest.raises(ConfigError):
            resolve_x0("gaussian", 2, RngPolicy(0))


class TestCheckedNumbers:
    @pytest.mark.parametrize("raw", [200, 200.0, "200"])
    def test_integral_values_still_load(self, raw):
        _, params = load_config({"distribution": {"type": "dirac", "matrix": [[1.0]]},
                                 "simulation": {"paths": raw}})
        assert params.paths == 200 and type(params.paths) is int

    def test_largest_64_bit_seed_loads_exactly(self):
        text = json.dumps({"distribution": {"type": "dirac", "matrix": [[1.0]]},
                           "simulation": {"seed": 2**64 - 1}})
        assert load_config(text)[1].seed == 2**64 - 1

    @pytest.mark.parametrize("raw, message", [
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        ("x", "seed must be a number, got 'x'"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_refusals(self, raw, message):
        with pytest.raises(ConfigError) as exc:
            checked_number(int, "seed", raw, 0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw", [float("nan"), float("inf"), -0.5, 1.5])
    def test_bounded_float_must_be_finite_and_in_range(self, raw):
        with pytest.raises(ConfigError, match=r"hold must be in \[0, 1\]"):
            checked_number(float, "hold", raw, 0, 1)


@pytest.mark.parametrize("n", [2, 3, 10, 32, 33, 200])
def test_gossip_picks_match_one_draw_at_a_time(n):
    # the engine's up-front picks: the bits of consecutive sample() calls,
    # and the bit generator's whole state after them (the 32-bit half that
    # integers() buffers included); turned into matrices through the support
    # table up to n = 32, through from_picks above it
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": n})
    sampler = dist.sampler
    # n = 32 is the largest pair table that fits BLOCK_BYTES (4063232 bytes)
    assert (sampler.support is not None) == (n <= 32) == (sampler.from_picks is None)
    assert (sampler.pick is not None) == (n <= 32)
    picks_rng, loop_rng = np.random.default_rng(41), np.random.default_rng(41)
    k = sampler.picks([picks_rng], 257)[0]
    if sampler.support is not None:
        out = sampler.support().take(k, axis=0)
    else:
        out = sampler.from_picks(k, np.full((257, n, n), np.nan))
    sampled = [sample(dist, loop_rng) for _ in range(257)]
    assert np.array_equal(out, np.stack([m.entries for m in sampled]))
    if sampler.support is not None:  # sample returns the validated entry itself, read-only
        assert all(np.shares_memory(m.entries, sampler.support()) for m in sampled)
        assert not any(m.entries.flags.writeable for m in sampled)
    assert picks_rng.bit_generator.state == loop_rng.bit_generator.state
    assert picks_rng.integers(7, size=3).tolist() == loop_rng.integers(7, size=3).tolist()


@pytest.mark.parametrize("n", [*range(2, 9), 32])
def test_gossip_support_is_the_from_picks_block_of_every_pair(n):
    # bit for bit the block the per-step build wrote for choices 0..K-1: the
    # identity, then the four 0.5 entries of each pair
    table = MatrixDistribution.generator("pairwise_gossip", {"n": n}).sampler.support()
    first, second = np.triu_indices(n, 1)
    item = np.arange(len(first))
    want = np.full((len(first), n, n), np.nan)
    want[:] = np.eye(n)
    want[item, first, first] = want[item, second, second] = 0.5
    want[item, first, second] = want[item, second, first] = 0.5
    assert table.shape == want.shape and table.dtype == want.dtype
    assert table.tobytes() == want.tobytes()
    assert not table.flags.writeable
    assert table.nbytes <= core.BLOCK_BYTES


@pytest.mark.parametrize("n, validated", [(3, 0), (32, 0), (33, 40)])
def test_gossip_sample_validates_no_table_entry_again(n, validated, monkeypatch):
    # a table entry was validated with its table; a built draw is validated as it is drawn
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": n})
    if dist.sampler.support is not None:
        dist.sampler.support()
    calls = []
    validate = core.validate_matrix
    monkeypatch.setattr(core, "validate_matrix", lambda raw: calls.append(1) or validate(raw))
    rng = np.random.default_rng(3)
    for _ in range(40):
        sample(dist, rng)
    assert len(calls) == validated


@pytest.mark.parametrize("probs", [None, (1.0,), (0.2, 0.3, 0.5), (0.1, 0.0, 0.9)],
                         ids=["dirac", "finite1", "finite3", "finite_zero_prob"])
def test_atom_sample_matches_picks_route(probs):
    # sample's scalar pick: the atoms, and the stream's end state, of picks([rng], 1)
    mats = [random_stochastic_matrix(np.random.default_rng(k), 3) for k in range(len(probs or (1,)))]
    dist = (MatrixDistribution.dirac(mats[0]) if probs is None
            else MatrixDistribution.finite(list(zip(probs, mats))))
    sample_rng, picks_rng = np.random.default_rng(17), np.random.default_rng(17)
    sampled = [sample(dist, sample_rng) for _ in range(500)]
    picked = [dist.sampler.atoms[int(dist.sampler.picks([picks_rng], 1)[0, 0])][1]
              for _ in range(500)]
    assert all(a is b for a, b in zip(sampled, picked))
    assert sample_rng.bit_generator.state == picks_rng.bit_generator.state
    if probs is not None and len(probs) > 1:
        assert len({id(m) for m in sampled}) == sum(p > 0 for p in probs)


@pytest.mark.parametrize("count", [0, 1, 37])
def test_finite_picks_equal_stacked_per_stream_draws(count):
    # filled in place, one stream at a time: the picks and the end stream
    # states of one np.stack over per-stream draws
    probs = (0.1, 0.0, 0.9 - 5e-10)
    mats = [random_stochastic_matrix(np.random.default_rng(k), 3) for k in range(3)]
    dist = MatrixDistribution.finite(list(zip(probs, mats)))
    filled = [np.random.default_rng(s) for s in range(5)]
    stacked = [np.random.default_rng(s) for s in range(5)]
    got = dist.sampler.picks(filled, count)
    want = pick_atoms(probs, np.stack([rng.random(count) for rng in stacked]))
    assert got.shape == (5, count) and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert [r.bit_generator.state for r in filled] == [r.bit_generator.state for r in stacked]


def test_gossip_pair_tables_wait_for_the_first_draw():
    # n(n-1)/2 = 4498500 pairs: a dimension refusal must not build their tables
    tracemalloc.start()
    try:
        dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3000})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert dist.sampler.picks([np.random.default_rng(0)], 4).max() < 3000 * 2999 // 2


def test_dirichlet_concentration_waits_for_the_first_draw():
    # an (n,) concentration vector of 800 MB: the verdict refuses the dimension first
    tracemalloc.start()
    try:
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": 10**8, "alpha": 0.5})
        with pytest.raises(ConfigError, match="dimension 100000000 exceeds supported maximum 256"):
            random_verdict(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    small = MatrixDistribution.generator("dirichlet_rows", {"n": 3, "alpha": 0.5})
    draw = small.sampler.draw(np.random.default_rng(1))
    assert np.array_equal(draw, np.random.default_rng(1).dirichlet(np.full(3, 0.5), size=3))


def test_dirac_path_draws_allocate_no_picks_array():
    # a (2000, 2000) array of picks would take 32 MB; a dirac's picks draw nothing
    dist = MatrixDistribution.dirac(validate_matrix(np.full((3, 3), 1 / 3)))
    streams = RngPolicy(4).path_streams(2000)
    states = [rng.bit_generator.state for rng in streams[:3]]
    tracemalloc.start()
    try:
        draws = path_draws(dist, streams, 2000)
        for t in range(1, 2001):
            block = draws(slice(0, 2000), t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert block.shape == (2000, 3, 3) and np.array_equal(block[-1], dist.matrix.entries)
    assert block.strides[0] == 0  # a one-entry table is broadcast, not copied per step
    assert [rng.bit_generator.state for rng in streams[:3]] == states


def _path_draws_cases():
    rng = np.random.default_rng(12)

    def stoch(n):
        return validate_matrix(random_stochastic(rng, n))

    finite3 = MatrixDistribution.finite([(0.3, stoch(3)), (0.7, stoch(3))])
    params = {
        "pairwise_gossip": {"n": 6},
        "dirichlet_rows": {"n": 4, "alpha": 0.7},
        "lazy_permutation": {"n": 5, "hold_prob": 0.3},
        "lifted_pair": {
            "alpha": 0.4, "beta": 0.6,
            "dist_a": {"n": 3, "distribution": {
                "type": "generator", "name": "pairwise_gossip", "params": {"n": 3}}},
            "dist_b": {"n": 3, "distribution": finite3.to_config()},
        },
    }
    cases = {
        "dirac": MatrixDistribution.dirac(stoch(4)),
        "finite_zero_prob": MatrixDistribution.finite(
            [(p, stoch(5)) for p in (0.0, 0.4, 0.0, 0.6, 0.0)]),
    }
    for name in registered_generators():
        cases[name] = MatrixDistribution.generator(name, params[name])
    return cases


@pytest.mark.parametrize("name, per_slice", [
    *((name, None) for name in sorted(_path_draws_cases())),
    ("finite_zero_prob", 3), ("pairwise_gossip", 3), ("dirichlet_rows", 3),
])
def test_path_draws_match_one_draw_at_a_time(name, per_slice, monkeypatch):
    # every block row is the draw one-at-a-time sample() calls on the path's
    # own stream give, and every stream ends where those calls leave it
    dist = _path_draws_cases()[name]
    n, paths, horizon = dist.n, 7, 5
    if per_slice is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", per_slice * 8 * n * n)
    slices = block_slices(paths, n)
    assert (len(slices) > 1) == (per_slice is not None)
    streams, loop_streams = RngPolicy(9).path_streams(paths), RngPolicy(9).path_streams(paths)
    draws = path_draws(dist, streams, horizon)
    got = np.full((paths, horizon, n, n), np.nan)
    for t in range(1, horizon + 1):
        for sl in slices:
            block = draws(sl, t)
            assert block.shape == (sl.stop - sl.start, n, n)
            got[sl, t - 1] = block
    expected = [[sample(dist, rng).entries for _ in range(horizon)] for rng in loop_streams]
    assert np.array_equal(got, np.array(expected))
    for rng, loop_rng in zip(streams, loop_streams):
        assert rng.bit_generator.state == loop_rng.bit_generator.state
