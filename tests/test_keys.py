import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from wmseg.keys import (
    CONTEXT_SENTINEL,
    affine_key,
    affine_keys,
    generator,
    group_by_seed,
    key_seed,
    key_seeds,
    mix,
    pcg64_states,
    splitmix64,
    uniform_open,
    uniform_open_at,
    units_mod,
)
from wmseg.schemes import SchemeSpec

# The counter layer does wrapping uint64/uint32 arithmetic; a numpy overflow
# warning would mean an operation ran on scalars and may not have wrapped.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# SeedSequence reads a seed below 2^32 as one 32-bit entropy word and a
# larger one as two, so the edge seeds sit on both sides of each word.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def test_splitmix64_is_stable():
    # Reference values from the canonical splitmix64 sequence seeded at 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_splitmix64_round_trips_to_64_bits(x):
    assert 0 <= splitmix64(x) < 2**64


def test_mix_is_order_sensitive():
    assert mix(1, 2) != mix(2, 1)
    assert mix(1, 2, 3) != mix(1, 2)


def test_key_seed_depends_on_master_and_context():
    seeds_a = {key_seed(1, p) for p in range(-1, 100)}
    seeds_b = {key_seed(2, p) for p in range(-1, 100)}
    assert len(seeds_a) == 101
    assert not seeds_a & seeds_b


def test_sentinel_context_gives_a_valid_seed():
    assert 0 <= key_seed(123, CONTEXT_SENTINEL) < 2**64


def test_uniform_open_stays_inside_unit_interval(rng):
    u = uniform_open(generator(5), 100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_generator_is_deterministic():
    a = generator(99).random(8)
    b = generator(99).random(8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("master", (0, 1, 2**64 - 1))
def test_key_seeds_equal_key_seed(master):
    contexts = np.arange(CONTEXT_SENTINEL, 1000)
    seeds = key_seeds(master, contexts)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [key_seed(master, c) for c in contexts.tolist()]


def _numpy_pcg64_states(seeds):
    states = (np.random.PCG64(seed).state["state"] for seed in seeds)
    return [(state["state"], state["inc"]) for state in states]


def _counter_pcg64_states(seeds):
    state_hi, state_lo, inc_hi, inc_lo = (part.tolist() for part in pcg64_states(seeds))
    return [(s_hi << 64 | s_lo, c_hi << 64 | c_lo)
            for s_hi, s_lo, c_hi, c_lo in zip(state_hi, state_lo, inc_hi, inc_lo)]


def test_pcg64_states_equal_numpy_seeding_at_entropy_word_edges():
    assert _counter_pcg64_states(EDGE_SEEDS) == _numpy_pcg64_states(EDGE_SEEDS)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_pcg64_states_equal_numpy_seeding(seeds):
    assert _counter_pcg64_states(seeds) == _numpy_pcg64_states(seeds)


@pytest.mark.parametrize("vocab", (2, 20, 1000, 50_000))
def test_uniform_open_at_equals_the_coordinate_of_uniform_open(vocab):
    rng = np.random.default_rng(vocab)
    seeds = [*EDGE_SEEDS, *rng.integers(0, 2**64 - 1, 24, dtype=np.uint64, endpoint=True).tolist()]
    index = rng.integers(0, vocab, len(seeds))
    index[:3] = 0, vocab - 1, vocab - 1
    expected = [uniform_open(generator(seed), vocab)[i] for seed, i in zip(seeds, index.tolist())]
    assert np.array_equal(uniform_open_at(np.array(seeds, dtype=np.uint64), index), expected)


def test_group_by_seed_lists_the_positions_of_each_distinct_seed():
    seeds = np.array([7, 3, 7, 9, 3, 7], dtype=np.uint64)
    distinct, positions = group_by_seed(seeds)
    assert distinct.tolist() == [3, 7, 9]
    assert [p.tolist() for p in positions] == [[1, 4], [0, 2, 5], [3]]


AFFINE_VOCABS = (2, 3, 20, 997, 1000, 1024)


@pytest.mark.parametrize("vocab", AFFINE_VOCABS)
@given(seed=st.integers(0, 2**64 - 1))
def test_affine_keys_permute_the_vocabulary(vocab, seed):
    u, a, c = affine_key(seed, vocab, units_mod(vocab))
    assert 0.0 < u <= 1.0 and 0 <= c < vocab
    assert math.gcd(a, vocab) == 1
    perm = SchemeSpec("inverse", vocab).key_at(seed).perm
    assert np.array_equal(np.sort(perm), np.arange(vocab))
    red_green = SchemeSpec("red_green", vocab, green_frac=0.5)
    assert np.count_nonzero(red_green.key_at(seed).green) == vocab // 2


def test_units_mod_are_the_residues_coprime_to_v():
    for vocab in AFFINE_VOCABS:
        expected = [r for r in range(vocab) if math.gcd(r, vocab) == 1]
        assert units_mod(vocab).tolist() == expected


@pytest.mark.parametrize("vocab", (20, 1000))
def test_a_fixed_tokens_affine_rank_is_uniform(vocab):
    token = 7
    _, a, c = affine_keys(np.arange(20_000, dtype=np.uint64), vocab, units_mod(vocab))
    counts = np.bincount((a * token + c) % vocab, minlength=vocab)
    assert stats.chisquare(counts).pvalue > 0.01


@pytest.mark.parametrize("vocab", AFFINE_VOCABS)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_affine_key_equals_affine_keys(vocab, seeds):
    seeds = [*EDGE_SEEDS, *seeds]
    units = units_mod(vocab)
    u, a, c = affine_keys(np.array(seeds, dtype=np.uint64), vocab, units)
    assert [affine_key(seed, vocab, units) for seed in seeds] == list(zip(u, a, c))
