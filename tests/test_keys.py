import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from scheme_theory import uniform_open
from wmseg import keys
from wmseg.keys import (
    CONTEXT_SENTINEL,
    TAG_KEY,
    affine_key,
    affine_keys,
    generator,
    key_seed,
    key_seeds,
    mix,
    mulhi,
    splitmix64,
    splitmix64_array,
    unit,
    units_mod,
)
from wmseg.schemes import SchemeSpec

# The keyed hashes do wrapping uint64 arithmetic; a numpy overflow warning
# would mean an operation ran on scalars and may not have wrapped.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Seeds at the ends of the 64-bit range and on both sides of the 32- and
# 63-bit boundaries, where a hash that dropped or sign-extended the high
# word, or a float conversion of it, would first go wrong.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def test_splitmix64_is_stable():
    # Reference values from the canonical splitmix64 sequence seeded at 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)


def test_splitmix64_array_equals_the_scalar_hash_and_keeps_its_input():
    seeds = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
    before = seeds.copy()
    hashed = splitmix64_array(seeds)
    assert np.array_equal(seeds, before)
    assert hashed.dtype == np.uint64
    assert hashed.tolist() == [splitmix64(int(x)) for x in before]


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


@given(masters=st.lists(st.integers(0, 2**80), min_size=keys._key_seed_prefix.cache_info().maxsize,
                        max_size=40, unique=True),
       contexts=st.lists(st.integers(CONTEXT_SENTINEL, 2**32), min_size=1, max_size=4))
def test_key_seed_is_the_mix_of_master_tag_and_context(masters, contexts):
    """``key_seed`` folds the context onto its cached prefix of the master
    seed. Master seeds include 0 and seeds above 2^64 (whose low 64 bits
    are 0 and 7), contexts include CONTEXT_SENTINEL, and the calls cycle
    twice through more distinct master seeds than the cache holds, so
    prefixes are evicted, recomputed and reused."""
    masters = [0, 2**64, 2**64 + 7, *masters]
    for _ in range(2):
        for prev in (CONTEXT_SENTINEL, *contexts):
            for master in masters:
                assert key_seed(master, prev) == mix(master, TAG_KEY, prev + 1)


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


def test_unit_lies_strictly_inside_the_unit_interval():
    top = 2**64 - 1
    assert unit(0) > 0.0 and unit(top) < 1.0
    assert unit(np.array([0, top], dtype=np.uint64)).tolist() == [unit(0), unit(top)]


@pytest.mark.parametrize("vocab", (2, 20, 1000, 50_000))
def test_gumbel_key_coordinate_equals_pivots(vocab):
    scheme = SchemeSpec("gumbel", vocab)
    for seed in (0, 2**64 - 1):
        uniforms = scheme.key_at(seed).uniforms
        for token in (0, vocab - 1):
            pivot = scheme.pivots(np.array([token]), np.array([seed], dtype=np.uint64))
            assert uniforms[token] == pivot[0]


def test_a_fixed_gumbel_coordinate_is_uniform_over_key_seeds():
    scheme = SchemeSpec("gumbel", 1000)
    seeds = np.arange(20_000, dtype=np.uint64)
    pivots = scheme.pivots(np.full(seeds.size, 7), seeds)
    counts = np.bincount((pivots * 20).astype(np.int64), minlength=20)
    assert stats.chisquare(counts).pvalue > 0.01


AFFINE_VOCABS = (2, 3, 20, 997, 1000, 1024)


@pytest.mark.parametrize("vocab", AFFINE_VOCABS)
@given(seed=st.integers(0, 2**64 - 1))
def test_affine_keys_permute_the_vocabulary(vocab, seed):
    u, a, c = affine_key(seed, vocab, units_mod(vocab))
    assert 0.0 < u < 1.0 and 0 <= c < vocab
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


@pytest.mark.parametrize("m", (1, 2, 3, 20, 997, 1000, 2**31, 2**32 - 1))
@given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_mulhi_is_the_high_word_of_the_128_bit_product(m, hashes):
    hashes = [*EDGE_SEEDS, 2**32 + 1, 2**64 - 2**32, *hashes]
    got = mulhi(np.array(hashes, dtype=np.uint64), m)
    assert got.dtype == np.uint64
    assert got.tolist() == [h * m >> 64 for h in hashes]


def test_affine_keys_of_a_seed_matrix_are_its_rows_keys():
    # The K x n seeds of a keyed certificate hash in one call too.
    seeds = np.arange(12, dtype=np.uint64).reshape(3, 4) * np.uint64(0x9E3779B97F4A7C15)
    units = units_mod(1000)
    whole = affine_keys(seeds, 1000, units)
    for row in range(3):
        for got, expected in zip(whole, affine_keys(seeds[row], 1000, units)):
            assert np.array_equal(got[row], expected)
