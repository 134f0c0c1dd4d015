"""The vectorized seed derivation against numpy's own SeedSequence and
default_rng, which stay here as the truth, key by key."""

import numpy as np
import pytest

from gkdvlab import streams, wiener
from gkdvlab.streams import child_seed, child_seeds, rng_for, rngs_for, seed_states
from gkdvlab.wiener import DISTRIBUTIONS, coefficient_draws, sample_coefficients

EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def _numpy_states(entropies, n_words):
    """The truth: numpy's SeedSequence, one key at a time."""
    return np.array(
        [np.random.SeedSequence(e).generate_state(n_words, np.uint64) for e in entropies],
        dtype=np.uint64,
    ).reshape(len(entropies), n_words)


def _keys(n, seed):
    """n keys: the first indices, the uint32 word edges and random 64-bit keys."""
    rng = np.random.default_rng(seed)
    head = np.array(EDGES + [2**64 - 1], np.uint64)
    body = rng.integers(0, 2**64, n - head.size - 1000, dtype=np.uint64, endpoint=False)
    return np.concatenate([np.arange(1000, dtype=np.uint64), head, body])


class TestSeedStates:
    def test_one_word_entropies_equal_numpy_on_1e5_keys(self):
        # the master alone: keys below and above 2^32 take one and two words
        keys = _keys(100_000, 1)
        assert np.array_equal(seed_states((keys,), 4), _numpy_states(keys.tolist(), 4))

    @pytest.mark.parametrize("master", [20260810] + EDGES)
    def test_two_word_entropies_equal_numpy(self, master):
        # (master, k): 17 000 keys at each of six masters, over 10^5 in all
        keys = _keys(17_000, master % 97)
        got = seed_states((master, keys), 1)
        assert np.array_equal(got, _numpy_states([(master, k) for k in keys.tolist()], 1))

    @pytest.mark.parametrize("n_words", [1, 2, 3, 4, 5])
    def test_every_output_length(self, n_words):
        keys = _keys(1200, n_words)
        want = _numpy_states([(7, k) for k in keys.tolist()], n_words)
        assert np.array_equal(seed_states((7, keys), n_words), want)

    def test_entropy_beyond_the_pool(self):
        # five and more uint32 words mix the rest into the pool word by word
        keys = _keys(1200, 3)
        big = 2**100 + 12345
        want = _numpy_states([(2**63 - 1, k, k, big) for k in keys.tolist()], 2)
        assert np.array_equal(seed_states((2**63 - 1, keys, keys, big), 2), want)

    @pytest.mark.parametrize("key", EDGES + [2**64 - 1, 2**64, 2**90 + 3])
    def test_single_int_entropy(self, key):
        want = np.random.SeedSequence(key).generate_state(4, np.uint64)
        assert np.array_equal(seed_states((key,), 4), want[None, :])

    def test_no_keys(self):
        assert seed_states((5, np.zeros(0, np.uint64)), 3).shape == (0, 3)

    def test_negative_key_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            seed_states((-1,), 1)

    @pytest.mark.parametrize(
        "name",
        ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_MULT_L", "_MIX_MULT_R", "_XSHIFT",
         "_POOL_SIZE"],
    )
    def test_each_constant_is_pinned(self, monkeypatch, name):
        # any one mixing constant changed by one no longer gives numpy's words
        keys = _keys(1100, 5)
        want = _numpy_states([(20260810, k) for k in keys.tolist()], 2)
        assert np.array_equal(seed_states((20260810, keys), 2), want)
        monkeypatch.setattr(streams, name, getattr(streams, name) + 1)
        got = seed_states((20260810, keys), 2)
        assert not np.any(np.all(got == want, axis=1))


class TestChildSeeds:
    @pytest.mark.parametrize("master", [20260810, 7, 42] + EDGES + [2**64 + 5])
    def test_equal_per_key_child_seed(self, master):
        seeds = child_seeds(master, 3000)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [child_seed(master, k) for k in range(3000)]

    def test_no_seeds(self):
        assert child_seeds(3, 0).shape == (0,)


def _former_sample_coefficients(distribution, seed, n_max):
    """The former draw: numpy's SeedSequence and default_rng per seed, and
    three component draws of 1, n_max and n_max."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    g0 = wiener._component_draws(rng, distribution, 1)[0]
    re = wiener._component_draws(rng, distribution, n_max)
    im = wiener._component_draws(rng, distribution, n_max)
    if distribution == "ones":
        positive = np.ones(n_max, dtype=np.complex128)
        g0 = 1.0
    else:
        positive = (re + 1j * im) / np.sqrt(2.0)
    return np.concatenate([np.conj(positive[::-1]), [g0 + 0.0j], positive])


def _draw_seeds(n):
    """n draw seeds: the 63-bit child seeds of an ensemble, the uint32 word
    edges and small seeds, which take one uint32 word."""
    edges = np.array(EDGES + [2**64 - 1], np.uint64)
    return np.concatenate([edges, np.arange(100, dtype=np.uint64), child_seeds(20260810, n - 106)])


class TestCoefficientDraws:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_equal_sample_coefficients_on_2e4_seeds(self, distribution):
        seeds = _draw_seeds(20_000)
        for seed, g in zip(seeds.tolist(), coefficient_draws(distribution, seeds, 3)):
            assert g.tobytes() == sample_coefficients(distribution, seed, 3).tobytes()
            assert not g.flags.writeable

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("n_max", [1, 5, 12])
    def test_one_draw_equals_the_former_three(self, distribution, n_max):
        # g_0, the real parts and the imaginary parts from one draw of
        # 2 n_max + 1 components: the bytes of the former three draws
        seeds = _draw_seeds(2000)
        for seed, g in zip(seeds.tolist(), coefficient_draws(distribution, seeds, n_max)):
            former = _former_sample_coefficients(distribution, seed, n_max)
            assert g.tobytes() == former.tobytes()

    def test_generators_equal_rng_for(self):
        seeds = _draw_seeds(500)
        for seed, rng in zip(seeds.tolist(), rngs_for(seeds)):
            assert rng.random(9).tobytes() == rng_for(seed).random(9).tobytes()
        assert next(rngs_for(2**70)).random() == rng_for(2**70).random()

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            next(coefficient_draws("cauchy", child_seeds(1, 2), 4))
