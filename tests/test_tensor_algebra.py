"""Truncated tensor algebra: worked examples and algebraic identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logsigrnn.tensor_algebra import (
    TruncatedTensor,
    exp_level_one,
    shuffle,
    tensor_exp,
    tensor_log,
    tensor_mul,
    word_index,
)


def random_tensor(rng, width, degree, lie_like=False):
    levels = [rng.uniform(-1.0, 1.0, width**k) for k in range(degree + 1)]
    if lie_like:
        levels[0][0] = 0.0
    return TruncatedTensor(width, degree, levels)


class TestStorage:
    def test_block_sizes_validated(self):
        with pytest.raises(ValueError, match="entries"):
            TruncatedTensor(2, 2, [np.zeros(1), np.zeros(2), np.zeros(3)])

    @pytest.mark.parametrize("width", range(2, 6))
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_total_storage_geometric(self, width, degree):
        t = TruncatedTensor.zero(width, degree)
        assert t.storage_size() == (width ** (degree + 1) - 1) // (width - 1)

    def test_width_one_storage(self):
        assert TruncatedTensor.zero(1, 4).storage_size() == 5


class TestMul:
    def test_bilinear_expansion(self):
        # (1 + e1)(1 + e2) = 1 + e1 + e2 + e1 (x) e2
        a = TruncatedTensor.unit(2, 2) + TruncatedTensor.from_level_one([1, 0], 2)
        b = TruncatedTensor.unit(2, 2) + TruncatedTensor.from_level_one([0, 1], 2)
        c = tensor_mul(a, b)
        assert c.scalar() == 1.0
        assert np.array_equal(c.levels[1], [1.0, 1.0])
        expected = np.zeros(4)
        expected[word_index((1, 2), 2)] = 1.0
        assert np.array_equal(c.levels[2], expected)

    def test_unit_is_identity(self):
        rng = np.random.default_rng(0)
        a = random_tensor(rng, 3, 3)
        unit = TruncatedTensor.unit(3, 3)
        assert tensor_mul(a, unit).allclose(a)
        assert tensor_mul(unit, a).allclose(a)

    def test_associative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (random_tensor(rng, 3, 3) for _ in range(3))
            left = tensor_mul(tensor_mul(a, b), c)
            right = tensor_mul(a, tensor_mul(b, c))
            assert left.allclose(right, atol=1e-12)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            tensor_mul(TruncatedTensor.zero(2, 2), TruncatedTensor.zero(3, 2))
        with pytest.raises(ValueError, match="incompatible"):
            tensor_mul(TruncatedTensor.zero(2, 2), TruncatedTensor.zero(2, 3))


class TestExpLog:
    def test_exp_of_zero_is_unit(self):
        assert tensor_exp(TruncatedTensor.zero(2, 3)).allclose(TruncatedTensor.unit(2, 3))

    def test_exp_of_level_one_vector(self):
        e = tensor_exp(TruncatedTensor.from_level_one([1.0, 2.0], 2))
        assert np.allclose(e.levels[1], [1.0, 2.0])
        assert np.allclose(e.levels[2].reshape(2, 2), [[0.5, 1.0], [1.0, 2.0]])

    def test_exp_requires_zero_scalar(self):
        with pytest.raises(ValueError, match="zero degree-0"):
            tensor_exp(TruncatedTensor.unit(2, 2))

    def test_log_of_unit_is_zero(self):
        assert tensor_log(TruncatedTensor.unit(3, 3)).allclose(TruncatedTensor.zero(3, 3))

    def test_log_requires_unit_scalar(self):
        with pytest.raises(ValueError, match="equal to 1"):
            tensor_log(TruncatedTensor.zero(2, 2))

    def test_log_of_corner_path_signature(self):
        # exp(e1) (x) exp(e2): log level 2 is the antisymmetric area 1/2
        s = tensor_mul(
            exp_level_one([1.0, 0.0], 2),
            exp_level_one([0.0, 1.0], 2),
        )
        logsig = tensor_log(s)
        assert np.allclose(logsig.levels[1], [1.0, 1.0])
        assert np.allclose(logsig.levels[2].reshape(2, 2), [[0.0, 0.5], [-0.5, 0.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_exp_log_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        a = random_tensor(rng, 2, 4, lie_like=True)
        back = tensor_log(tensor_exp(a))
        assert back.allclose(a, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_log_exp_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        # group-like-ish input: unit scalar, arbitrary higher levels
        a = random_tensor(rng, 2, 4)
        a.levels[0][0] = 1.0
        back = tensor_exp(tensor_log(a))
        assert back.allclose(a, atol=1e-12)

    def test_exp_level_one_matches_general_exp(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, 3)
        fast = exp_level_one(v, 4)
        general = tensor_exp(TruncatedTensor.from_level_one(v, 4))
        assert fast.allclose(general, atol=1e-14)


def brute_force_shuffle(u, v):
    """Enumerate interleavings by choosing the positions of u."""
    out = {}
    total = len(u) + len(v)
    for positions in itertools.combinations(range(total), len(u)):
        word = [None] * total
        ui = iter(u)
        vi = iter(v)
        for i in range(total):
            word[i] = next(ui) if i in positions else next(vi)
        key = tuple(word)
        out[key] = out.get(key, 0) + 1
    return out


class TestShuffle:
    def test_two_letters(self):
        assert shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}

    def test_empty_word_is_unit(self):
        assert shuffle((1,), ()) == {(1,): 1}
        assert shuffle((), ()) == {(): 1}

    def test_three_letter_enumeration(self):
        assert shuffle((1, 2), (3,)) == {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1}

    @pytest.mark.parametrize(
        "u,v",
        [((1,), (1,)), ((1, 2), (2, 1)), ((1, 1), (2, 3)), ((1, 2, 3), (1, 2))],
    )
    def test_matches_brute_force(self, u, v):
        assert shuffle(u, v) == brute_force_shuffle(u, v)

    @given(
        st.lists(st.integers(1, 3), max_size=4),
        st.lists(st.integers(1, 3), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_coefficient_mass(self, u, v):
        result = shuffle(tuple(u), tuple(v))
        assert sum(result.values()) == math.comb(len(u) + len(v), len(u))

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="exceeds truncation"):
            shuffle((1, 2), (3, 4), degree=3)
        assert shuffle((1, 2), (3,), degree=3)


class TestWordIndex:
    def test_row_major(self):
        assert word_index((1, 2), 2) == 1
        assert word_index((2, 1), 2) == 2
        assert word_index((2, 2, 2), 2) == 7

    def test_alphabet_guard(self):
        with pytest.raises(ValueError, match="alphabet"):
            word_index((3,), 2)
