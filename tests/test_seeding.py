"""The batched stream seeding against numpy's own SeedSequence and PCG64."""

from __future__ import annotations

import numpy as np
import pytest

from regimetest._seeding import _HashedWords, _seed_words, normal_rows

SEEDS = [0, 1, 12345, 2**32 + 7, 2**64 - 1, -3, 3**39]  # -3 and 3**39 exercise the 64-bit mask
PATHS = [(1,), (4, 2), (4, 2**32 + 5)]


def _numpy_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), *path]))


def _entropy_words(seed: int, *path: int) -> int:
    """uint32 words SeedSequence takes from ``[seed, *path, index]``, one per index."""
    return sum(max(1, -(-value.bit_length() // 32)) for value in (seed & (2**64 - 1), *path)) + 1


def test_cases_cover_entropy_of_three_to_six_words():
    # above 4 words the entropy overflows the pool and is mixed in afterwards
    assert {_entropy_words(seed, *path) for seed in SEEDS for path in PATHS} == {3, 4, 5, 6}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_rows_equal_numpy_streams_bit_for_bit(seed, path):
    rows = normal_rows(seed, *path, rows=6, T=17)
    assert rows.shape == (6, 17)
    for i, row in enumerate(rows):
        want = _numpy_rng(seed, *path, i).standard_normal(17)
        np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_states_at_the_end_indices_equal_numpy(seed, path):
    # the hashed words PCG64 seeds itself from, at the first and last index
    indices = np.array([0, 2**32 - 1])
    words = _seed_words(seed, path, indices)
    assert words.dtype == np.uint64 and words.shape == (2, 4)
    for index, got in zip(indices.tolist(), words):
        want = np.random.SeedSequence([seed & (2**64 - 1), *path, index]).generate_state(4, np.uint64)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("request_", [(4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64), (4, float)])
def test_hashed_words_refuse_other_requests(request_):
    words = _HashedWords(np.arange(4, dtype=np.uint64))
    with pytest.raises(ValueError, match="holds 4 uint64 words"):
        words.generate_state(*request_)


def test_hashed_words_hand_back_a_fresh_buffer():
    # PCG64 reads the buffer's data pointer: each answer is a new C-contiguous array
    held = _seed_words(3, (1,), np.arange(2))[1]
    words = _HashedWords(held)
    first, second = (words.generate_state(4, dtype) for dtype in (np.uint64, "uint64"))
    for got in (first, second):
        assert got.dtype == np.uint64 and got.shape == (4,) and got.flags.c_contiguous
        assert not np.shares_memory(got, held)
        np.testing.assert_array_equal(got, held)
    assert not np.shares_memory(first, second)
    bit_generator = np.random.PCG64(np.random.SeedSequence([3, 1, 1]))
    assert np.random.PCG64(words).state == bit_generator.state


def test_scalar_draw_then_vector_is_one_row():
    # the CHP bootstrap takes y_1 from column 0 and the innovations from 1..T-1
    rng = _numpy_rng(7, 4, 3)
    first, rest = rng.standard_normal(), rng.standard_normal(9)
    np.testing.assert_array_equal(normal_rows(7, 4, rows=4, T=10)[3], np.r_[first, rest])


def test_zero_rows():
    assert normal_rows(3, 1, rows=0, T=5).shape == (0, 5)


@pytest.mark.parametrize("index", [-1, 2**32, 2**40])
def test_index_outside_one_word_is_rejected(index):
    with pytest.raises(ValueError, match="stream indices"):
        _seed_words(0, (1,), np.array([0, index]))


@pytest.mark.parametrize("rows", [-1, 2**32 + 1])
def test_row_count_outside_the_index_range_is_rejected(rows):
    # checked before anything is allocated
    with pytest.raises(ValueError, match="rows must lie in"):
        normal_rows(0, 1, rows=rows, T=5)


def test_negative_path_element_is_rejected_like_seed_sequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence([0, -1, 0])
    with pytest.raises(ValueError, match="non-negative"):
        normal_rows(0, -1, rows=2, T=3)
