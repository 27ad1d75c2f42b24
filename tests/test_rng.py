"""Bulk substream uniforms: ``uniform_rows`` against one Generator per row."""

import numpy as np
import pytest

from idgp.rng import BLOCK_ROWS, STREAMS, substream, uniform_rows

# one, three and five SeedSequence entropy words with the stream and row words,
# so the pool is both padded and overfilled
SEEDS = (0, 1, 2 ** 32 + 7, 2 ** 70 + 3)


@pytest.mark.parametrize("c", (1, 2, 10, 50))
@pytest.mark.parametrize("n", (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1))
@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("seed", SEEDS)
def test_rows_are_the_substream_uniforms_bit_for_bit(seed, name, n, c):
    u = uniform_rows(seed, name, n, c)
    assert u.shape == (n, c) and u.dtype == np.float64
    # the first and last rows of each block and of the array
    rows = sorted({0, 1, n // 2, BLOCK_ROWS - 1, BLOCK_ROWS, n - 1} & set(range(n)))
    expected = np.array([substream(seed, name, i).random(c) for i in rows])
    assert np.array_equal(u[rows].view(np.uint64), expected.view(np.uint64))


def test_every_row_of_a_small_array():
    u = uniform_rows(12345, "corrupt", 300, 7)
    expected = np.array([substream(12345, "corrupt", i).random(7) for i in range(300)])
    assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


def test_empty_shapes():
    assert uniform_rows(3, "shuffle", 0, 4).shape == (0, 4)
    assert uniform_rows(3, "shuffle", 5, 0).shape == (5, 0)


def test_negative_seed_is_refused_like_the_generator():
    with pytest.raises(ValueError):
        substream(-1, "corrupt", 0)
    with pytest.raises(ValueError, match="seed >= 0"):
        uniform_rows(-1, "corrupt", 2, 2)
