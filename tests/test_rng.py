"""Named substreams, and the one corruption stream read row by row."""

import numpy as np
import pytest

from idgp.generation import corrupt_instance_dependent, corrupt_uniform, make_clean_dataset
from idgp.rng import STREAMS, substream

# one, two and three SeedSequence entropy words for the seed itself
SEEDS = (0, 1, 2 ** 32 + 7, 2 ** 70 + 3)
# the stream ids enter every seed, so renumbering one changes every output
IDS = {"split": 0, "init": 1, "shuffle": 2, "corrupt": 3}


def test_stream_ids_are_fixed():
    assert STREAMS == IDS


@pytest.mark.parametrize("extra", ((), (0,), (5,), (2 ** 40, 3)))
@pytest.mark.parametrize("name", sorted(IDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_substream_is_the_seeded_generator_bit_for_bit(seed, name, extra):
    u = substream(seed, name, *extra).random(8)
    expected = np.random.default_rng([seed, IDS[name], *extra]).random(8)
    assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_and_their_splits_differ(seed):
    # not () beside (0,): SeedSequence pads short entropy with zeros, so below
    # 2**64 those are one generator, and no name is drawn both ways
    draws = [substream(seed, name, *extra).random(4).tobytes()
             for name in IDS for extra in ((0,), (1,), (7,))]
    assert len(set(draws)) == len(draws)


def test_negative_seed_is_refused_like_the_generator():
    with pytest.raises(ValueError):
        substream(-1, "corrupt", 0)


def hand_rule(labels, probs, seed, c):
    """Row i reads positions i(c + 1) .. i(c + 1) + c of the one corrupt stream."""
    n = len(labels)
    flat = substream(seed, "corrupt").random(n * (c + 1))
    mask = np.zeros((n, c), dtype=bool)
    for i, label in enumerate(labels.tolist()):
        row = flat[i * (c + 1):(i + 1) * (c + 1)]
        members = [bool(row[k] < probs[i, k]) or k == label for k in range(c)]
        if all(members):
            wrong = [k for k in range(c) if k != label]
            members[wrong[int(row[c] * (c - 1))]] = False
        mask[i] = members
    return mask


@pytest.mark.parametrize("flips", ("uniform_low", "uniform_high", "instance", "saturated"))
@pytest.mark.parametrize("n", (1, 2, 257, 1000))
@pytest.mark.parametrize("c", (2, 3, 10, 50))
@pytest.mark.parametrize("seed", SEEDS)
def test_corruption_reads_the_one_stream_by_row(seed, c, n, flips):
    # "saturated" makes every set full, so every row drops the label its last
    # uniform picks; at c=2 that is always the one wrong label
    gen = np.random.default_rng([n, c])
    labels = gen.integers(c, size=n)
    ds = make_clean_dataset(gen.normal(size=(n, 2)), labels, c)
    if flips.startswith("uniform"):
        p = 0.3 if flips == "uniform_low" else 0.95
        out, _ = corrupt_uniform(ds, p, seed)
        probs = np.full((n, c), p)
    else:
        scores = gen.normal(scale=2.0, size=(n, c)) if flips == "instance" else np.full((n, c), 50.0)
        out, _ = corrupt_instance_dependent(ds, scores, seed)
        probs = 1.0 / (1.0 + np.exp(-scores))
    assert np.array_equal(out.mask, hand_rule(labels, probs, seed, c))
    if flips == "saturated":
        assert np.count_nonzero(out.mask, axis=1).tolist() == [c - 1] * n
