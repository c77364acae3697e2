"""Stream derivation: every distinct path is its own stream, and each is
the stream NumPy builds from the same seed and spawn key."""

import numpy as np
import pytest

from transferopt.rng import derive_rng

from helpers import seedsequence_rng

EDGE_PATHS = [(0,), (2 ** 64 - 1,), (0, 2 ** 32), (2 ** 64 - 1, 2 ** 64 - 1)]


def _head(*path):
    return derive_rng(*path).integers(0, 2 ** 63, size=4).tolist()


def _random_paths(count, seed):
    """Paths of 1-5 elements, each a small integer, a value within 3 of
    2**32, or any value up to 2**64 - 1."""
    rng = np.random.default_rng(seed)

    def element():
        kind = rng.integers(3)
        if kind == 0:
            return int(rng.integers(0, 100))
        if kind == 1:
            return 2 ** 32 + int(rng.integers(-3, 4))
        return int(rng.integers(0, 2 ** 64, dtype=np.uint64))
    return [tuple(element() for _ in range(rng.integers(1, 6)))
            for _ in range(count)]


def _draws(gen):
    return (gen.integers(0, 2 ** 63, size=3).tolist(),
            gen.multinomial(1000, [0.2, 0.3, 0.5]).tolist(),
            gen.standard_normal(3).tolist())


def test_streams_equal_the_seedsequence_construction():
    for path in EDGE_PATHS + _random_paths(2000, 14):
        assert _draws(derive_rng(*path)) == _draws(seedsequence_rng(*path)), (
            path)


def test_each_call_returns_its_own_generator():
    a, b = derive_rng(7, 3), derive_rng(7, 3)
    assert a is not b and a.bit_generator is not b.bit_generator
    head = a.integers(0, 2 ** 63, size=4).tolist()
    # drawing from one leaves the other at the start of the stream
    assert b.integers(0, 2 ** 63, size=4).tolist() == head
    assert a.integers(0, 2 ** 63, size=4).tolist() != head


def test_a_derived_stream_holds_only_its_philox_key():
    gen = derive_rng(7, 3)
    with pytest.raises(NotImplementedError):
        gen.bit_generator.seed_seq.generate_state(4)
    with pytest.raises(TypeError):
        gen.spawn(1)


def test_distinct_paths_give_distinct_streams():
    # trailing zero tags and tags past 32 bits used to fold into one stream:
    # trial 0 of sweep point 0, (s, 0, 0), read source 0's direction stream
    paths = [(5,), (5, 0), (5, 0, 0), (5, 0, 0, 0), (2 ** 32,), (0, 1),
             (0, 2 ** 32), (0, 0, 1), (0,), (1,), (5, 1), (5, 1, 0),
             (5, 0, 1), (2 ** 64 - 1, 2 ** 64 - 1)]
    heads = [tuple(_head(*p)) for p in paths]
    assert len(set(heads)) == len(paths)


def test_a_path_rebuilds_its_stream():
    assert _head(7, 3, 2) == _head(7, 3, 2)
    # a one-element path is the plain SeedSequence stream of its seed
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    assert _head(7) == want.integers(0, 2 ** 63, size=4).tolist()


@pytest.mark.parametrize("path", [(), (-1,), (3, -2), (2 ** 64,),
                                  (3, 2 ** 64)])
def test_invalid_paths_are_rejected(path):
    with pytest.raises(ValueError):
        derive_rng(*path)


@pytest.mark.parametrize("path", [(5, 0.5), (1.9,), (3, float("inf")),
                                  (float("nan"),)],
                         ids=["fractional-tag", "fractional-seed", "inf",
                              "nan"])
def test_non_integral_path_elements_are_rejected(path):
    """``(5, 0.5)`` drew the stream of ``(5, 0)`` and ``(1.9,)`` that of
    ``(1,)``."""
    with pytest.raises(ValueError, match="whole numbers"):
        derive_rng(*path)


def test_whole_float_path_elements_keep_the_integer_stream():
    assert _head(5.0, 2.0) == _head(5, 2)
    assert _head(np.uint64(2 ** 64 - 1)) == _head(2 ** 64 - 1)
