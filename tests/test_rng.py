"""Stream derivation: every distinct path is its own stream."""

import numpy as np
import pytest

from transferopt.rng import derive_rng


def _head(*path):
    return derive_rng(*path).integers(0, 2 ** 63, size=4).tolist()


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
