"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a Generator derived
here. Streams are keyed by an integer path (master seed followed by
role/index tags; a fractional, infinite or nan element is rejected, never
truncated), so any trial or grid point can rebuild its own
generator independently of execution order. Runs are serial; values are
computed per index and aggregated in index order, never drawn from a
shared stream.

The stream of a path is defined as
``Philox(SeedSequence(seed, spawn_key=tags))``, each tag spelled as two
32-bit words, and ``tests/test_rng.py`` checks it equal to that
construction draw for draw. It is built in three steps:

1. *Words.* The seed's two 32-bit words, zero-padded to four, then two
   words per tag, low word first. This is the entropy array
   ``SeedSequence`` assembles from a seed and a spawn key.
2. *Pool.* One ``SeedSequence`` over those words mixes them into its
   four-word pool. The padding does not change the pool of a one-element
   path, which keeps the stream of ``SeedSequence(seed)``.
3. *Key.* ``SeedSequence``'s output hash turns the pool into the two-word
   Philox key in a few integer operations, and the key reaches
   ``Philox`` through a minimal seed sequence (``_PhiloxKey``) that
   answers only that request. A derived generator's
   ``bit_generator.seed_seq`` is that key holder, so ``spawn()`` is not
   supported on it; derive another path instead.

Two paths of 64-bit elements therefore feed the seed hash different words
whenever they differ, trailing zero tags included: ``(s,)``, ``(s, 0)``
and ``(s, 0, 0)`` are three streams, and ``(2**32,)`` and ``(0, 1)`` are
two.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["derive_rng"]

_WORD = 2 ** 32
_MASK = _WORD - 1
# SeedSequence's output hash (numpy/random/bit_generator.pyx)
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_XSHIFT = 16
# Philox's default counter, passed ready-made to skip its parsing; Philox
# copies it, and it is read-only so no caller can change it
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


class _PhiloxKey(ISeedSequence):
    """A seed sequence that holds only a Philox key: ``generate_state``
    returns it for Philox's one request, two uint64 words, and raises for
    anything else."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError(
                "a derived stream's seed sequence gives only its Philox key")
        return self.key


def derive_rng(*path):
    """Build a Generator keyed by an integer path.

    Parameters
    ----------
    *path : int
        Whole numbers from 0 to 2**64 - 1; a fraction, inf or nan is a
        ValueError, never truncated. The first entry is
        conventionally the master seed; later entries tag the role (trial
        index, grid point, source index, and so on).
    """
    if not path:
        raise ValueError("derive_rng needs at least one path element")
    words = []
    for p in path:
        if not float(p).is_integer():
            raise ValueError(f"rng path elements must be whole numbers, got {p}")
        q = int(p)
        if q < 0:
            raise ValueError("rng path elements must be nonnegative")
        if q >= _WORD * _WORD:
            raise ValueError("rng path elements must be below 2**64")
        # fixed-width tags: a tag of 2**32 cannot read as the two tags (0, 1)
        words += (q & _MASK, q >> 32)
    # the seed padded to the pool's four words, as SeedSequence pads its
    # entropy ahead of a spawn key; mixing pads a bare seed the same way
    words[2:2] = (0, 0)
    pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool
    hash_const = _INIT_B
    state = []
    for value in pool.tolist():
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK
        value = value * hash_const & _MASK
        state.append(value ^ value >> _XSHIFT)
    key = np.array([state[0] | state[1] << 32, state[2] | state[3] << 32],
                   dtype=np.uint64)
    return np.random.Generator(
        np.random.Philox(_PhiloxKey(key), counter=_ZERO_COUNTER))
