"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a Generator derived
here. Streams are keyed by an integer path (master seed followed by
role/index tags), so any trial or grid point can rebuild its own
generator independently of execution order. Runs are serial; values are
computed per index and aggregated in index order, never drawn from a
shared stream.

The master seed is the entropy of a ``SeedSequence`` and the tags are its
spawn key, each tag as two 32-bit words. Two paths of 64-bit elements
therefore feed the seed hash different words whenever they differ,
trailing zero tags included: ``(s,)``, ``(s, 0)`` and ``(s, 0, 0)`` are
three streams, and ``(2**32,)`` and ``(0, 1)`` are two. A one-element
path keeps the stream of ``SeedSequence(seed)``.
"""

import numpy as np

__all__ = ["derive_rng"]

_WORD = 2 ** 32


def derive_rng(*path):
    """Build a Generator keyed by an integer path.

    Parameters
    ----------
    *path : int
        Nonnegative integers below 2**64. The first entry is
        conventionally the master seed; later entries tag the role (trial
        index, grid point, source index, and so on).
    """
    if not path:
        raise ValueError("derive_rng needs at least one path element")
    keys = []
    for p in path:
        q = int(p)
        if q < 0:
            raise ValueError("rng path elements must be nonnegative")
        if q >= _WORD * _WORD:
            raise ValueError("rng path elements must be below 2**64")
        keys.append(q)
    # fixed-width tags: a tag of 2**32 cannot read as the two tags (0, 1)
    spawn_key = tuple(w for q in keys[1:] for w in (q % _WORD, q // _WORD))
    seq = np.random.SeedSequence(keys[0], spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))
