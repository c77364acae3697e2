"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a Generator derived
here. Streams are keyed by an integer path (master seed followed by
role/index tags), so any trial or grid point can rebuild its own
generator independently of execution order. Runs are serial; values are
computed per index and aggregated in index order, never drawn from a
shared stream.
"""

import numpy as np

__all__ = ["derive_rng"]

# Counter-based generator, cheap to construct per trial and collision-free
# across distinct key paths.
def derive_rng(*path):
    """Build a Generator keyed by an integer path.

    Parameters
    ----------
    *path : int
        Nonnegative integers. The first entry is conventionally the master
        seed; later entries tag the role (trial index, grid point, source
        index, and so on).
    """
    if not path:
        raise ValueError("derive_rng needs at least one path element")
    keys = []
    for p in path:
        q = int(p)
        if q < 0:
            raise ValueError("rng path elements must be nonnegative")
        keys.append(q)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(keys)))

