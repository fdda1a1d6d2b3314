"""Deterministic random-stream derivation.

Every stochastic routine in the package takes a 64-bit ``master_seed`` and
derives its streams from ``(master_seed, domain, *indices)`` through numpy's
``SeedSequence``.  A stream therefore depends only on the seed and on *what*
is being drawn, never on execution order, which makes results bit-identical
for any degree of parallelism.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep streams for different purposes disjoint.
DOMAIN_SIMULATE = 0    # the path emitted by the ``simulate`` command
DOMAIN_REPLICATE = 1   # null replicate vectors of an MC ensemble
DOMAIN_TIEBREAK = 2    # uniform tie-breakers attached to ensemble members
DOMAIN_DGP = 3         # simulated data paths in study cells
DOMAIN_BOOTSTRAP = 4   # parametric bootstrap samples
DOMAIN_NUISANCE = 5    # nuisance-parameter draws (h, rho)
DOMAIN_CELL = 6        # per-replication sub-seeds inside a study cell
DOMAIN_TABLE = 7       # draws used to regenerate the coefficient table

_MASK64 = (1 << 64) - 1


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for ``(master_seed, *path)``.

    The same arguments always yield the same stream; distinct paths yield
    independent streams.
    """
    return np.random.default_rng(seed_sequence(master_seed, *path))


def seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence keyed on the master seed and a derivation path."""
    return np.random.SeedSequence([int(master_seed) & _MASK64, *map(int, path)])


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse ``(master_seed, *path)`` to a single 64-bit sub-seed.

    Used when a child computation itself expects a scalar master seed.
    """
    state = seed_sequence(master_seed, *path).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)
