"""Deterministic random-stream derivation.

Every stochastic routine in the package takes a 64-bit ``master_seed`` and
derives its streams from ``(master_seed, domain, *indices)`` through numpy's
``SeedSequence``.  A stream therefore depends only on the seed and on *what*
is being drawn, never on execution order, which makes results bit-identical
for any degree of parallelism.

Two helpers give the streams.  :func:`substream` builds the generator of one
path.  :func:`normal_rows` draws the standard normals of many sibling paths
``(master_seed, *path, i)``, i = 0, 1, ..., at once: it runs SeedSequence's
hash over every index in vectorised uint32 arithmetic (the words that do not
depend on the index hashed once, as Python integers) and hands each row's
four hashed uint64 words to ``np.random.PCG64``, which seeds itself from
them in numpy's own code, as from the SeedSequence.  The hash is fixed by
numpy's stream-compatibility policy (NEP 19), so row ``i`` equals
``substream(master_seed, *path, i).standard_normal(T)`` bit for bit;
``tests/test_seeding.py`` checks this against the installed numpy.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Domain tags keep streams for different purposes disjoint.
DOMAIN_SIMULATE = 0    # the path emitted by the ``simulate`` command
DOMAIN_REPLICATE = 1   # null replicate vectors of an MC ensemble
DOMAIN_TIEBREAK = 2    # uniform tie-breakers attached to ensemble members
DOMAIN_DGP = 3         # simulated data paths in study cells
DOMAIN_BOOTSTRAP = 4   # parametric bootstrap samples
DOMAIN_NUISANCE = 5    # nuisance-parameter draws (h, rho)
DOMAIN_CELL = 6        # per-replication sub-seeds inside a study cell
DOMAIN_TABLE = 7       # draws used to regenerate the coefficient table

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def normal_rows(master_seed: int, *path: int, rows: int, T: int) -> np.ndarray:
    """The (rows, T) standard normals whose row ``i`` is
    ``substream(master_seed, *path, i).standard_normal(T)``, bit for bit."""
    rows = int(rows)
    if not 0 <= rows <= 1 << 32:
        raise ValueError(f"rows must lie in [0, 2**32], got {rows}")
    out = np.empty((rows, T))
    for row, words in zip(out, _seed_words(master_seed, path, np.arange(rows))):
        np.random.Generator(np.random.PCG64(_HashedWords(words))).standard_normal(out=row)
    return out


class _HashedWords(ISeedSequence):
    """The words ``generate_state(4, np.uint64)`` of one stream's
    SeedSequence, computed beforehand: all that ``PCG64`` asks of its seed.
    PCG64 reads the returned buffer's data pointer, so each answer is a
    fresh C-contiguous ``uint64`` array of shape (4,); any other request is
    a ``ValueError``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the type itself, which is the check's fast path
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}")
        return self.words.copy()


def _seed_words(master_seed: int, path: tuple[int, ...], indices: np.ndarray) -> np.ndarray:
    """The (len(indices), 4) words
    ``seed_sequence(master_seed, *path, i).generate_state(4, np.uint64)`` of
    every index ``i``, each in ``[0, 2**32)`` so that it is one entropy word."""
    indices = np.asarray(indices)
    if indices.size and not (indices.min() >= 0 and indices.max() <= _MASK32):
        raise ValueError("stream indices must lie in [0, 2**32)")
    entropy = [w for value in (int(master_seed) & _MASK64, *map(int, path)) for w in _words(value)]
    entropy.append(indices.astype(np.uint32))

    # SeedSequence.mix_entropy with an empty spawn key; a pool word stays a
    # Python int, hashed once for every row, until the index mixes into it
    hashmix = _hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words cycled from the pool,
    # paired little-endian
    state_hash = _hash(_INIT_B, _MULT_B)
    halves = [np.asarray(state_hash(pool[k % _POOL_SIZE]), dtype=np.uint64) for k in range(2 * _POOL_SIZE)]
    words = np.empty((len(indices), 4), dtype=np.uint64)
    for k in range(4):
        words[:, k] = halves[2 * k] | (halves[2 * k + 1] << np.uint64(32))
    return words


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of one entropy integer, least significant first."""
    if value < 0:
        raise ValueError(f"path elements must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(init: int, mult: int):
    """SeedSequence's running hash: each call xors its uint32 words with the
    constant, steps the constant, multiplies by it and folds the high half."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = _low32(value * const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 words."""
    result = _low32(_low32(_MIX_MULT_L * x) - _low32(_MIX_MULT_R * y))
    return result ^ (result >> 16)


def _low32(value):
    """The low 32 bits of a word: a Python int, hashed once for every row,
    or a ``uint32`` array, whose arithmetic already wraps."""
    return value & _MASK32 if isinstance(value, int) else value
