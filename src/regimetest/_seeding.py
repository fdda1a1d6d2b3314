"""Deterministic random-stream derivation.

Every stochastic routine in the package takes a 64-bit ``master_seed`` and
derives its streams from ``(master_seed, domain, *indices)`` through numpy's
``SeedSequence``.  A stream therefore depends only on the seed and on *what*
is being drawn, never on execution order, which makes results bit-identical
for any degree of parallelism.

Two helpers give the streams.  :func:`substream` builds the generator of one
path.  :func:`normal_rows` draws the standard normals of many sibling paths
``(master_seed, *path, i)``, i = 0, 1, ..., at once: it runs SeedSequence's
hash mix over every index in vectorised uint32 arithmetic and PCG64's
seeding in Python integers, then sets each state on one reused ``PCG64``.
Both seeding algorithms are fixed by numpy's stream-compatibility policy
(NEP 19), so row ``i`` equals ``substream(master_seed, *path,
i).standard_normal(T)`` bit for bit; ``tests/test_seeding.py`` checks this
against the installed numpy.
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

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence (numpy/random/bit_generator.pyx) and PCG64 (pcg64.h) constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


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
    bit_generator = np.random.PCG64(0)
    normals = np.random.Generator(bit_generator)
    out = np.empty((rows, T))
    for row, (state, inc) in zip(out, _pcg64_states(master_seed, path, np.arange(rows))):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        normals.standard_normal(out=row)
    return out


def _pcg64_states(master_seed: int, path: tuple[int, ...], indices: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(seed_sequence(master_seed, *path, i))`` for
    every index ``i``, each in ``[0, 2**32)`` so that it is one entropy word."""
    indices = np.asarray(indices)
    if indices.size and not (indices.min() >= 0 and indices.max() <= _MASK32):
        raise ValueError("stream indices must lie in [0, 2**32)")
    prefix = [w for value in (int(master_seed) & _MASK64, *map(int, path)) for w in _words(value)]
    entropy = [np.full(len(indices), w, dtype=np.uint32) for w in prefix]
    entropy.append(indices.astype(np.uint32))

    # SeedSequence.mix_entropy with an empty spawn key
    hashmix = _hash(_INIT_A, _MULT_A)
    zero = np.zeros(len(indices), dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian; PCG64 takes the first two as the seed, the last two as
    # the increment, and seeds with two steps of its 128-bit LCG
    state_hash = _hash(_INIT_B, _MULT_B)
    words = [state_hash(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(2 * _POOL_SIZE)]
    s_hi, s_lo, i_hi, i_lo = (
        (words[k] | (words[k + 1] << np.uint64(32))).tolist() for k in range(0, len(words), 2)
    )
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(s_hi, s_lo, i_hi, i_lo):
        inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        states.append(((((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULT) + inc) & _MASK128, inc))
    return states


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

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))
