"""Deterministic 64-bit seeding utilities.

Everything random in this package flows through the splitmix64 mixer so that
two runs with the same seed (serial or parallel, any platform) produce
bit-identical outputs.  The exact recipes are part of the package contract:

* ``splitmix64_at(seed, i)`` is output ``i`` of the canonical splitmix64
  stream: ``finalize(seed + (i + 1) * 0x9E3779B97F4A7C15)`` where
  ``finalize`` is the standard xor-shift/multiply avalanche
  (constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, final ``^ (z >> 31)``).
* ``mix64(a, b)`` combines two values order-sensitively:
  ``finalize(finalize_g(a) ^ (b * 0x9E3779B97F4A7C15))`` with everything
  reduced mod 2**64 (``finalize_g`` includes the golden-ratio increment).
* ``shuffled(items, seed)`` is a Fisher-Yates shuffle walking i from
  ``n - 1`` down to 1 with ``j = splitmix64_at(seed, n - 1 - i) % (i + 1)``;
  Perlin permutation tables are ``shuffled(list(range(256)), seed)``.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z):  # an int, or a uint64 array whose products wrap by themselves
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix64_at(seed: int, index: int) -> int:
    """Output ``index`` (0-based) of the splitmix64 stream seeded with ``seed``."""
    return _finalize((seed + (index + 1) * _GOLDEN) & _MASK)


def mix64(a: int, b: int) -> int:
    """Derive a child seed from a parent seed ``a`` and a lane index ``b``."""
    return _finalize(_finalize((a + _GOLDEN) & _MASK) ^ ((b & _MASK) * _GOLDEN & _MASK))


def u01(seed: int, index: int) -> float:
    """Counter-based uniform double in [0, 1)."""
    return splitmix64_at(seed, index) / 2.0**64


def shuffled(items: list, seed: int) -> list:
    """Return a new list with ``items`` permuted by a seeded Fisher-Yates walk."""
    out = list(items)
    n = len(out)
    z = np.arange(1, n, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(seed & _MASK)
    draws = _finalize(z) % np.arange(n, 1, -1, dtype=np.uint64)  # splitmix64_at(seed, k) % (n - k)
    for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
        out[i], out[j] = out[j], out[i]
    return out
