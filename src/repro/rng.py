"""Seeded randomness helpers.

All randomized algorithms in this library accept either an integer seed or a
:class:`random.Random` instance, so experiments are reproducible end to end.
The helpers here normalize those inputs and derive independent child
generators for sub-components (for example, each iteration of the
fault-oversampling conversion gets its own stream, so changing the number of
iterations does not perturb earlier iterations).
"""

from __future__ import annotations

import random
from typing import Union

RandomLike = Union[int, random.Random, None]

#: Large odd multiplier used to decorrelate derived seeds (splitmix-style).
_DERIVE_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def ensure_rng(seed: RandomLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``None`` produces a fresh nondeterministically-seeded generator, an
    ``int`` produces a deterministic generator, and an existing
    :class:`random.Random` is returned unchanged (shared state).
    """
    if seed is None:
        return random.Random()
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be None, int, or random.Random, got {seed!r}")
    return random.Random(seed)


def derive_seed(rng: random.Random, index: int) -> int:
    """The 64-bit child seed ``derive_rng`` would use, without the generator.

    Consumes exactly the same one 64-bit draw from the parent as
    :func:`derive_rng`, so callers that want to defer (or skip) the
    comparatively expensive ``random.Random`` construction can advance the
    parent stream identically and build ``random.Random(seed)`` later.
    """
    base = rng.getrandbits(64)
    mixed = (base ^ ((index + 1) * _DERIVE_MULTIPLIER)) & _MASK64
    # splitmix64 finalizer for good bit diffusion.
    z = (mixed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_rng(rng: random.Random, index: int) -> random.Random:
    """Derive an independent child generator from ``rng`` for stream ``index``.

    The child is seeded from a 64-bit draw of the parent mixed with the
    stream index, which keeps distinct indices decorrelated while remaining
    deterministic given the parent's state.
    """
    return random.Random(derive_seed(rng, index))


def spawn_streams(seed: RandomLike, count: int) -> list[random.Random]:
    """Create ``count`` decorrelated generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    parent = ensure_rng(seed)
    return [derive_rng(parent, i) for i in range(count)]


def geometric(rng: random.Random, p: float) -> int:
    """Sample from a geometric distribution on {1, 2, ...} with parameter ``p``.

    Returns the number of Bernoulli(``p``) trials up to and including the
    first success. Used for Bartal-style padded-decomposition radii.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if p == 1.0:
        return 1
    trials = 1
    while rng.random() >= p:
        trials += 1
    return trials


def bernoulli(rng: random.Random, p: float) -> bool:
    """Return True with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return rng.random() < p


def sample_subset(rng: random.Random, items, p: float) -> set:
    """Independently include each element of ``items`` with probability ``p``."""
    return {item for item in items if rng.random() < p}
