"""Reproducible random streams.

Every stochastic operation takes an explicit integer seed. Replicate- or
purpose-specific streams are derived with :func:`substream`, which keys a
counter-based Philox generator on ``(seed, *indices)``. Distinct index
tuples give statistically independent streams, and the same tuple gives a
bit-identical stream on any platform numpy supports.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def seed_sequence(seed: int, *indices: int) -> np.random.SeedSequence:
    """The seed sequence keyed on ``(seed, *indices)``; every part must be a
    non-negative integer."""
    key = (int(seed), *(int(i) for i in indices))
    if min(key) < 0:
        raise UsageError(f"seed and stream indices must be non-negative, got {key}")
    return np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])


def check_draws(count: int, width: int) -> None:
    """Raise ``MemoryError`` when ``count`` rows of ``width`` float64 values
    are more than one numpy array can describe. numpy refuses such a shape
    with ``ValueError``; this makes it fail as a too large allocation does."""
    if count * width > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{count} draws of {width} values do not fit in one array")


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Return an independent generator for the given seed and index path."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *indices)))
