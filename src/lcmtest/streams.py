"""Deterministic random-stream tokens.

A stream token is an integer seed, a ``numpy.random.SeedSequence``, or a
``numpy.random.Generator``.  Substreams are derived through spawn keys, so a
child's numbers depend only on its key, not on which other children were
derived or in what order: the limit engine draws block b of a simulation
from ``substream(master_seed, b)``, and the coupling verifiers draw path i
from ``substream(streams[i], 0)``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Stream = Union[int, np.random.SeedSequence, np.random.Generator]


def seed_sequence(stream: Stream) -> np.random.SeedSequence:
    """Coerce a stream token to a SeedSequence (generators are rejected)."""
    if isinstance(stream, np.random.SeedSequence):
        return stream
    if isinstance(stream, (int, np.integer)):
        return np.random.SeedSequence(int(stream))
    raise TypeError(
        f"cannot derive a seed sequence from {type(stream).__name__}; "
        "pass an int or a numpy SeedSequence"
    )


def substream(stream: Stream, *keys: int) -> np.random.SeedSequence:
    """Deterministic child stream, independent of spawning order."""
    if isinstance(stream, (int, np.integer)):
        # The child of an int seed, built directly: a root SeedSequence(int)
        # has that entropy and an empty spawn key.
        entropy, key = int(stream), ()
    else:
        ss = seed_sequence(stream)
        entropy, key = ss.entropy, tuple(ss.spawn_key)
    return np.random.SeedSequence(entropy=entropy, spawn_key=key + tuple(int(k) for k in keys))


def generator(stream: Stream) -> np.random.Generator:
    """Coerce a stream token to a Generator."""
    if isinstance(stream, np.random.Generator):
        return stream
    return np.random.default_rng(seed_sequence(stream))
