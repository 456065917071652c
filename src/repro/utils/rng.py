"""Deterministic random-number helpers.

Every stochastic component of the library (synthetic workloads, router
inputs, pruning tasks) takes either an explicit ``numpy.random.Generator``
or an integer seed.  This module centralises generator construction so that
all experiments are reproducible run-to-run.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0x5A3D  # "SAMD"


def new_rng(seed: int | np.random.Generator | None = None
            ) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for the library-wide default seed.  Never uses global numpy
    state.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def restored_rng(state: dict) -> np.random.Generator:
    """A new generator whose bit generator is restored to ``state`` (a
    ``Generator.bit_generator.state`` snapshot): it replays exactly the
    draws the snapshotted generator made next, without touching it."""
    bit_generator = getattr(np.random, state["bit_generator"])(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)
