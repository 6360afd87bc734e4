"""Shared type aliases used across the :mod:`repro` package.

The simulator works with three recurring array shapes:

* a *preference matrix* ``V`` of shape ``(n_players, n_objects)`` with
  ``uint8`` entries in ``{0, 1}`` — the hidden ground truth;
* a *prediction matrix* ``W`` of the same shape — what the protocol outputs;
* index arrays of players or objects (``int64``).

Keeping the aliases in one module lets every public signature say what it
means without repeating ``numpy.typing`` incantations.  The binary-value
check every report path shares (:func:`check_binary`) lives here too.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError

#: A binary preference / prediction matrix of shape ``(n_players, n_objects)``.
PreferenceMatrix: TypeAlias = npt.NDArray[np.uint8]

#: A single binary preference vector of shape ``(n_objects,)``.
PreferenceVector: TypeAlias = npt.NDArray[np.uint8]

#: An array of player indices.
PlayerIndices: TypeAlias = npt.NDArray[np.int64]

#: An array of object indices.
ObjectIndices: TypeAlias = npt.NDArray[np.int64]

#: Integer array of per-player counts (probes, errors, ...).
CountVector: TypeAlias = npt.NDArray[np.int64]

#: A boolean mask over players.
PlayerMask: TypeAlias = npt.NDArray[np.bool_]

#: A boolean mask over objects.
ObjectMask: TypeAlias = npt.NDArray[np.bool_]

#: Anything acceptable as a seed for :class:`numpy.random.SeedSequence`.
SeedLike: TypeAlias = int | np.random.SeedSequence | np.random.Generator | None


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer, a ``SeedSequence`` or an
    existing ``Generator`` (returned unchanged, so callers can thread a single
    generator through a pipeline without reseeding).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def check_binary(values: np.ndarray, where: str) -> None:
    """Reject report values outside ``{0, 1}`` (cheaper than ``np.isin``).

    Check the raw array *before* any cast to ``uint8``: a cast would wrap
    ``256`` to ``0`` and truncate ``0.5`` to ``0``.
    """
    if values.dtype == np.uint8:
        ok = values.size == 0 or int(values.max()) <= 1
    else:
        ok = bool(((values == 0) | (values == 1)).all())
    if not ok:
        raise ConfigurationError(f"report values must be binary (0/1) in {where}")


def spawn_seeds(seed: SeedLike, count: int) -> list[int]:
    """Derive ``count`` independent integer seeds from ``seed``.

    A picklable thinning of :func:`spawn_generators`: the ``i``-th seed
    depends only on ``(seed, i)``, so a trial keyed by its index draws the
    same stream no matter which worker (or how many workers) executes it.
    """
    return [int(rng.integers(0, 2**63 - 1)) for rng in spawn_generators(seed, count)]


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Uses :meth:`numpy.random.SeedSequence.spawn` so that sub-streams are
    independent regardless of how many draws each consumer makes — the
    recommended pattern for parallel / multi-component simulations.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a SeedSequence from the generator's bit stream.
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]
