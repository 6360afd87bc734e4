"""Select: choose the candidate vector closest to one's own preferences.

The paper uses two variants.  ``RSelect`` (Theorem 3, implemented in
:mod:`repro.protocols.rselect`) is the randomised pairwise-elimination
tournament.  ``Select`` is described as "a deterministic version of RSelect"
used wherever a diameter promise ``D`` is available (SmallRadius steps 2–3).
Its only property the analysis relies on is: *if some candidate is within
distance D of the player's true vector, the output is within O(D)*.

We implement Select as a sampled distance-estimation tournament, a
substitution for the paper's deterministic step that has the same guarantee
with high probability: the player probes a shared random sample of the
objects, computes its empirical distance to every candidate on the sample,
and picks the argmin.  Because the probed sample is shared, the whole step
vectorises across *all players at once* — this is the hot inner loop of
SmallRadius and of the clustering phase, and the reason the simulator can
run hundreds of players in seconds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.obs.runtime import traced
from repro.perf import pack_bits, packed_hamming
from repro.protocols.context import ProtocolContext

__all__ = [
    "draw_sample_positions",
    "estimate_distances",
    "select_collective",
    "select_per_player",
]


def draw_sample_positions(
    ctx: ProtocolContext, n_positions: int, sample_size: int
) -> np.ndarray:
    """Positions probed by one collective Select step.

    All of ``range(n_positions)`` when the sample covers it, else a sorted
    without-replacement draw from the shared randomness.  Every collective
    caller — the Select estimators here and the batched SmallRadius
    repetition — must consume exactly this draw, in the same order as the
    step it batches, for the bulk paths to stay bit-identical to their
    per-subset references.
    """
    if sample_size >= n_positions:
        return np.arange(n_positions, dtype=np.int64)
    return np.sort(
        ctx.randomness.generator.choice(n_positions, size=sample_size, replace=False)
    )


@traced("select.estimate")
def estimate_distances(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    candidates: np.ndarray,
    sample_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate each player's Hamming distance to each candidate vector.

    Parameters
    ----------
    ctx:
        Execution context (probes are charged to each player).
    players:
        Players performing the estimate.
    objects:
        Global object indices the candidates are defined over.
    candidates:
        Array of shape ``(n_candidates, len(objects))``.
    sample_size:
        Number of sampled positions each player probes.  The sample is drawn
        from the shared randomness so all players probe the same positions
        (which is what allows the collective/vectorised execution); if
        ``sample_size >= len(objects)`` the estimate is exact.

    Returns
    -------
    (distances, sample_positions):
        ``distances[i, c]`` is the *scaled* estimated Hamming distance of
        player ``players[i]`` to candidate ``c`` over ``objects`` (sample
        disagreement count rescaled by ``len(objects) / sample_size``), and
        ``sample_positions`` are the positions (into ``objects``) probed.
    """
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.uint8)
    if candidates.ndim != 2 or candidates.shape[1] != objects.size:
        raise ProtocolError(
            f"candidates must have shape (k, {objects.size}), got {candidates.shape}"
        )
    if candidates.shape[0] == 0:
        raise ProtocolError("estimate_distances requires at least one candidate")
    if objects.size == 0:
        raise ProtocolError("estimate_distances requires a non-empty object set")
    sample_size = int(sample_size)
    if sample_size <= 0:
        raise ProtocolError(f"sample_size must be positive, got {sample_size}")

    positions = draw_sample_positions(ctx, objects.size, sample_size)
    scale = 1.0 if positions.size == objects.size else objects.size / sample_size

    probed_objects = objects[positions]
    # disagreements[i, c] = number of sampled positions where player i's true
    # value differs from candidate c, computed on the packed representation:
    # (P, 1, s/8) XOR (1, k, s/8) + popcount instead of a (P, k, s) broadcast.
    # The probe block arrives packed straight from the oracle — no dense
    # intermediate, no repack.
    true_packed = ctx.oracle.probe_block(players, probed_objects, packed=True)  # (P, s/8)
    cand_block = candidates[:, positions]  # (k, s)
    cand_packed = pack_bits(cand_block)
    disagreements = packed_hamming(
        true_packed.data[:, None, :], cand_packed.data[None, :, :]
    )
    return disagreements.astype(np.float64) * scale, positions


@traced("select")
def select_collective(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    candidates: np.ndarray,
    sample_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each player selects the candidate closest to its own preferences.

    Implements the ``Select(V, D)`` building block collectively: every player
    probes the same shared random sample of ``objects`` and outputs the
    candidate with the smallest estimated distance.

    Returns
    -------
    (choice, chosen_vectors):
        ``choice[i]`` is the index (into ``candidates``) chosen by
        ``players[i]``; ``chosen_vectors[i]`` is the corresponding vector
        (shape ``(len(players), len(objects))``).
    """
    players = np.asarray(players, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.uint8)
    if sample_size is None:
        sample_size = ctx.constants.rselect_sample_size(ctx.n_players)
    if candidates.shape[0] == 1:
        choice = np.zeros(players.size, dtype=np.int64)
        return choice, np.tile(candidates[0], (players.size, 1))
    distances, _ = estimate_distances(ctx, players, objects, candidates, sample_size)
    choice = distances.argmin(axis=1).astype(np.int64)
    return choice, candidates[choice]


@traced("select")
def select_per_player(
    ctx: ProtocolContext,
    players: np.ndarray,
    objects: np.ndarray,
    candidates: np.ndarray,
    sample_size: int | None = None,
) -> np.ndarray:
    """Select when each player holds its *own* candidate list.

    ``candidates`` is object-major, shape ``(k, len(objects), len(players))``:
    ``candidates[c, j, i]`` is candidate ``c`` of player ``players[i]`` on
    ``objects[j]``, the layout SmallRadius writes its repetitions in.  All
    players probe the same shared random sample of positions (one probe
    block), then each counts its disagreements with its own candidates on
    that sample and keeps the first candidate with the fewest.  Returns the
    chosen rows, object-major: shape ``(len(objects), len(players))``.

    The choice is merged in place of a gather: the output starts as every
    player's candidate 0, and each later candidate that some player chose
    takes one masked XOR pass, ``out ^= (candidates[c] ^ out) & chose_c``,
    where ``chose_c`` is 1 in the columns of the players who chose ``c``.
    """
    players = np.asarray(players, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.uint8)
    if (
        candidates.ndim != 3
        or candidates.shape[1] != objects.size
        or candidates.shape[2] != players.size
    ):
        raise ProtocolError(
            "candidates must have shape "
            f"(k, {objects.size}, {players.size}), got {candidates.shape}"
        )
    k = candidates.shape[0]
    if k == 0:
        raise ProtocolError("select_per_player requires at least one candidate per player")
    if k == 1:
        return candidates[0].copy()
    if sample_size is None:
        sample_size = ctx.constants.rselect_sample_size(ctx.n_players)
    sample_size = int(sample_size)

    positions = draw_sample_positions(ctx, objects.size, sample_size)
    true_rows = ctx.oracle.probe_block(players, objects[positions]).T  # (s, P)
    disagreements = np.count_nonzero(candidates[:, positions] != true_rows, axis=1)  # (k, P)
    choice = disagreements.argmin(axis=0)
    chosen = candidates[0].copy()
    scratch = np.empty_like(chosen)
    for candidate in np.unique(choice[choice > 0]).tolist():
        np.bitwise_xor(candidates[candidate], chosen, out=scratch)
        scratch &= (choice == candidate).view(np.uint8)
        chosen ^= scratch
    return chosen
