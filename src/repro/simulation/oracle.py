"""The probe oracle: the only gateway to the hidden preference matrix.

The paper's model gives each player probe access to *its own* preference for
one object per round.  Every protocol in this library learns about hidden
preferences exclusively through :class:`ProbeOracle`, which

* returns the true value ``v(p)_o`` when player ``p`` probes object ``o``
  (dishonest players also learn the truth — lying happens at the bulletin
  board, not at the oracle);
* charges exactly one probe per *new* (player, object) pair and memoises
  repeated probes (a player that already knows an answer does not pay twice,
  matching the paper's accounting where probe complexity counts distinct
  evaluations);
* optionally enforces a hard probe budget — a single cap or a **per-player**
  vector of caps (heterogeneous budgets, §8 discussion; off by default: the
  theorems are statements about measured probe counts, not about a cut-off
  mechanism);
* optionally answers through a *noisy channel* (``noise_rate``): each
  (player, object) cell is flipped i.i.d. with the given probability, but the
  flip pattern is fixed at construction, so re-probing the same cell returns
  the same (possibly wrong) answer — the memoisation semantics survive, only
  the observed matrix differs from the ground truth used for scoring.

All access paths are vectorised so that a "collective" protocol step — e.g.
*every* player probing the same random sample of objects — costs one NumPy
fancy-indexing operation rather than a Python loop.

Memory layout.  The matrix the probes read (the observed matrix: the truth,
or the truth through the noisy channel) is held once, **object-major**: row
``o`` holds every player's answer for object ``o``, contiguously, which is
the bulletin board's orientation.  A collective probe of ``k`` objects thus
gathers ``k`` contiguous rows, and :meth:`ProbeOracle.probe_block` hands the
logical ``(players, objects)`` block back as a transposed view of them.
Without noise the observed matrix *is* the ground truth, one array held
once; with noise the ground truth is a second object-major matrix.  :meth:`ProbeOracle.ground_truth` returns it as a transposed view.
The memoisation mask is player-major and **bit-packed** (one bit per cell,
``repro.perf.bitset`` bytes): a probe block tests and marks the contiguous
byte span its objects cover, so the block paths move byte-wide slices
rather than fancy-indexed bytes.  The block paths can also return their
answers as :class:`PackedBits` rows (``packed=True``) for consumers on the
packed dataflow — the Select estimators and the collective tournament feed
them straight into XOR+popcount kernels without a repack.
"""

from __future__ import annotations

import numpy as np

from repro._typing import CountVector, ObjectIndices, PreferenceMatrix, SeedLike, as_generator
from repro.errors import BudgetExceededError, ConfigurationError
from repro.faults.runtime import oracle_fault_gate
from repro.obs import runtime as obs
from repro.perf import PackedBits
from repro.perf.bitset import _row_popcounts, _transpose

__all__ = ["ProbeOracle"]


class ProbeOracle:
    """Probe-counting access to a hidden binary preference matrix.

    Parameters
    ----------
    truth:
        Array of shape ``(n_players, n_objects)`` with entries in ``{0, 1}``.
        A copy is stored read-only so later mutation by the caller cannot
        corrupt an experiment.
    budget:
        Optional probe budget: a scalar applied to every player, or a vector
        of per-player caps (shape ``(n_players,)``) for heterogeneous-budget
        scenarios.  Only used for reporting unless ``enforce_budget`` is set.
    enforce_budget:
        If true, a probe that would push a player past its budget raises
        :class:`~repro.errors.BudgetExceededError`.
    noise_rate:
        Probability (in ``[0, 0.5)``) that a probe answer is flipped.  The
        flips are drawn once from ``noise_seed`` at construction, so answers
        are consistent across repeated probes and deterministic given the
        seed.  ``ground_truth()`` always returns the noise-free matrix.
    noise_seed:
        Seed for the flip pattern (only used when ``noise_rate > 0``).
    """

    def __init__(
        self,
        truth: PreferenceMatrix,
        budget: int | np.ndarray | None = None,
        enforce_budget: bool = False,
        noise_rate: float = 0.0,
        noise_seed: SeedLike = None,
    ) -> None:
        truth = np.asarray(truth)
        if truth.ndim != 2:
            raise ConfigurationError(
                f"truth must be a 2-D matrix, got shape {truth.shape}"
            )
        if truth.size == 0:
            raise ConfigurationError("truth matrix must be non-empty")
        # One max for unsigned (and bool) cells, else two comparisons; no
        # sort of every cell, which only names the offending values.
        if truth.dtype.kind in "bu":
            binary = truth.max() <= 1
        else:
            binary = ((truth == 0) | (truth == 1)).all()
        if not binary:
            raise ConfigurationError(
                "truth matrix must be binary (0/1); found values "
                f"{np.unique(truth)[:10].tolist()}"
            )
        if enforce_budget and budget is None:
            raise ConfigurationError("enforce_budget=True requires a budget")
        if budget is not None:
            if np.ndim(budget) == 0:
                if budget <= 0:
                    raise ConfigurationError(f"budget must be positive, got {budget}")
            else:
                budget = np.asarray(budget, dtype=np.int64)
                if budget.shape != (truth.shape[0],):
                    raise ConfigurationError(
                        "per-player budget must have shape "
                        f"({truth.shape[0]},), got {budget.shape}"
                    )
                if budget.size and int(budget.min()) <= 0:
                    raise ConfigurationError("per-player budgets must all be positive")
                budget = budget.copy()
                budget.setflags(write=False)

        if not 0.0 <= noise_rate < 0.5:
            raise ConfigurationError(
                f"noise_rate must lie in [0, 0.5), got {noise_rate}"
            )

        n_players, n_objects = truth.shape
        # Object-major: row ``o`` is every player's value for object ``o``.
        self._truth = _transpose(truth, np.empty((n_objects, n_players), dtype=np.uint8))
        self._truth.setflags(write=False)
        self.noise_rate = float(noise_rate)
        # The matrix the probes read: the truth itself unless noisy.
        self._observed = self._truth
        if noise_rate > 0.0:
            flips = as_generator(noise_seed).random((n_players, n_objects)) < noise_rate
            self._observed = self._truth ^ _transpose(flips)
            self._observed.setflags(write=False)
        # Bit-packed memoisation mask: bit ``o`` of player ``p``'s row says
        # whether the (p, o) pair was already charged.
        self._object_bytes = (n_objects + 7) // 8
        self._probed = np.zeros((n_players, self._object_bytes), dtype=np.uint8)
        self._counts = np.zeros(n_players, dtype=np.int64)
        # Raw probe *requests*, counting repeats.  Distinct probes (above) are
        # what a player can ever learn (capped at n_objects); requests follow
        # the paper's round-by-round accounting and keep growing with the
        # algorithmic work, so both are reported.
        self._requests = np.zeros(n_players, dtype=np.int64)
        self.budget = budget
        self.enforce_budget = enforce_budget

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def n_players(self) -> int:
        """Number of players."""
        return self._truth.shape[1]

    @property
    def n_objects(self) -> int:
        """Number of objects."""
        return self._truth.shape[0]

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, player: int, obj: int) -> int:
        """Player ``player`` probes object ``obj``; returns its true preference."""
        values = self.probe_objects(player, np.asarray([obj], dtype=np.int64))
        return int(values[0])

    @obs.traced("oracle.objects")
    def probe_objects(self, player: int, objects: ObjectIndices) -> np.ndarray:
        """One player probes several objects; returns their true preferences.

        Repeated objects (within this call or across calls) are answered but
        charged only once.
        """
        oracle_fault_gate()
        player = int(player)
        if not 0 <= player < self.n_players:
            raise ConfigurationError(f"player index {player} out of range")
        objects = np.asarray(objects, dtype=np.int64)
        if objects.size and (objects.min() < 0 or objects.max() >= self.n_objects):
            raise ConfigurationError("object index out of range in probe_objects")

        row = self._probed[player]
        weights = np.uint8(128) >> (objects & 7).astype(np.uint8)
        already = (row[objects >> 3] & weights) != 0
        new_objects = objects[~already]
        if new_objects.size > 1 and not np.all(new_objects[1:] > new_objects[:-1]):
            new_objects = np.unique(new_objects)
        self._charge(np.asarray([player]), np.asarray([new_objects.size]))
        self._requests[player] += objects.size
        if obs._AMBIENT.telemetry is not None:
            obs.add("oracle.requests", int(objects.size))
        if new_objects.size:
            np.bitwise_or.at(
                row,
                new_objects >> 3,
                np.uint8(128) >> (new_objects & 7).astype(np.uint8),
            )
        return self._observed[objects, player]

    @obs.traced("oracle.ragged")
    def probe_ragged(
        self,
        players: np.ndarray,
        objects: ObjectIndices,
        lengths: np.ndarray,
        packed: bool = False,
    ) -> np.ndarray | PackedBits:
        """Each listed player probes its *own* variable-length object list.

        The lists come flat: ``objects`` concatenates them in player order,
        and player ``players[i]`` probes the next ``lengths[i]`` of them.
        Equivalent to looping ``probe_objects`` over the players and their
        lists — identical memoisation, per-player distinct-probe charging,
        request accounting and noise channel — but the whole batch is
        resolved through one flat fancy index, which is what lets a
        collective tournament round (every player probing its own sample)
        cost one oracle call instead of one per player.

        Returns the answers aligned with ``objects`` (player-major order).
        With ``packed=True`` they come back instead as a
        :class:`PackedBits` stack of zero-padded rows (row ``i`` holds player
        ``i``'s answers on its first ``lengths[i]`` positions, zero beyond) —
        the exact operand shape of :func:`repro.perf.packed_pair_vote`.
        Every index, and under budget enforcement (like
        :meth:`probe_assignment`) the whole batch's budget, is checked
        before anything is charged; the loop would charge earlier players
        first, and outside those error paths the two are bit-identical.
        """
        oracle_fault_gate()
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if players.ndim != 1 or lengths.shape != players.shape:
            raise ConfigurationError(
                f"probe_ragged got {players.shape} players but {lengths.shape} lengths"
            )
        if np.any(lengths < 0) or objects.shape != (int(lengths.sum()),):
            raise ConfigurationError(
                "probe_ragged lengths must be non-negative and sum to the object "
                f"count; got a sum of {int(lengths.sum())} for objects of shape "
                f"{objects.shape}"
            )
        if players.size and (players.min() < 0 or players.max() >= self.n_players):
            raise ConfigurationError("player index out of range in probe_ragged")
        if objects.size and (objects.min() < 0 or objects.max() >= self.n_objects):
            raise ConfigurationError("object index out of range in probe_ragged")
        if players.size > 1 and np.unique(players).size != players.size:
            # Duplicate players would need the call-order memoisation the
            # loop provides; fall back to it (rare, correctness-first).
            flat_values = np.concatenate(
                [
                    self.probe_objects(int(player), player_objects)
                    for player, player_objects in zip(
                        players, np.split(objects, np.cumsum(lengths)[:-1])
                    )
                ]
            )
            return self._pad_ragged(flat_values, lengths) if packed else flat_values
        if objects.size == 0:
            flat_values = np.zeros(0, dtype=np.uint8)
            return self._pad_ragged(flat_values, lengths) if packed else flat_values

        # Distinct-probe charging without a sort: OR the requested cells into
        # a per-listed-player scratch mask (duplicates collapse for free),
        # AND out the already-probed bits, and popcount the remainder.
        rows = np.repeat(np.arange(players.size, dtype=np.int64), lengths)
        scratch = np.zeros((players.size, self._object_bytes), dtype=np.uint8)
        np.bitwise_or.at(
            scratch.reshape(-1),
            rows * self._object_bytes + (objects >> 3),
            np.uint8(128) >> (objects & 7).astype(np.uint8),
        )
        probed_rows = self._probed[players]
        counts = _row_popcounts(scratch & ~probed_rows)
        self._charge(players, counts, unique_players=True)
        self._requests[players] += lengths
        if obs._AMBIENT.telemetry is not None:
            obs.add("oracle.requests", int(objects.size))
        self._probed[players] = probed_rows | scratch
        flat_values = self._observed.reshape(-1)[objects * self.n_players + players[rows]]
        return self._pad_ragged(flat_values, lengths) if packed else flat_values

    @staticmethod
    def _pad_ragged(flat_values: np.ndarray, lengths: np.ndarray) -> PackedBits:
        """Zero-padded packed rows from player-major concatenated answers."""
        max_len = int(lengths.max(initial=0))
        rows = np.zeros((lengths.size, max_len), dtype=np.uint8)
        if flat_values.size:
            mask = np.arange(max_len)[None, :] < lengths[:, None]
            rows[mask] = flat_values
        return PackedBits(
            data=np.packbits(rows, axis=1) if max_len else rows, n_bits=max_len
        )

    @obs.traced("oracle.pairs")
    def probe_assignment(self, probers: np.ndarray) -> np.ndarray:
        """Probe an assignment of players to objects.

        Row ``o`` of ``probers``, shape ``(n_objects, k)``, lists the players
        that probe object ``o`` (the shape
        :meth:`~repro.simulation.randomness.SharedRandomness.assign_probers`
        returns); players may repeat.  Returns the ``(n_objects, k)``
        answers: entry ``[o, j]`` is player ``probers[o, j]``'s answer for
        object ``o``.  Equivalent to looping ``probe_objects`` over the
        entries: each entry is a request, and each new (player, object) pair
        is charged once.  Under budget enforcement the whole batch is
        checked before anything is charged.

        The new pairs are marked in a packed ``(n_players, object_bytes)``
        scratch mask one bit plane at a time.  Plane ``b`` holds the object
        rows ``o ≡ b (mod 8)``, which all set the bit weight ``128 >> b``,
        so two entries of a plane that name one scratch byte name one cell
        and a buffered fancy OR marks every cell exactly.
        """
        oracle_fault_gate()
        probers = np.asarray(probers, dtype=np.int64)
        if probers.ndim != 2 or probers.shape[0] != self.n_objects:
            raise ConfigurationError(
                f"probers must have shape ({self.n_objects}, k), got {probers.shape}"
            )
        if probers.size == 0:
            return np.zeros(probers.shape, dtype=np.uint8)
        if probers.min() < 0 or probers.max() >= self.n_players:
            raise ConfigurationError("player index out of range in probe_assignment")

        obs.add("oracle.requests", int(probers.size))
        self._requests += np.bincount(probers.reshape(-1), minlength=self.n_players)
        scratch = np.zeros((self.n_players, self._object_bytes), dtype=np.uint8)
        for bit in range(8):
            # Row i of the plane is object 8i + bit, which lies in byte i.
            cells = probers[bit::8] * self._object_bytes
            cells += np.arange(cells.shape[0])[:, None]
            scratch.reshape(-1)[cells] |= np.uint8(128 >> bit)
        new_bits = scratch & ~self._probed
        counts = _row_popcounts(new_bits)
        if counts.any():
            self._charge_all(counts)
            self._probed |= new_bits
        offsets = np.arange(self.n_objects, dtype=np.int64)[:, None] * self.n_players
        return self._observed.reshape(-1)[probers + offsets]

    @obs.traced("oracle.block")
    def probe_block(
        self, players: np.ndarray, objects: ObjectIndices, packed: bool = False
    ) -> np.ndarray | PackedBits:
        """Every listed player probes every listed object (a dense block).

        Returns the ``(len(players), len(objects))`` block of true values.
        Dense ``uint8`` by default: a **transposed view** of the object rows
        gathered from the object-major observed matrix, so ``block.T`` is a
        C-contiguous ``(len(objects), len(players))`` array.  With
        ``packed=True`` it is a :class:`PackedBits` stack of player-major rows
        (what the Select estimators feed straight into the XOR+popcount
        kernels).  This is the hot path for collective steps such as "all
        players probe the RSelect sample".

        Equivalent to looping ``probe_objects(players[i], objects)`` in
        order: a repeated object or player is charged its distinct pairs
        once, and every requested cell counts as a request.  Like
        :meth:`probe_assignment`, budget enforcement checks the whole batch
        before charging anything.  The memoisation test and mark run on the
        byte span of the packed probe mask the objects fall into, with a
        cover mask that is zero on the untouched bytes.
        """
        oracle_fault_gate()
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        if players.size == 0 or objects.size == 0:
            block = np.zeros((players.size, objects.size), dtype=np.uint8)
            return PackedBits(data=np.packbits(block, axis=1), n_bits=objects.size) if packed else block
        if players.min() < 0 or players.max() >= self.n_players:
            raise ConfigurationError("player index out of range in probe_block")
        if objects.min() < 0 or objects.max() >= self.n_objects:
            raise ConfigurationError("object index out of range in probe_block")

        if obs._AMBIENT.telemetry is not None:
            obs.add("oracle.requests", int(players.size) * int(objects.size))
        # The byte span [low, high) of the mask rows the objects fall into,
        # and its cover: the objects' bits, duplicates collapsed.
        low = int(objects.min()) >> 3
        high = (int(objects.max()) >> 3) + 1
        marks = np.zeros(8 * (high - low), dtype=bool)
        marks[objects - 8 * low] = True
        cover = np.packbits(marks)
        n_distinct = int(np.count_nonzero(marks))
        # The full player range (the common collective case) slices mask
        # rows and reads whole object rows; a repeated player is charged once.
        all_players = players.size == self.n_players and np.all(
            players == np.arange(self.n_players)
        )
        distinct, repeats = players, 1
        if not all_players and players.size > 1 and not np.all(players[1:] > players[:-1]):
            distinct, repeats = np.unique(players, return_counts=True)
        mask_rows = slice(None) if all_players else distinct
        span = self._probed[mask_rows, low:high]
        new_counts = n_distinct - _row_popcounts(span & cover)
        self._charge(distinct, new_counts, unique_players=True)
        self._requests[mask_rows] += repeats * objects.size
        self._probed[mask_rows, low:high] = span | cover
        if all_players:
            rows = self._observed[objects]
        else:
            rows = self._observed[objects[:, None], players[None, :]]
        if packed:
            return PackedBits(data=np.packbits(rows.T, axis=1), n_bits=objects.size)
        return rows.T

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _charge(
        self, players: np.ndarray, counts: np.ndarray, unique_players: bool = False
    ) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        if self.enforce_budget and self.budget is not None:
            limits = (
                self.budget[players] if np.ndim(self.budget) else int(self.budget)
            )
            prospective = self._counts[players] + counts
            over = prospective > limits
            if np.any(over):
                bad = int(players[over][0])
                limit = int(limits[over][0]) if np.ndim(limits) else int(limits)
                raise BudgetExceededError(
                    player=bad,
                    budget=limit,
                    attempted=int(prospective[over][0]),
                )
        if unique_players:
            # Fancy in-place add is much cheaper than np.add.at but only
            # correct when no player index repeats.
            self._counts[players] += counts
        else:
            np.add.at(self._counts, players, counts)
        if obs._AMBIENT.telemetry is not None:
            obs.add("oracle.probes", int(counts.sum()))

    def _charge_all(self, counts: np.ndarray) -> None:
        """Charge a full-length per-player count vector (mostly zeros).

        :meth:`probe_assignment` produces its distinct-probe counts as a
        dense vector straight from the packed scratch mask; adding it in
        place skips the per-player grouping a sparse charge would need.
        """
        if self.enforce_budget and self.budget is not None:
            prospective = self._counts + counts
            over = prospective > (
                self.budget if np.ndim(self.budget) else int(self.budget)
            )
            if np.any(over):
                bad = int(np.flatnonzero(over)[0])
                limit = int(self.budget[bad]) if np.ndim(self.budget) else int(self.budget)
                raise BudgetExceededError(
                    player=bad, budget=limit, attempted=int(prospective[bad])
                )
        self._counts += counts
        if obs._AMBIENT.telemetry is not None:
            obs.add("oracle.probes", int(counts.sum()))

    def probes_used(self) -> CountVector:
        """Per-player number of distinct probes performed so far."""
        return self._counts.copy()

    def requests_used(self) -> CountVector:
        """Per-player number of probe *requests* (repeats included).

        Distinct probes are capped at ``n_objects`` per player; requests keep
        counting, so they track the algorithmic probe complexity the paper's
        lemmas are stated in even when small instances saturate the distinct
        count.
        """
        return self._requests.copy()

    def max_requests(self) -> int:
        """Maximum probe requests issued by any single player."""
        return int(self._requests.max(initial=0))

    def max_probes(self) -> int:
        """Maximum probes used by any single player."""
        return int(self._counts.max(initial=0))

    def total_probes(self) -> int:
        """Total probes across all players."""
        return int(self._counts.sum())

    def mean_probes(self) -> float:
        """Average probes per player."""
        return float(self._counts.mean()) if self.n_players else 0.0

    def memo_misses(self) -> int:
        """Requests that hit a not-yet-probed cell (== distinct probes charged)."""
        return int(self._counts.sum())

    def memo_hits(self) -> int:
        """Requests answered from the memoisation mask without a charge.

        Every request either charges a distinct probe (a miss) or is served
        from the packed memo mask for free (a hit), so hits are exactly
        requests minus distinct probes — an identity that holds on any
        execution schedule, which is what keeps the telemetry's hit counts
        worker-count-invariant.
        """
        return int(self._requests.sum() - self._counts.sum())

    def memo_hit_rate(self) -> float:
        """Fraction of probe requests served from the memo mask (0.0 if none)."""
        total = int(self._requests.sum())
        return self.memo_hits() / total if total else 0.0

    # ------------------------------------------------------------------
    # Memo snapshot
    # ------------------------------------------------------------------
    def probe_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot ``(packed probe mask, per-player requests)``.

        The mask is the bit-packed memoisation state: which (player, object)
        cells have been charged.  Together with the request counts it is all
        the accounting state probes change; :meth:`install_probe_state`
        puts a snapshot back.  The tests also compare a bulk probe path's
        memo with its looped reference through it, because equal counts
        alone would not show that the same cells were charged.
        """
        return self._probed.copy(), self._requests.copy()

    def install_probe_state(self, probed: np.ndarray, requests: np.ndarray) -> None:
        """Replace the accounting with a :meth:`probe_state` snapshot.

        Every charge sets exactly the memo bits it counts, so each player's
        distinct-probe count is the popcount of its mask row and is rebuilt
        from the mask rather than stored.
        """
        probed = np.asarray(probed, dtype=np.uint8)
        requests = np.asarray(requests, dtype=np.int64)
        if probed.shape != self._probed.shape or requests.shape != self._requests.shape:
            raise ConfigurationError(
                f"probe state of shapes {probed.shape} and {requests.shape} does not "
                f"fit an oracle of shapes {self._probed.shape} and {self._requests.shape}"
            )
        self._probed = probed.copy()
        self._requests = requests.copy()
        self._counts = _row_popcounts(self._probed)

    # ------------------------------------------------------------------
    # Ground-truth access for *evaluation only*
    # ------------------------------------------------------------------
    def ground_truth(self) -> PreferenceMatrix:
        """Read-only ``(n_players, n_objects)`` view of the hidden matrix.

        A transposed view of the object-major matrix the oracle holds, so it
        is Fortran-ordered.  This is for scoring the protocol output after
        the fact (computing ``|w(p) − v(p)|``) and for adversary strategies,
        which the model allows to know everything.  Protocol code must never
        call it.
        """
        return self._truth.T

    def __repr__(self) -> str:
        return (
            f"ProbeOracle(n_players={self.n_players}, n_objects={self.n_objects}, "
            f"max_probes={self.max_probes()}, total_probes={self.total_probes()}, "
            f"memo_hits={self.memo_hits()}, memo_hit_rate={self.memo_hit_rate():.3f})"
        )
