"""Performance core: bit-packed kernels shared by every hot protocol path.

``repro.perf`` hosts representation-level optimisations that are invisible
at the protocol layer: :mod:`repro.perf.bitset` packs binary vectors eight
positions per byte and computes Hamming-shaped reductions as XOR+popcount
on machine words, the all-pairs neighbour test (:func:`pairwise_hamming`)
included.
The consumers are the Select distance estimators
(:mod:`repro.protocols.select`), the collective RSelect tournament
(:mod:`repro.protocols.rselect`, via :func:`packed_pair_vote`), the
neighbour graph (:mod:`repro.core.clustering`), ZeroRadius'
popular-vector extraction (:mod:`repro.protocols.zero_radius`), and — since
the packed-board rework — the bulletin board itself
(:mod:`repro.simulation.board`, via :func:`packed_scatter_columns` and
:func:`packed_masked_majority`) and the probe oracle's memoisation mask
(:mod:`repro.simulation.oracle`); ``PERFORMANCE.md`` records the measured
speedups.  Everything here is exact — no approximation is introduced, and
the property tests assert bit-for-bit equality with the unpacked
references.

The bulk kernels exported here are wrapped with
:func:`repro.obs.runtime.timed_kernel`: while a telemetry collection is
installed each call feeds a ``perf.<kernel>`` calls/cumulative-time timer
(the e13 microbench dimensions); when idle the wrapper is a single
``is None`` gate.  ``popcount``/``bit_cover``/``column_plan`` stay bare —
they are tiny, extremely frequent helpers whose timings would be noise —
and calls *between* kernels inside :mod:`repro.perf.bitset` bypass the
wrappers, so a kernel built on another (:func:`packed_pair_vote` on
``packed_hamming``) is accounted once, at the public entry.
"""

from repro.obs.runtime import timed_kernel
from repro.perf import bitset as _bitset
from repro.perf.bitset import PackedBits, bit_cover, column_plan, popcount

pack_bits = timed_kernel(_bitset.pack_bits)
packed_hamming = timed_kernel(_bitset.packed_hamming)
packed_masked_majority = timed_kernel(_bitset.packed_masked_majority)
packed_pair_vote = timed_kernel(_bitset.packed_pair_vote)
packed_scatter_columns = timed_kernel(_bitset.packed_scatter_columns)
packed_unique_rows = timed_kernel(_bitset.packed_unique_rows)
pairwise_hamming = timed_kernel(_bitset.pairwise_hamming)

__all__ = [
    "PackedBits",
    "bit_cover",
    "column_plan",
    "pack_bits",
    "packed_hamming",
    "packed_masked_majority",
    "packed_pair_vote",
    "packed_scatter_columns",
    "packed_unique_rows",
    "pairwise_hamming",
    "popcount",
]
