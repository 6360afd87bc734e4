"""Simulation substrate: probe oracle, bulletin board, shared randomness.

The paper's execution model (§2) is a synchronous shared-memory system:

* ``n`` players and ``n`` objects (we allow ``m != n`` objects);
* in each round every player may *probe* one object and learns its own true
  preference for it;
* a public bulletin board records probe reports — honest players post the
  truth, dishonest players may post anything, but nobody can modify an entry
  posted by someone else;
* protocols rely on shared random bits published by an elected leader.

This sub-package provides those primitives with exact per-player probe
accounting, so every complexity statement in the paper can be *measured* on
the simulator rather than assumed.
"""

from repro.simulation.board import BoardEntry, BulletinBoard
from repro.simulation.config import ProtocolConstants
from repro.simulation.metrics import ErrorReport, ProbeReport, protocol_report
from repro.simulation.oracle import ProbeOracle
from repro.simulation.randomness import AdversarialRandomness, SharedRandomness

__all__ = [
    "AdversarialRandomness",
    "BoardEntry",
    "BulletinBoard",
    "ErrorReport",
    "ProbeOracle",
    "ProbeReport",
    "ProtocolConstants",
    "SharedRandomness",
    "protocol_report",
]
