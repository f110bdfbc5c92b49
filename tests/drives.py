"""The ways to drive a simulator, shared by the differential tests.

``run``/``run_until`` jump every span in which all components report
idle; the per-cycle ``tick()`` loop never skips and is the reference
that every skipping run must match bit for bit.  Likewise a flat mesh
moves streaming messages as express trains; ``express(False)`` is the
hop-by-hop reference.
"""

from contextlib import contextmanager

import pytest

from repro.sim.kernel import CycleSimulator

# Parametrisation of the drive axis for the suites whose cases are
# named "naive" (per-cycle ticks) and "scheduled" (plain run()).
DRIVE_PARAMS = [pytest.param("tick", id="naive"),
                pytest.param("run", id="scheduled")]


@contextmanager
def driven(drive):
    """Under ``"tick"``, every ``run``/``run_until`` in the block ticks
    every cycle: the next cycle to tick is always the current one.
    A sharded simulator asks its per-shard simulators, so it ticks
    every cycle too."""
    if drive == "run":
        yield
        return
    original = CycleSimulator._next_wake_cycle
    CycleSimulator._next_wake_cycle = lambda self: self.cycle
    try:
        yield
    finally:
        CycleSimulator._next_wake_cycle = original


@contextmanager
def express(enabled):
    """Under ``express(False)`` a flat mesh built in the block never
    forms express trains (see repro.noc.flatmesh): every flit moves
    hop by hop — the per-flit reference express runs must match."""
    from repro.noc.flatmesh import FlatMeshCore
    original = FlatMeshCore._express
    FlatMeshCore._express = enabled
    try:
        yield
    finally:
        FlatMeshCore._express = original
