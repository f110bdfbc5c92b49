"""Sharded-simulation scaling: one mesh, K column-band shards.

Runs the 32x32 scaled echo design (64 app replicas, MTU-sized
requests, saturated injection) single-process and sharded at K=2 and
K=4, and writes ``BENCH_shard.json``.

The sharded runs use the in-process loopback transport so the bench
can assert bit-identical frames against the K=1 reference on every
run.  Loopback executes the shards serially, so its own wall clock
cannot show parallel speedup; instead the sharded simulator times
each shard's tick work (``shard_busy_s``) and the boundary exchange
(``exchange_s``), and the bench reports the *critical-path* speedup

    T1_wall / (max(shard_busy_s) + exchange_s)

— the wall-clock speedup a K-core host realises with the
multiprocessing transport, where shards tick concurrently and only
the per-cycle boundary exchange is serial.  This keeps the gate
meaningful (and deterministic) on single-core CI runners.

Operating point: the app replicas are pinned to the two far-east
columns (30-31, every row), which spreads horizontal transit across
all bands, and the band widths are hand-balanced (``BOUNDS``) so the
edge bands — which carry the stack tiles, the reply column's vertical
transit, and the app columns' turn — get fewer columns.  Measured
locally: ~2.0-2.2x at K=2 and ~2.5-3.1x at K=4 (best-of-2); the CI
floor gates K=4 at 1.8x via ``benchmarks/baselines/BENCH_shard_floor.json``.
"""

import json
import time
from pathlib import Path

from repro.designs import FrameSink, FrameSource
from repro.designs.scaled_echo import ScaledEchoDesign
from repro.noc.message import reset_id_counters
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")

WIDTH = HEIGHT = 32
N_APPS = 64
# Far-east placement: requests cross every band eastward, replies
# westward, so each band owns a full share of horizontal transit.
APP_COORDS = [(x, y) for x in (30, 31) for y in range(HEIGHT)]
PAYLOAD = 1458            # MTU-sized UDP payload
N_FLOWS = 32              # distinct source ports -> all replicas hit
FRAMES = 400              # saturated: injected back-to-back
CYCLES = 4_000
REPS = 2                  # best-of-N (min T1, min critical path)

# Hand-balanced band widths.  Band 0 hosts the six stack tiles plus
# column 2's vertical reply transit and the last band the app columns'
# southbound turn, so both carry fixed work the even split would stack
# on top of a full column share; narrowing them equalises busy time
# (measured busy ~[0.44, 0.27, 0.26, 0.40] at K=4 vs [0.68, 0.26,
# 0.24, 0.50] for the even split).
BOUNDS = {2: [14, 18], 4: [3, 11, 11, 7]}

# CI regression floor for the K=4 critical-path speedup, enforced both
# here and by the checked-in BENCH_shard_floor.json gate.  Locally
# ~2.5-3.1x; 1.8x leaves headroom for noisy runners while still
# catching a serialised exchange or unbalanced partition.
MIN_K4_SPEEDUP = 1.8

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def _run(shards: int):
    """One run: (wall s, max shard busy s, exchange s, frames)."""
    reset_id_counters()
    design = ScaledEchoDesign(n_apps=N_APPS, width=WIDTH, height=HEIGHT,
                              mesh_backend="flat",
                              tile_backend="flat", shards=shards,
                              shard_bounds=BOUNDS.get(shards),
                              app_coords=APP_COORDS)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frames = [build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                   CLIENT_IP, design.server_ip,
                                   5555 + i, 7, bytes(PAYLOAD))
              for i in range(N_FLOWS)]
    source = FrameSource(design.inject, lambda i: frames[i % N_FLOWS],
                         rate=None, count=FRAMES)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    started = time.perf_counter()
    design.sim.run(CYCLES)
    wall = time.perf_counter() - started
    busy = getattr(design.sim, "shard_busy_s", None)
    exchange = getattr(design.sim, "exchange_s", 0.0)
    return wall, (max(busy) if busy else wall), exchange, \
        list(sink.frames)


def run_shard_scaling() -> dict:
    t1_wall = None
    best = {}  # K -> [min wall, min busy, min exchange, min critical]
    reference = None
    for _ in range(REPS):  # interleaved reps: noise hits every K alike
        wall, _, _, frames = _run(1)
        if reference is None:
            reference = frames
        t1_wall = wall if t1_wall is None else min(t1_wall, wall)
        for shards in (2, 4):
            wall, busy, exchange, frames = _run(shards)
            # Bit-identity against the single-process reference: same
            # frame bytes at the same emit cycles, every rep.
            assert frames == reference, \
                f"K={shards} sharded run diverged from the reference"
            critical = busy + exchange
            prev = best.get(shards)
            if prev is None:
                best[shards] = [wall, busy, exchange, critical]
            else:
                best[shards] = [min(a, b) for a, b in
                                zip(prev, [wall, busy, exchange,
                                           critical])]
    results = {
        "benchmark": "sharded mesh scaling (32x32 scaled echo, "
                     "saturated, loopback transport)",
        "speedup_mode": "critical_path",
        "cycles": CYCLES,
        "frames": len(reference),
        "k1": {"wall_s": round(t1_wall, 4)},
    }
    for shards in (2, 4):
        wall, busy, exchange, critical = best[shards]
        results[f"k{shards}"] = {
            "wall_s": round(wall, 4),
            "max_shard_busy_s": round(busy, 4),
            "exchange_s": round(exchange, 4),
            "speedup": round(t1_wall / critical, 3),
        }
    return results


def bench_shard_scaling(benchmark, report):
    results = benchmark.pedantic(run_shard_scaling, rounds=1,
                                 iterations=1)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = [["1", results["k1"]["wall_s"], "-", "-", "1.0"]]
    for shards in (2, 4):
        r = results[f"k{shards}"]
        rows.append([str(shards), r["wall_s"], r["max_shard_busy_s"],
                     r["exchange_s"], r["speedup"]])
    report.table(
        ["shards", "loopback wall s", "max shard busy s",
         "exchange s", "critical-path speedup"],
        rows,
    )
    report.row()
    report.row(f"{results['frames']} frames echoed, bit-identical "
               f"across K; results written to {RESULTS_PATH.name}")

    k4 = results["k4"]["speedup"]
    assert k4 >= MIN_K4_SPEEDUP, (
        f"K=4 critical-path speedup {k4}x below regression floor "
        f"{MIN_K4_SPEEDUP}x — serialised exchange or unbalanced "
        f"partition? (max busy {results['k4']['max_shard_busy_s']}s, "
        f"exchange {results['k4']['exchange_s']}s)")
    assert results["k2"]["speedup"] > 1.0
