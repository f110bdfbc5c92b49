"""Kernel speed: the one rule on the default 4x2 UDP echo.

The kernel steps every component every cycle and jumps the clock only
while every component is idle (see ``repro.sim.kernel``).  This
benchmark runs the default flat/flat ``UdpEchoDesign`` with MTU-sized
requests at 100/10/1/0.1% of the 50 B/cycle line rate and reports
simulated cycles per host second (``throughput_hz``) and the share of
cycles skipped, writing ``BENCH_kernel.json``.  Every source admits
through the NIC backlog gauge (``backlog=nic_backlog(design)``), so the
saturated row measures the stack, not an ever-growing ingress queue.

Gate: at 1% load, ``run()`` must beat a per-cycle ``tick()`` loop over
the same cycles by at least ``MIN_SKIP_SPEEDUP``, with bit-identical
frames and emit cycles — is the kernel still skipping?

An ungated object-mesh row (object/object at 10%) keeps the cost of
the per-object path visible: the object routers and tiles are stepped
every cycle while any of them is busy, where the flat cores skip their
idle members inside one step.
"""

import json
import time
from pathlib import Path

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.loadgen import nic_backlog
from repro.noc.message import reset_id_counters
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")

LINE_RATE = 50.0          # bytes/cycle, the design's modelled MAC rate
PAYLOAD = 1458            # MTU-sized UDP payload
#: (row name, fraction of line rate, cycles run).
LOADS = (
    ("load_100", 1.0, 20_000),
    ("load_10", 0.1, 100_000),
    ("load_1", 0.01, 500_000),
    ("load_0_1", 0.001, 2_000_000),
)
GATE_FRACTION = 0.01
GATE_CYCLES = 100_000
REPS = 3                  # best-of-N wall clock per configuration

# Floor for run() over a ticked loop at 1% load: the ratio is ~4.6x on
# a 2-vCPU x86 host; 2.0x still catches a kernel that stopped skipping.
MIN_SKIP_SPEEDUP = 2.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _run(fraction: float, cycles: int, ticked: bool = False,
         backend: str = "flat"):
    """One run: (wall seconds, frames [(bytes, cycle)], cycles skipped)."""
    reset_id_counters()
    design = UdpEchoDesign(udp_port=7,
                           line_rate_bytes_per_cycle=LINE_RATE,
                           mesh_backend=backend, tile_backend=backend)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                 CLIENT_IP, design.server_ip, 5555, 7,
                                 bytes(PAYLOAD))
    source = FrameSource(design.inject, lambda i: frame,
                         rate=LINE_RATE * fraction,
                         backlog=nic_backlog(design))
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    started = time.perf_counter()
    if ticked:
        for _ in range(cycles):
            design.sim.tick()
    else:
        design.sim.run(cycles)
    wall = time.perf_counter() - started
    return wall, list(sink.frames), design.sim.idle_cycles_skipped


def _row(fraction: float, cycles: int, backend: str = "flat") -> dict:
    wall, frames, skipped = _run(fraction, cycles, backend=backend)
    for _ in range(REPS - 1):
        wall = min(wall, _run(fraction, cycles, backend=backend)[0])
    return {
        "design": f"UdpEchoDesign 4x2 {backend}/{backend}",
        "line_rate_share": fraction,
        "cycles": cycles,
        "frames": len(frames),
        "wall_s": round(wall, 4),
        "throughput_hz": round(cycles / wall),
        "skip_ratio": round(skipped / cycles, 4),
    }


def _skip_gate() -> dict:
    """``run()`` vs a per-cycle ``tick()`` loop at 1% load."""
    run_wall, run_frames, skipped = _run(GATE_FRACTION, GATE_CYCLES)
    tick_wall, tick_frames, _ = _run(GATE_FRACTION, GATE_CYCLES,
                                     ticked=True)
    for _ in range(REPS - 1):
        run_wall = min(run_wall, _run(GATE_FRACTION, GATE_CYCLES)[0])
        tick_wall = min(tick_wall, _run(GATE_FRACTION, GATE_CYCLES,
                                        ticked=True)[0])
    # Bit-identical results: same frame bytes at the same emit cycles.
    assert run_frames == tick_frames, \
        "run() diverged from the per-cycle tick() loop"
    return {
        "cycles": GATE_CYCLES,
        "line_rate_share": GATE_FRACTION,
        "frames": len(run_frames),
        "run_wall_s": round(run_wall, 4),
        "tick_wall_s": round(tick_wall, 4),
        "speedup": round(tick_wall / run_wall, 3),
        "idle_cycles_skipped": skipped,
    }


def run_kernel_speed() -> dict:
    return {
        "benchmark": "one-rule kernel on the 4x2 UDP echo",
        "payload_bytes": PAYLOAD,
        "rows": {name: _row(fraction, cycles)
                 for name, fraction, cycles in LOADS},
        "object_mesh_10": _row(0.1, 100_000, backend="object"),
        "skip_gate": _skip_gate(),
    }


def bench_kernel_speed(benchmark, report):
    results = benchmark.pedantic(run_kernel_speed, rounds=1, iterations=1)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = []
    for name, r in [*results["rows"].items(),
                    ("object_mesh_10", results["object_mesh_10"])]:
        rows.append([name, r["design"], r["frames"], r["cycles"],
                     r["throughput_hz"], r["skip_ratio"]])
    report.table(
        ["row", "design", "frames", "cycles", "cycles/s",
         "skip ratio"],
        rows,
    )
    gate = results["skip_gate"]
    report.row()
    report.row(f"1% load, run() vs tick() loop: {gate['run_wall_s']} s "
               f"vs {gate['tick_wall_s']} s -> {gate['speedup']}x "
               f"(floor {MIN_SKIP_SPEEDUP}x)")
    report.row(f"results written to {RESULTS_PATH.name}")

    assert gate["speedup"] >= MIN_SKIP_SPEEDUP, (
        f"run() is only {gate['speedup']}x faster than ticking every "
        f"cycle at 1% load (floor {MIN_SKIP_SPEEDUP}x) — is the kernel "
        f"still skipping? (skipped {gate['idle_cycles_skipped']} "
        "cycles)")
    assert gate["idle_cycles_skipped"] > 0
    assert results["rows"]["load_100"]["frames"] > 0
