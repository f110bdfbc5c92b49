#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload udp_echo_mtu_closed --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer split from a traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("udp_echo_mtu_closed", "udp_echo_64b_bursty",
                  "scaled_echo_7x4_closed", "tcp_reno_4flow_lossy")
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Size of the negative-check episode relative to the reference one.
NEGATIVE_SCALE = 0.05
#: Share of a traced run's time spent on untraced episodes, the base of
#: ``trace.overhead``.
UNTRACED_SHARE = 0.35
#: The machine-speed probe: a fixed pure-Python loop, timed before and
#: after every timed episode and set-up probe (see README.md, "Host time
#: on a shared machine").
PROBE_LOOPS = 300_000
#: What the probe takes on the reference machine (2 x86 vCPUs, CPython
#: 3.11) when no other tenant slows it down.  Host times are reported
#: multiplied by ``PROBE_REFERENCE_S / measured probe time``.
PROBE_REFERENCE_S = 0.044


def load_program():
    """Import the workloads, and through them the program, from
    ``src/`` of this checkout."""
    sys.path.insert(0, str(SRC))
    import workloads

    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro was imported from {repro.__file__}, "
                          f"not from {SRC}")
    return workloads


# -- machine speed ------------------------------------------------------


def machine_probe() -> float:
    """Seconds the machine takes right now for a fixed Python loop."""
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_LOOPS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor turning host seconds measured between two probes into
    reference-machine seconds."""
    return PROBE_REFERENCE_S / ((before + after) / 2)


# -- set-up time --------------------------------------------------------


def setup_probe(name: str, seed: int) -> int:
    """Child side of ``setup_s``: import, build, generate, one cycle."""
    workloads = load_program()
    workload = workloads.WORKLOADS[name]
    design, _load = workload.build(workload.inputs(seed))
    design.sim.tick()
    print("ready", flush=True)
    return 0


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first simulated
    cycle, once per probe process: ``(raw, scaled)``."""
    raw, scaled = [], []
    before = machine_probe()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", name, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            try:
                code = child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        after = machine_probe()
        raw.append(elapsed)
        scaled.append(elapsed * speed_scale(before, after))
        before = after
    return raw, scaled


# -- measuring ----------------------------------------------------------


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def simulated(result) -> dict:
    """The simulated (host-independent) outputs of one episode."""
    from repro import params
    lat = sorted(result.latencies)
    seconds = max(result.completion, 1) * params.CYCLE_TIME_S
    return {
        "digest": f"{result.digest:08x}",
        "cycles": result.cycles,
        "completion": result.completion,
        "frames": result.frames,
        "goodput_gbps": result.payload_bytes * 8 / seconds / 1e9,
        "p50": percentile(lat, 50) if lat else 0,
        "p99": percentile(lat, 99) if lat else 0,
        "samples": len(lat),
        "counters": dict(result.counters),
    }


class Run:
    """One benchmark process: inputs, reference episode, timed episodes.

    The *reference episode* is full size: it warms the process up and
    gives the simulated metrics.  The *timed episodes* are the same
    workload generated at ``workload.timed_scale`` of that size, run
    back to back for ``seconds``; host time is taken from them.  Every
    episode is checked, and the timed episodes must all produce the
    same simulated output and digest.
    """

    def __init__(self, workloads, name: str, seed: int, seconds: float):
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None
        self.timed_reference: dict | None = None

    def prepare(self) -> None:
        """Generate the inputs, run the negative check and the
        reference episode."""
        workload = self.workload
        self.timed_inputs = workload.inputs(self.seed, workload.timed_scale)
        problem = workload.negative_check(
            workload.inputs(self.seed, NEGATIVE_SCALE))
        if problem:
            self.problems.append(f"negative check: {problem}")
        result, _wall, _design = self.workloads.run_episode(
            workload, workload.inputs(self.seed))
        self.reference = self.check(result, "reference episode")

    def check(self, result, label: str) -> dict:
        """Record failures of one episode; returns its simulated output."""
        if result.errors:
            self.problems.append(f"{label}: {dict(result.errors)}")
        if result.failed:
            self.problems.append(f"{label}: {result.failed} of "
                                 f"{result.attempted} failed")
        self.attempted += result.attempted
        self.failed += result.failed
        return simulated(result)

    def timed_episodes(self, seconds: float, instrument=None):
        """Run timed episodes until ``seconds`` have passed (at least
        one); yields ``(result, wall_s, scale, design)`` where ``scale``
        turns ``wall_s`` into reference-machine seconds."""
        start = perf_counter()
        index = 0
        before = machine_probe()
        while index == 0 or perf_counter() - start < seconds:
            result, wall, design = self.workloads.run_episode(
                self.workload, self.timed_inputs, instrument)
            after = machine_probe()
            scale = speed_scale(before, after)
            before = after
            sim = self.check(result, f"timed episode {index}")
            if self.timed_reference is None:
                self.timed_reference = sim
            elif sim != self.timed_reference:
                self.problems.append(
                    f"timed episode {index}: simulated output differs from "
                    f"timed episode 0 (digest {sim['digest']} vs "
                    f"{self.timed_reference['digest']})")
            index += 1
            yield result, wall, scale, design


def end_to_end(run: Run) -> dict:
    setup_raw, setup = measure_setup(run.name, run.seed)
    run.prepare()
    us_per_frame, rates, raw_us = [], [], []
    for result, wall, scale, _design in run.timed_episodes(run.seconds):
        frames = max(result.frames, 1)
        us_per_frame.append(wall * scale / frames * 1e6)
        rates.append(result.cycles / (wall * scale))
        raw_us.append(wall / frames * 1e6)
    sim = run.reference
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    share = (run.attempted - run.failed) / run.attempted
    print(f"# {run.name}: {run.workload.describe()}; seed {run.seed}")
    print(f"# reference episode: digest {sim['digest']}, "
          f"{sim['samples']} latency samples, {sim['counters']}")
    print(f"# {len(rates)} timed episodes of {run.workload.timed_scale:g} "
          f"size: digest {run.timed_reference['digest']}")
    print(f"# unscaled host us/frame: min {min(raw_us):.1f} median "
          f"{statistics.median(raw_us):.1f} max {max(raw_us):.1f}; "
          f"scaled: min {min(us_per_frame):.1f} "
          f"max {max(us_per_frame):.1f}")
    print(f"# setup probes, unscaled (s): "
          f"{' '.join(f'{t:.4f}' for t in setup_raw)}")
    return {
        "sim_cycles_per_s": (statistics.median(rates), "cycles/s"),
        "host_us_per_frame": (statistics.median(us_per_frame), "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "success_share": (share, "ratio"),
        "sim_goodput_gbps": (sim["goodput_gbps"], "Gbps"),
        "sim_latency_p50_cycles": (sim["p50"], "cycles"),
        "sim_latency_p99_cycles": (sim["p99"], "cycles"),
        "sim_completion_cycles": (sim["completion"], "cycles"),
    }


def per_layer(run: Run) -> dict:
    import spans

    run.prepare()
    untraced = [wall * scale for _result, wall, scale, _design in
                run.timed_episodes(run.seconds * UNTRACED_SHARE)]
    rows, traced = [], []
    first_trace = None
    remaining = run.seconds * (1 - UNTRACED_SHARE)
    start = perf_counter()
    while not rows or perf_counter() - start < remaining:
        trace = spans.SpanTrace()
        try:
            result, wall, scale, design = next(
                run.timed_episodes(0, trace.install))
        finally:
            trace.uninstall()
        rows.append(layer_metrics(trace, result, wall, design))
        traced.append(wall * scale)
        if first_trace is None:
            first_trace = trace
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"spans-{run.name}-seed{run.seed}"
    first_trace.write(str(stem))
    print(f"# {run.name}: {len(untraced)} untraced and {len(rows)} traced "
          f"episodes of {run.workload.timed_scale:g} size; "
          f"{len(first_trace)} spans written to {stem}.bin")
    metrics = {}
    for key, (_value, unit) in rows[0].items():
        metrics[key] = (statistics.median(r[key][0] for r in rows), unit)
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


def layer_metrics(trace, result, wall: float, design) -> dict:
    from spans import CHECKSUM_SPAN, SpanTrace

    times = trace.self_times()
    layer = dict.fromkeys(("sim", "noc", "tiles", "packet", "tcp", "bench"),
                          0.0)
    packet_calls = 0
    for span, (calls, _total, self_s) in times.items():
        name = SpanTrace.layer_of(span)
        layer[name] += self_s
        if name == "packet":
            packet_calls += calls

    def calls(span: str) -> int:
        return times.get(span, (0, 0.0, 0.0))[0]

    def self_s(span: str) -> float:
        return times.get(span, (0, 0.0, 0.0))[2]

    counters = result.counters
    ticks = calls("sim.tick")
    hops = design.mesh.total_flits_forwarded
    messages = calls("tiles.handle_message")
    checksum_bytes = trace.checksum_bytes
    data_sent = counters.get("data_segments_sent", 0)
    skipped = counters["cycles_skipped"]
    ns = 1e9
    return {
        "sim.ticks": (ticks, "count"),
        "sim.cycles_skipped": (skipped, "cycles"),
        "sim.skip_ratio": (skipped / max(result.cycles, 1), "ratio"),
        "sim.component_steps": (counters["component_steps"], "count"),
        "sim.self_s": (layer["sim"], "s"),
        "sim.ns_per_tick": (layer["sim"] / max(ticks, 1) * ns, "ns"),
        "noc.step_s": (self_s("noc.step"), "s"),
        "noc.commit_s": (self_s("noc.commit"), "s"),
        "noc.flit_hops": (hops, "count"),
        "noc.ns_per_flit_hop": (
            (self_s("noc.step") + self_s("noc.commit")) / max(hops, 1) * ns,
            "ns"),
        "tiles.step_s": (self_s("tiles.step"), "s"),
        "tiles.handler_s": (self_s("tiles.handle_message"), "s"),
        "tiles.messages": (messages, "count"),
        "tiles.ns_per_message": (
            layer["tiles"] / max(messages, 1) * ns, "ns"),
        "tiles.drops": (sum(tile.drops for tile in design.tiles), "count"),
        "packet.calls": (packet_calls, "count"),
        "packet.self_s": (layer["packet"], "s"),
        "packet.checksum_bytes": (checksum_bytes, "bytes"),
        "packet.ns_per_checksum_byte": (
            self_s(CHECKSUM_SPAN) / max(checksum_bytes, 1) * ns, "ns"),
        "tcp.peer_s": (layer["tcp"], "s"),
        "tcp.segments_sent": (counters.get("segments_sent", 0), "count"),
        "tcp.retransmits": (counters.get("retransmits", 0), "count"),
        "tcp.fast_retransmits": (counters.get("fast_retransmits", 0),
                                 "count"),
        "tcp.useful_segment_ratio": (
            result.frames / data_sent if data_sent else 0.0, "ratio"),
        "faults.wire_drops": (counters.get("wire_drops", 0), "count"),
        "trace.coverage": (sum(layer.values()) / wall, "ratio"),
        "bench.driver_s": (layer["bench"], "s"),
    }


# -- command line -------------------------------------------------------


def run_one(args) -> int:
    try:
        workloads = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    run = Run(workloads, args.workload, args.seed, args.seconds)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    for key, (value, unit) in metrics.items():
        print(f"{key:<28} {value:>16.6g} {unit}")
    for problem in run.problems:
        print(f"# FAILED CHECK: {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process (so peak memory is
    per workload); prints each one's output and a combined JSON line."""
    combined, worst = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode:
            worst = max(worst, proc.returncode)
        if not lines or not lines[-1].startswith("{"):
            worst = max(worst, 2)
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
