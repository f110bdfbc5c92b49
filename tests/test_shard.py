"""Sharded execution engine (repro.sim.shard / repro.noc.shardmesh).

The contract under test: cutting a design's mesh into K contiguous
column bands, each hosting a full per-shard simulator, and exchanging
boundary flits once per cycle behind the 1-cycle link lookahead must
be *bit-identical* to the single-process reference — same frames at
the same cycles, same counters, same (canonically ordered) traces.
The equivalence cases hold under both drives: "naive" ticks every
cycle, "scheduled" is plain ``run()``, which jumps idle spans.

Trace canonicalisation: one shared tracer records all shards' events
at correct cycles; only within-cycle interleaving differs across K, so
fingerprints sort the event lists and strip ``msg_id`` (allocation
order differs across shard namespaces; ``packet_id`` stays exact).
"""

import pytest

from repro.designs import (FrameSink, FrameSource, LoggedUdpEchoDesign,
                           UdpEchoDesign)
from repro.designs.scaled_echo import ScaledEchoDesign
from repro.faults import FaultPlan
from repro.noc.message import reset_id_counters
from repro.noc.shardmesh import band_bounds
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.sim.shard import ShardedSimulator, make_simulator
from repro.telemetry import design_counters
from repro.telemetry.probe import attach_probe
from repro.telemetry.trace import Tracer, attach_tracer
from tests.drives import DRIVE_PARAMS, driven

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")

COMBOS = [(mesh, tile)
          for mesh in ("object", "flat")
          for tile in ("object", "flat")]


def echo_frame(design, payload, sport=5555, port=7):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip,
                                sport, port, payload)


def run_echo(mesh_backend, tile_backend, shards,
             saturate=False, count=30, cycles=6000):
    reset_id_counters()
    design = UdpEchoDesign(udp_port=7,
                           line_rate_bytes_per_cycle=(
                               None if saturate else 50.0),
                           mesh_backend=mesh_backend,
                           tile_backend=tile_backend, shards=shards)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = echo_frame(design, b"x" * 200)
    source = FrameSource(design.inject, lambda i: frame,
                         rate=(None if saturate else 5.0), count=count)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    design.sim.run(cycles)
    counters = design_counters(design)
    return {
        "cycle": design.sim.cycle,
        "frames": list(sink.frames),
        "count": sink.count,
        "first": sink.first_cycle,
        "last": sink.last_cycle,
        "tiles": counters["tiles"],
        "router_flits": counters["router_flits"],
        "total_flits": counters["total_flits"],
    }


class TestBandBounds:
    def test_even_split(self):
        assert band_bounds(8, 4) == [(0, 2), (2, 2), (4, 2), (6, 2)]

    def test_remainder_goes_left(self):
        assert band_bounds(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_single_shard_is_whole_mesh(self):
        assert band_bounds(5, 1) == [(0, 5)]

    def test_bands_tile_the_width(self):
        for width in (4, 7, 16):
            for shards in range(1, width + 1):
                bounds = band_bounds(width, shards)
                assert bounds[0][0] == 0
                assert sum(w for _, w in bounds) == width
                for (x0, w0), (x1, _) in zip(bounds, bounds[1:]):
                    assert x1 == x0 + w0

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            band_bounds(4, 5)
        with pytest.raises(ValueError):
            band_bounds(4, 0)

    def test_explicit_widths(self):
        assert band_bounds(8, 3, [1, 5, 2]) == \
            [(0, 1), (1, 5), (6, 2)]

    def test_explicit_widths_validated(self):
        with pytest.raises(ValueError, match="band widths"):
            band_bounds(8, 3, [4, 4])          # wrong length
        with pytest.raises(ValueError, match="sum"):
            band_bounds(8, 3, [1, 2, 3])       # wrong total
        with pytest.raises(ValueError, match=">= 1 column"):
            band_bounds(8, 3, [0, 4, 4])       # empty band


class TestFactory:
    def test_single_shard_is_plain_simulator(self):
        sim = make_simulator(shards=1)
        assert not isinstance(sim, ShardedSimulator)
        assert not getattr(sim, "is_sharded", False)

    def test_sharded_simulator_advertises_shards(self):
        sim = make_simulator(shards=3)
        assert isinstance(sim, ShardedSimulator)
        assert sim.is_sharded
        assert sim.shards == 3

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            make_simulator(shards=2, shard_transport="carrier-pigeon")

    def test_sanitized_tick_unsupported(self):
        with pytest.raises(NotImplementedError):
            make_simulator(shards=2).sanitized_tick(None)


class TestEquivalenceMatrix:
    """Pinned-seed runs at K=2/4 bit-identical to the K=1 reference."""

    @pytest.mark.parametrize("mesh_backend,tile_backend", COMBOS)
    @pytest.mark.parametrize("drive", DRIVE_PARAMS)
    def test_idle_heavy_k2(self, drive, mesh_backend, tile_backend):
        with driven(drive):
            ref = run_echo(mesh_backend, tile_backend, 1)
            assert ref["count"] == 30
            assert run_echo(mesh_backend, tile_backend, 2) == ref

    @pytest.mark.parametrize("drive,mesh_backend,tile_backend",
                             [("run", "flat", "flat"),
                              ("run", "object", "object"),
                              ("tick", "flat", "object")],
                             ids=["scheduled-flat-flat",
                                  "scheduled-object-object",
                                  "naive-flat-object"])
    def test_saturated_k2_and_k4(self, drive, mesh_backend,
                                 tile_backend):
        with driven(drive):
            ref = run_echo(mesh_backend, tile_backend, 1,
                           saturate=True)
            assert ref["count"] == 30
            for shards in (2, 4):
                got = run_echo(mesh_backend, tile_backend, shards,
                               saturate=True)
                assert got == ref, f"K={shards} diverged"

    def test_same_k_runs_are_deterministic(self):
        # Full equality, msg_ids included: the per-shard namespaces
        # are themselves deterministic.
        first = run_echo("flat", "flat", 4, saturate=True)
        second = run_echo("flat", "flat", 4, saturate=True)
        assert first == second

    def test_logged_design_k2(self):
        def run(shards):
            reset_id_counters()
            design = LoggedUdpEchoDesign(
                udp_port=7, line_rate_bytes_per_cycle=50.0,
                mesh_backend="flat",
                tile_backend="flat", shards=shards)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            frame = echo_frame(design, b"l" * 120)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=5.0, count=20)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(6000)
            counters = design_counters(design)
            return {"cycle": design.sim.cycle,
                    "frames": list(sink.frames),
                    "tiles": counters["tiles"]}

        ref = run(1)
        assert run(2) == ref

    def test_scaled_echo_k4(self):
        def run(shards, bounds=None):
            reset_id_counters()
            design = ScaledEchoDesign(n_apps=16, width=8, height=4,
                                      mesh_backend="flat",
                                      tile_backend="flat",
                                      shards=shards,
                                      shard_bounds=bounds)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            frame = echo_frame(design, b"s" * 256)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=None, count=120)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(9000)
            counters = design_counters(design)
            return {"cycle": design.sim.cycle,
                    "frames": list(sink.frames),
                    "count": sink.count,
                    "tiles": counters["tiles"],
                    "router_flits": counters["router_flits"]}

        ref = run(1)
        assert ref["count"] == 120
        for shards in (2, 4):
            assert run(shards) == ref, f"K={shards} diverged"
        # Uneven hand-balanced cuts move the boundary columns but must
        # not move a single bit of behaviour.
        assert run(2, bounds=[3, 5]) == ref
        assert run(4, bounds=[3, 2, 2, 1]) == ref


def strip_msg_ids(spans):
    return sorted(
        (s.tile, s.coord, s.packet_id, s.received, s.start, s.end,
         s.outputs) for s in spans)


def trace_fingerprint(tracer):
    return {
        "spans": strip_msg_ids(tracer.spans),
        "inject_spans": sorted(
            (s.coord, s.packet_id, s.start, s.end)
            for s in tracer.inject_spans),
        "drops": sorted(tracer.drops),
        "link_flits": sorted(tracer.link_flits),
        "link_stalls": sorted(tracer.link_stalls),
        "horizon": tracer.last_cycle,
    }


class TestTracedEquivalence:
    @pytest.mark.parametrize("drive,backend",
                             [("run", "flat"),
                              ("run", "object"),
                              ("tick", "flat")],
                             ids=["scheduled-flat", "scheduled-object",
                                  "naive-flat"])
    def test_merged_trace_streams_identical(self, drive, backend):
        def run(shards):
            reset_id_counters()
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   mesh_backend=backend,
                                   tile_backend=backend, shards=shards)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            frame = echo_frame(design, b"t" * 180)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=None, count=30)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(5000)
            assert sink.count == 30
            fingerprint = trace_fingerprint(tracer)
            fingerprint["frames"] = list(sink.frames)
            fingerprint["cycle"] = design.sim.cycle
            return fingerprint

        with driven(drive):
            ref = run(1)
            for shards in (2, 4):
                assert run(shards) == ref, f"K={shards} diverged"


class TestFaultSoak:
    @pytest.mark.parametrize("backend", ["object", "flat"])
    def test_faulted_run_bit_identical(self, backend):
        # Fault targets straddle the shard cuts: a frozen tile in the
        # middle band, a stalled link and flit corruption near the
        # east edge, plus seeded wire noise on ingress.
        def run(shards):
            reset_id_counters()
            plan = (FaultPlan(seed=0xD1CE)
                    .wire(drop=0.05, corrupt=0.05, duplicate=0.03,
                          reorder=0.05, delay=0.05,
                          delay_range=(1, 40))
                    .freeze_tile("udp_rx", 400, 700)
                    .stall_link((1, 0), 900, 200)
                    .corrupt_flits(0.02, coords=[(3, 0)]))
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   mesh_backend=backend,
                                   tile_backend=backend,
                                   fault_plan=plan, shards=shards)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            frame = echo_frame(design, b"f" * 150)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=4.0, count=60)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(12000)
            counters = design_counters(design)
            return {"cycle": design.sim.cycle,
                    "frames": list(sink.frames),
                    "malformed": sink.malformed,
                    "tiles": counters["tiles"],
                    "router_flits": counters["router_flits"],
                    "faults": design.fault_engine.counters}

        ref = run(1)
        for shards in (2, 4):
            assert run(shards) == ref, f"K={shards} diverged"


class TestProbedRun:
    def test_probe_sees_identical_behaviour(self):
        def run(shards):
            reset_id_counters()
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   mesh_backend="flat",
                                   tile_backend="flat", shards=shards)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            probe = attach_probe(design, interval=64)
            frame = echo_frame(design, b"p" * 100)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=5.0, count=25)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(4000)
            return {"frames": list(sink.frames),
                    "count": sink.count,
                    "samples": probe.samples_taken}

        ref = run(1)
        for shards in (2, 4):
            got = run(shards)
            # Simulated behaviour is exact; the probe itself samples
            # on the same cadence (its snapshots may differ only in
            # end-of-cycle FIFO depths, which include the exchange's
            # deliveries — see Probe.shard_scope).
            assert got["frames"] == ref["frames"]
            assert got["count"] == ref["count"]
            assert got["samples"] == ref["samples"]


class TestTelemetrySurface:
    def test_design_report_shows_shards(self):
        from repro.telemetry import design_report
        reset_id_counters()
        design = UdpEchoDesign(udp_port=7,
                               line_rate_bytes_per_cycle=None,
                               mesh_backend="flat",
                               tile_backend="flat", shards=2)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        design.inject(echo_frame(design, b"t" * 64), 0)
        design.sim.run(500)
        assert "shards=2" in design_report(design)

        reset_id_counters()
        plain = UdpEchoDesign(udp_port=7,
                              line_rate_bytes_per_cycle=None)
        assert "shards=1" in design_report(plain)


class TestMultiprocessTransport:
    def build(self, shards, transport):
        reset_id_counters()
        design = UdpEchoDesign(udp_port=7,
                               line_rate_bytes_per_cycle=None,
                               mesh_backend="flat",
                               tile_backend="flat", shards=shards,
                               shard_transport=transport)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        frame = echo_frame(design, b"m" * 200)
        source = FrameSource(design.inject, lambda i: frame,
                             rate=None, count=50)
        sink = FrameSink(design.eth_tx)
        design.sim.add(source)
        design.sim.add(sink)
        return design, sink

    def test_mp_matches_loopback(self):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        design, sink = self.build(2, "loopback")
        design.sim.run(4000)
        ref = (sink.count, list(sink.frames))
        assert ref[0] == 50

        design, sink = self.build(2, "mp")
        design.sim.set_harvest(lambda: (sink.count, list(sink.frames)))
        try:
            design.sim.run(4000)
            results = design.sim.harvest()
            stats = design.sim.stats()
        finally:
            design.sim.shutdown()
        assert results[0] == ref  # the sink lives in shard 0
        assert results[1][0] == 0
        assert stats["shards"] == 2

    def test_mp_rejects_run_until_and_ticks(self):
        design, _ = self.build(2, "mp")
        with pytest.raises(NotImplementedError):
            design.sim.run_until(lambda: True)
        with pytest.raises(RuntimeError):
            design.sim.tick()
        design.sim.shutdown()

    def test_mp_rejects_global_components(self):
        # Coordinator-stepped (global) components need the loopback
        # transport; the FaultEngine is added at design construction,
        # so the rejection fires there.
        plan = FaultPlan(seed=1).wire(drop=0.1)
        reset_id_counters()
        with pytest.raises(RuntimeError):
            UdpEchoDesign(udp_port=7,
                          line_rate_bytes_per_cycle=None,
                          mesh_backend="flat",
                          tile_backend="flat", fault_plan=plan,
                          shards=2, shard_transport="mp")
