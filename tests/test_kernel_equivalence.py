"""Differential tests: skipping idle stretches must be cycle-exact.

Every shipped design is driven with identical traffic under every
(drive, mesh backend, tile backend) combination — drive ``"tick"``
(``run``/``run_until`` reduced to a plain per-cycle ``tick()`` loop,
the reference that never skips) vs ``"run"`` (the kernel's jump over
stretches where every component is idle), crossed with
``mesh_backend="object"|"flat"`` (per-router components vs the
array-of-struct batch core) and ``tile_backend="object"|"flat"``
(per-tile components vs the flat tile engine) — and the complete
observable state is compared:

- per-tile counters (messages/bytes in and out, drops with reasons)
  and per-router flit counts;
- every egress frame with its emit cycle;
- the full trace event streams (tile spans, injection spans, drops,
  per-link flit and stall events, buffer levels, trace horizon).

Any skipping or batching bug — an ``is_idle`` that lies, a late
``next_event_cycle``, a reordered step, a flit moved through the wrong
arbitration order — shows up as a diff here, which is the correctness
bar every optimisation is held to (an optimisation that changes
results is a different simulator, not a faster one).

The scenarios live at module level in :data:`SCENARIOS` so other
suites can replay them: ``tests/test_express.py`` runs each one
untraced (a recording tracer turns express wormholes off) against its
golden digest and against a per-flit reference.
"""

from repro.designs import (
    FrameSink,
    FrameSource,
    LoggedUdpEchoDesign,
    MultiStackDesign,
    ScaledEchoDesign,
    UdpEchoDesign,
    VxlanEchoDesign,
)
from repro.designs.rs_design import RsDesign
from repro.designs.tcp_stack import TcpServerDesign
from repro.designs.virt_stack import NatEchoDesign
from repro.designs.vr_design import VrWitnessDesign
from repro.noc.message import reset_id_counters
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
)
from repro.packet.vxlan import build_vxlan_frame
from repro.apps.vr.tile import MSG_PREPARE, PrepareWire
from repro.tcp.peer import SoftTcpPeer
from repro.telemetry import design_counters
from repro.telemetry.trace import Tracer, attach_tracer
from tests.drives import driven

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")
# (drive, mesh_backend, tile_backend) — the first combo is the
# reference: per-cycle ticks, per-object routers, per-object tiles.
COMBOS = (
    ("tick", "object", "object"),
    ("run", "object", "object"),
    ("tick", "flat", "object"),
    ("run", "flat", "object"),
    ("tick", "object", "flat"),
    ("run", "object", "flat"),
    ("tick", "flat", "flat"),
    ("run", "flat", "flat"),
)


def fingerprint(design, sink, tracer):
    """Everything observable about a finished run, comparable across
    drives and backends.

    ``tracer`` is None for an untraced run: the trace streams are
    left out and the flit-level ledger is put in — every port's
    injected/ejected flits and messages, every router's per-output
    flit counts, and the full ``design_counters`` (high-water marks
    included), minus the backend names.
    """
    counters = design_counters(design)
    fp = {
        "cycle": design.sim.cycle,
        "tiles": counters["tiles"],
        "router_flits": counters["router_flits"],
        "total_flits": counters["total_flits"],
        "frames": None if sink is None else list(sink.frames),
        "egress_count": None if sink is None else sink.count,
        "first_cycle": None if sink is None else sink.first_cycle,
        "last_cycle": None if sink is None else sink.last_cycle,
    }
    if tracer is not None:
        fp.update({
            "spans": tracer.spans,
            "inject_spans": tracer.inject_spans,
            "trace_drops": tracer.drops,
            "link_flits": tracer.link_flits,
            "link_stalls": tracer.link_stalls,
            "buffer_levels": tracer.buffer_levels,
            "trace_horizon": tracer.last_cycle,
        })
        return fp
    counters.pop("backends")
    fp["design_counters"] = counters
    fp["ports"] = {
        coord: (port.flits_injected, port.flits_ejected,
                port.messages_sent, port.messages_received,
                port.eject_fifo.high_water)
        for coord, port in sorted(design.mesh.ports.items())}
    fp["links"] = {
        coord: [(port.value, flits)
                for port, flits in router.flits_per_output.items()]
        for coord, router in sorted(design.mesh.routers.items())}
    return fp


def traced_by(design, traced):
    """Attach a recording tracer when ``traced``; returns it or None."""
    return attach_tracer(design, Tracer()) if traced else None


def echo_frame(design, payload, sport=5555, port=7):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip, sport,
                                port, payload)


# -- scenarios: scenario(backend, tiles, traced) -> fingerprint ----------


def udp_idle_heavy(backend, tiles, traced=True):
    """10% line rate: mostly idle cycles — the idle-skip sweet spot,
    and exactly where a lying is_idle would surface."""
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=50.0,
                           mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    frame = echo_frame(design, b"x" * 64)
    source = FrameSource(design.inject, lambda i: frame,
                         rate=5.0, count=20)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    design.sim.run(6000)
    assert sink.count == 20
    return fingerprint(design, sink, tracer)


def udp_saturating(backend, tiles, traced=True):
    """Saturation: no idle cycles, contention and backpressure
    everywhere — checks the per-cycle path under load."""
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None,
                           mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    frame = echo_frame(design, b"y" * 256)
    source = FrameSource(design.inject, lambda i: frame,
                         rate=None, count=64)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    design.sim.run(4000)
    assert sink.count == 64
    return fingerprint(design, sink, tracer)


def udp_bursts(backend, tiles, traced=True):
    """Bursts separated by thousand-cycle gaps: each gap is an
    idle-skip; each burst must land on the exact cycle."""
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=50.0,
                           mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    for burst in range(4):
        base = burst * 2500
        for i in range(3):
            design.inject(echo_frame(design, bytes([burst]) * 100),
                          base + i)
        design.sim.run(base + 2500 - design.sim.cycle)
    assert sink.count == 12
    return fingerprint(design, sink, tracer)


def udp_drops(backend, tiles, traced=True):
    """Frames for the wrong port/MAC exercise the drop paths."""
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=50.0,
                           mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    design.inject(echo_frame(design, b"ok"), 0)
    design.inject(echo_frame(design, b"wrong", port=9), 40)
    design.inject(b"\x00" * 10, 80)  # malformed
    design.inject(echo_frame(design, b"ok2"), 1500)
    design.sim.run(3000)
    assert sink.count == 2
    return fingerprint(design, sink, tracer)


def udp_mtu_saturating(backend, tiles, traced=True):
    """MTU payloads at saturation: long wormholes streaming one flit
    per cycle behind busy engines, the express-wormhole workload."""
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None,
                           mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    frame = echo_frame(design, bytes(range(256)) * 5 + b"m" * 178)
    source = FrameSource(design.inject, lambda i: frame,
                         rate=None, count=24)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    design.sim.run(2500)
    assert sink.count == 24
    return fingerprint(design, sink, tracer)


def logged_echo(backend, tiles, traced=True):
    design = LoggedUdpEchoDesign(udp_port=7,
                                 line_rate_bytes_per_cycle=50.0,
                                 mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    for i in range(6):
        design.inject(echo_frame(design, b"log" * 10), i * 700)
    design.sim.run(6000)
    assert sink.count == 6
    return fingerprint(design, sink, tracer)


def tcp_transfer(backend, tiles, traced=True):
    """A full TCP session: handshake, request/response transfer,
    retransmission timers — the richest timer workload we have."""
    design = TcpServerDesign(tcp_port=5000, request_size=16,
                             mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                       design.server_ip, 5000, wire_cycles=50)
    design.sim.add(peer)
    peer.connect()
    design.sim.run(5000)
    assert peer.established
    for _ in range(8):
        peer.send(b"0123456789abcdef")
    design.sim.run(20000)
    assert len(peer.received) >= 16
    fp = fingerprint(design, None, tracer)
    fp["peer_received"] = bytes(peer.received)
    return fp


REMOTE_VTEP_IP = IPv4Address("10.0.0.20")
REMOTE_VTEP_MAC = MacAddress("02:be:e0:00:00:02")
INNER_IP = IPv4Address("192.168.0.1")
INNER_MAC = MacAddress("02:aa:00:00:00:01")


def vxlan_echo(backend, tiles, traced=True):
    design = VxlanEchoDesign(vni=7700, udp_port=7,
                             line_rate_bytes_per_cycle=50.0,
                             mesh_backend=backend, tile_backend=tiles)
    design.add_overlay_peer(INNER_IP, INNER_MAC, REMOTE_VTEP_IP,
                            REMOTE_VTEP_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    inner = build_ipv4_udp_frame(
        INNER_MAC, design.server_inner_mac, INNER_IP,
        design.server_inner_ip, 5555, 7, b"overlay payload")
    for i in range(5):
        frame = build_vxlan_frame(
            REMOTE_VTEP_MAC, design.server_vtep_mac, REMOTE_VTEP_IP,
            design.server_vtep_ip, 7700, inner)
        design.inject(frame, i * 900)
    design.sim.run(8000)
    assert sink.count == 5
    return fingerprint(design, sink, tracer)


def multi_stack(backend, tiles, traced=True):
    design = MultiStackDesign(stacks=2, udp_port=7,
                              mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sinks = [FrameSink(stack.eth_tx) for stack in design.stacks]
    for sink in sinks:
        design.sim.add(sink)
    for i in range(12):
        frame = echo_frame(design, b"ms" * 20, sport=6000 + i)
        design.inject(frame, i * 400)
    design.sim.run(8000)
    assert sum(s.count for s in sinks) == 12
    fp = fingerprint(design, None, tracer)
    for index, sink in enumerate(sinks):
        fp[f"frames_{index}"] = list(sink.frames)
    fp["echoed"] = design.total_echoed()
    return fp


def rs_encode(backend, tiles, traced=True):
    design = RsDesign(instances=4, line_rate_bytes_per_cycle=50.0,
                      mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    payload = bytes(range(256)) * 16  # 4096 B
    for i in range(8):
        design.inject(echo_frame(design, payload, port=7000), i * 800)
    design.sim.run(20000)
    assert sink.count == 8
    fp = fingerprint(design, sink, tracer)
    fp["per_instance"] = [t.requests for t in design.rs_tiles]
    return fp


LEADER_IP = IPv4Address("10.0.0.2")
LEADER_MAC = MacAddress("02:00:00:00:00:02")


def _prepare(design, shard, view, opnum):
    wire = PrepareWire(msg_type=MSG_PREPARE, view=view, opnum=opnum,
                       shard=shard, digest=b"deadbeef")
    return build_ipv4_udp_frame(
        LEADER_MAC, design.server_mac, LEADER_IP, design.server_ip,
        7777, design.shard_port(shard), wire.pack())


def vr_witness(backend, tiles, traced=True):
    design = VrWitnessDesign(shards=2, line_rate_bytes_per_cycle=50.0,
                             mesh_backend=backend, tile_backend=tiles)
    design.add_client(LEADER_IP, LEADER_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    for opnum in range(1, 6):
        for shard in range(2):
            design.inject(_prepare(design, shard, 0, opnum),
                          design.sim.cycle)
        design.sim.run(1200)
    assert sink.count == 10
    return fingerprint(design, sink, tracer)


def scaled_echo(backend, tiles, traced=True):
    design = ScaledEchoDesign(n_apps=8, udp_port=7,
                              mesh_backend=backend, tile_backend=tiles)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    for i in range(16):
        design.inject(echo_frame(design, b"sc" * 8, sport=7000 + i),
                      i * 300)
    design.sim.run(8000)
    assert sink.count == 16
    return fingerprint(design, sink, tracer)


CLIENT_VIRT_IP = IPv4Address("172.16.0.1")


def nat_echo(backend, tiles, traced=True):
    design = NatEchoDesign(udp_port=7, line_rate_bytes_per_cycle=50.0,
                           mesh_backend=backend, tile_backend=tiles)
    design.map_client(CLIENT_VIRT_IP, CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    for i in range(5):
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP, design.server_ip,
            5555, 7, b"nat" * 12)
        design.inject(frame, i * 600)
    design.sim.run(5000)
    assert sink.count == 5
    return fingerprint(design, sink, tracer)


def _fault_fingerprint(design, sink, tracer):
    fp = fingerprint(design, sink, tracer)
    engine = design.fault_engine
    fp["fault_counters"] = dict(engine.counters)
    fp["fault_log"] = list(engine.log)
    if tracer is not None:
        fp["fault_events"] = list(tracer.faults)
    return fp


def wire_faults(backend, tiles, traced=True):
    from repro.faults import FaultPlan
    plan = FaultPlan(seed=0xD1CE).wire(
        drop=0.2, corrupt=0.1, duplicate=0.15, reorder=0.2, delay=0.3)
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=50.0,
                           mesh_backend=backend, tile_backend=tiles,
                           fault_plan=plan)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    for i in range(30):
        design.inject(echo_frame(design, b"f%02d" % i * 10), 1 + i * 150)
    design.sim.run(10_000)
    assert sink.malformed == 0
    return _fault_fingerprint(design, sink, tracer)


def tile_and_noc_faults(backend, tiles, traced=True):
    from repro.faults import FaultPlan
    plan = (FaultPlan(seed=0xD1CE)
            .freeze_tile("app", at=300, duration=800)
            .crash_tile("eth_rx", at=20, duration=100)
            .stall_link((3, 0), at=1500, duration=400)
            .corrupt_flits(0.3, coords=[(2, 0)]))
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=50.0,
                           mesh_backend=backend, tile_backend=tiles,
                           fault_plan=plan)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = traced_by(design, traced)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    for i in range(25):
        design.inject(echo_frame(design, b"g%02d" % i * 8), 1 + i * 120)
    design.sim.run(10_000)
    return _fault_fingerprint(design, sink, tracer)


def probed_echo(probed):
    """The paced UDP echo with a telemetry probe sampling every 250
    cycles (``probed``) or attached as the null fast path."""
    from repro.telemetry import attach_probe

    def scenario(backend, tiles, traced=True):
        design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=50.0,
                               mesh_backend=backend, tile_backend=tiles)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        tracer = traced_by(design, traced)
        probe = attach_probe(design, interval=250 if probed else None)
        frame = echo_frame(design, b"x" * 64)
        source = FrameSource(design.inject, lambda i: frame,
                             rate=5.0, count=20)
        sink = FrameSink(design.eth_tx)
        design.sim.add(source)
        design.sim.add(sink)
        design.sim.run(6000)
        assert sink.count == 20
        if probed:
            assert probe.samples_taken == 5999 // 250
        return fingerprint(design, sink, tracer)

    return scenario


#: Every differential scenario by name (the golden-digest keys).
SCENARIOS = {
    "udp_idle_heavy": udp_idle_heavy,
    "udp_saturating": udp_saturating,
    "udp_bursts": udp_bursts,
    "udp_drops": udp_drops,
    "udp_mtu_saturating": udp_mtu_saturating,
    "logged_echo": logged_echo,
    "tcp_transfer": tcp_transfer,
    "vxlan_echo": vxlan_echo,
    "multi_stack": multi_stack,
    "rs_encode": rs_encode,
    "vr_witness": vr_witness,
    "scaled_echo": scaled_echo,
    "nat_echo": nat_echo,
    "wire_faults": wire_faults,
    "tile_and_noc_faults": tile_and_noc_faults,
    "probed_echo": probed_echo(True),
}


def run_both(scenario):
    """Run ``scenario(backend, tiles)`` under every combo, resetting
    the global id counters so packet/message ids (and the spans keyed
    by them) compare equal."""
    results = {}
    for drive, backend, tiles in COMBOS:
        reset_id_counters()
        with driven(drive):
            results[(drive, backend, tiles)] = scenario(backend, tiles)
    return results


def assert_equivalent(scenario):
    results = run_both(scenario)
    reference = results[COMBOS[0]]
    for combo, candidate in results.items():
        if combo == COMBOS[0]:
            continue
        assert set(reference) == set(candidate)
        for key in reference:
            assert reference[key] == candidate[key], (
                f"divergence in {key!r} under "
                f"drive={combo[0]!r} mesh_backend={combo[1]!r} "
                f"tile_backend={combo[2]!r}"
            )


class TestUdpEchoEquivalence:
    def test_idle_heavy_paced_traffic(self):
        assert_equivalent(udp_idle_heavy)

    def test_saturating_traffic(self):
        assert_equivalent(udp_saturating)

    def test_bursts_with_long_gaps(self):
        assert_equivalent(udp_bursts)

    def test_mixed_drops_and_misses(self):
        assert_equivalent(udp_drops)

    def test_mtu_saturating_traffic(self):
        assert_equivalent(udp_mtu_saturating)


class TestLoggedEchoEquivalence:
    def test_logged_echo(self):
        assert_equivalent(logged_echo)


class TestTcpEquivalence:
    def test_handshake_and_transfer(self):
        assert_equivalent(tcp_transfer)


class TestVxlanEquivalence:
    def test_overlay_echo(self):
        assert_equivalent(vxlan_echo)


class TestMultiStackEquivalence:
    def test_two_stacks_flow_spread(self):
        assert_equivalent(multi_stack)


class TestRsEquivalence:
    def test_round_robin_encode(self):
        assert_equivalent(rs_encode)


class TestVrEquivalence:
    def test_witness_shards(self):
        assert_equivalent(vr_witness)


class TestScaledEchoEquivalence:
    def test_many_apps(self):
        assert_equivalent(scaled_echo)


class TestNatEquivalence:
    def test_nat_echo(self):
        assert_equivalent(nat_echo)


class TestFaultEquivalence:
    """Active fault plans must not break cycle-exactness: the wire
    impairments draw from seeded streams at the inject boundary and
    the NoC faults act on the shared LocalPort staging, so every
    (drive, backend) combo observes the bit-identical fault stream."""

    def test_wire_impairments(self):
        assert_equivalent(wire_faults)

    def test_tile_and_noc_faults(self):
        assert_equivalent(tile_and_noc_faults)


class TestIdleSkipActuallyHappens:
    """Equivalence is vacuous if ``run`` never skips — pin that the
    idle-heavy scenarios really do skip cycles, and that the reference
    drive never does."""

    def _paced_run(self):
        design = UdpEchoDesign(udp_port=7,
                               line_rate_bytes_per_cycle=50.0)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        frame = echo_frame(design, b"x" * 64)
        source = FrameSource(design.inject, lambda i: frame,
                             rate=5.0, count=20)
        sink = FrameSink(design.eth_tx)
        design.sim.add(source)
        design.sim.add(sink)
        design.sim.run(6000)
        assert sink.count == 20
        return design.sim.idle_cycles_skipped

    def test_paced_udp_run_skips_most_cycles(self):
        assert self._paced_run() > 3000

    def test_tick_drive_never_skips(self):
        with driven("tick"):
            assert self._paced_run() == 0


class TestProbedEquivalence:
    """An attached telemetry probe is read-only and timer-driven, so it
    must neither break drive x backend equivalence nor change any
    observable of the run it samples (its sample cycles do bound the
    idle skips — shorter jumps, same cycles)."""

    def test_probed_runs_stay_equivalent(self):
        assert_equivalent(probed_echo(True))

    def test_probe_changes_nothing_observable(self):
        results_probed = run_both(probed_echo(True))
        results_plain = run_both(probed_echo(False))
        for combo in COMBOS:
            for key in results_plain[combo]:
                assert results_plain[combo][key] == \
                    results_probed[combo][key], (
                        f"probe perturbed {key!r} under {combo!r}")
