"""The four benchmark workloads: seeded inputs, clients and checks.

Every workload is a fixed *episode* of simulated work generated from the
seed (and a size scale) before any timing starts.  An episode builds a
fresh design through its public constructor, drives it through
``design.inject`` / ``design.eth_tx`` (UDP) or ``SoftTcpPeer`` (TCP)
until the work is done, and checks every egress frame.  Episodes of one
seed and size are identical, so the simulated results and the digest
must repeat exactly from episode to episode; only the host time varies.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from repro import params
from repro.designs import ScaledEchoDesign, TcpServerDesign, UdpEchoDesign
from repro.faults import FaultPlan
from repro.noc.message import reset_id_counters
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.tcp.app import TcpSinkAppTile
from repro.tcp.peer import PeerNetwork, SoftTcpPeer

import frames

CLIENT_MAC = "02:00:00:00:00:01"
CLIENT_IP = "10.0.0.1"
#: The client's link: 100 GbE at the model's 250 MHz clock.
CLIENT_WIRE_BYTES_PER_CYCLE = 50.0
#: Open-loop bursts: mean arrivals per burst, and the mean gap between
#: arrivals in a burst as a share of the long-run mean gap.
BURST_MEAN = 16
BURST_GAP_SHARE = 0.05
#: Seed of the TCP workload's wire-loss pattern, fixed as part of the
#: workload (see README.md, "Why the TCP loss pattern is fixed").
LOSS_SEED = 0xBEE
#: Open-loop admission bound: an arrival finding this many requests
#: outstanding is dropped and counted as failed, never queued.
MAX_OUTSTANDING = 256


@dataclass
class EpisodeResult:
    """What one episode simulated and how it was checked."""

    cycles: int = 0              # simulated cycles run (incl. skipped)
    completion: int = 0          # cycle the last operation completed
    frames: int = 0              # delivered request frames / data segments
    payload_bytes: int = 0       # payload goodput numerator
    attempted: int = 0
    failed: int = 0
    latencies: list[int] = field(default_factory=list)
    digest: int = 0
    errors: Counter = field(default_factory=Counter)
    counters: dict = field(default_factory=dict)
    sample: bytes | None = None  # one checked egress frame


# -- UDP echo ---------------------------------------------------------------


@dataclass
class UdpInputs:
    ports: list[int]
    bodies: list[bytes]
    counted: int                 # requests the episode waits for
    due: list[int] | None        # open loop: arrival schedule
    window: int | None           # closed loop: requests outstanding


class UdpClient:
    """One client of a UDP echo design, clocked by the simulator.

    Sends each request through ``design.inject`` with a tag carrying its
    sequence number and due cycle, and drains
    ``design.eth_tx.frames_out``, checking every echo against the
    request it answers.  The episode ends once each of the first
    ``counted`` requests is answered (or has failed).

    Closed loop: keeps ``window`` requests outstanding, also while the
    last counted ones drain, so the design stays saturated to the end;
    the up to ``window`` extra requests still in flight then are
    dropped with the design.  Open loop: sends each request at its due
    cycle, whatever the design's state, over a modelled 100 GbE link.

    Implements the kernel's quiescence contract, so the scheduled kernel
    can skip the idle gaps of an open-loop schedule.
    """

    _kernel_wake = None  # filled by the kernel when added

    def __init__(self, design, inputs: UdpInputs):
        self.design = design
        self.inputs = inputs
        self.endpoints = frames.UdpEndpoints(
            frames.mac_bytes(CLIENT_MAC), design.server_mac.packed,
            frames.ip_bytes(CLIENT_IP), design.server_ip.packed,
            design.udp_port)
        self.frames_out = design.eth_tx.frames_out
        design.eth_tx.frame_listeners.append(self._wake)
        self.n = len(inputs.bodies)
        self.counted = inputs.counted
        self.unresolved = inputs.counted
        self.next_seq = 0
        self.pending: dict[int, bytes] = {}
        self.wire_free = 0
        self.result = EpisodeResult(attempted=inputs.counted)

    def _wake(self) -> None:
        if self._kernel_wake is not None:
            self._kernel_wake()

    def is_done(self) -> bool:
        return not self.unresolved

    def spans(self):
        """(object, method, span name) for the traced run."""
        return [(self, "step", "bench.client")]

    def step(self, cycle: int) -> None:
        frames_out = self.frames_out
        while frames_out and frames_out[0][1] <= cycle:
            frame, emit_cycle = frames_out.popleft()
            self._receive(frame, emit_cycle)
        due = self.inputs.due
        if due is None:
            window = self.inputs.window
            while self.next_seq < self.n and len(self.pending) < window:
                self._send(cycle)
        else:
            while self.next_seq < self.n and due[self.next_seq] <= cycle:
                self._send(due[self.next_seq])

    def commit(self) -> None:
        pass

    def is_idle(self) -> bool:
        return True

    def next_event_cycle(self) -> int | None:
        head = self.frames_out[0][1] if self.frames_out else None
        due = self.inputs.due
        if due is not None and self.next_seq < self.n:
            nxt = due[self.next_seq]
            head = nxt if head is None else min(head, nxt)
        return head

    def _send(self, due_cycle: int) -> None:
        seq = self.next_seq
        self.next_seq += 1
        if len(self.pending) >= MAX_OUTSTANDING:
            self.result.errors["dropped at admission"] += 1
            self._resolve(seq)
            return
        payload = frames.TAG.pack(frames.TAG_MAGIC, seq, due_cycle) \
            + self.inputs.bodies[seq]
        frame = self.endpoints.request(self.inputs.ports[seq], payload)
        if self.inputs.due is None:
            # Closed loop: the window, not the client link, paces
            # requests; each reaches the NIC the cycle after it is sent.
            arrival = due_cycle + 1
        else:
            start = max(due_cycle, self.wire_free)
            self.wire_free = start + math.ceil(
                (len(frame) + params.ETHERNET_OVERHEAD_BYTES)
                / CLIENT_WIRE_BYTES_PER_CYCLE)
            arrival = start + math.ceil(
                len(frame) / CLIENT_WIRE_BYTES_PER_CYCLE)
        self.pending[seq] = payload
        self.design.inject(frame, arrival)

    def _receive(self, frame: bytes, emit_cycle: int) -> None:
        result = self.result
        result.digest = frames.digest_add(result.digest, frame, emit_cycle)
        error, port, payload = self.endpoints.check_echo(frame)
        if error is None:
            error = self.match(port, payload)
        if error is not None:
            result.errors[error] += 1
            return
        _magic, seq, due_cycle = frames.TAG.unpack_from(payload)
        if seq >= self.counted:
            return
        result.frames += 1
        result.payload_bytes += len(payload)
        result.latencies.append(emit_cycle - due_cycle)
        result.completion = emit_cycle

    def match(self, port: int, payload: bytes) -> str | None:
        """Match an echoed payload to its outstanding request."""
        if len(payload) < frames.TAG.size:
            return "untagged payload"
        magic, seq, _due = frames.TAG.unpack_from(payload)
        expected = self.pending.pop(seq, None) \
            if magic == frames.TAG_MAGIC else None
        if expected is None:
            return "unknown or repeated tag"
        self._resolve(seq)
        if payload != expected or port != self.inputs.ports[seq]:
            return "wrong payload"
        return None

    def _resolve(self, seq: int) -> None:
        if seq < self.counted:
            self.unresolved -= 1

    def finish(self, cycle: int) -> EpisodeResult:
        result = self.result
        if self.unresolved:
            result.errors["never echoed"] += self.unresolved
        result.cycles = cycle
        result.failed = result.attempted - result.frames
        return result


class UdpEchoWorkload:
    """A UDP echo design driven by one :class:`UdpClient`."""

    def __init__(self, name: str, make_design, payload_len: int,
                 requests: int, port_pool: int, window: int | None = None,
                 mean_rate_gbps: float | None = None,
                 timed_scale: float = 0.25):
        self.name = name
        self.timed_scale = timed_scale
        self.make_design = make_design
        self.payload_len = payload_len
        self.requests = requests
        self.port_pool = port_pool
        self.window = window
        self.mean_rate_gbps = mean_rate_gbps

    def describe(self) -> str:
        if self.window is not None:
            return f"closed loop, {self.window} outstanding"
        return (f"open loop on/off bursts, mean {self.mean_rate_gbps} Gbps, "
                f"bursts of mean {BURST_MEAN}")

    def inputs(self, seed: int, scale: float = 1.0) -> UdpInputs:
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        counted = max(1, int(self.requests * scale))
        n = counted + (self.window or 0)
        body_len = self.payload_len - frames.TAG.size
        ports = [20_000 + rng.randrange(self.port_pool) for _ in range(n)]
        bodies = [rng.randbytes(body_len) for _ in range(n)]
        due = None if self.window is not None else self._schedule(rng, n)
        return UdpInputs(ports, bodies, counted, due, self.window)

    def _schedule(self, rng: random.Random, n: int) -> list[int]:
        """On/off arrivals.

        Bursts hold a uniform ``BURST_MEAN/2 .. 3*BURST_MEAN/2``
        arrivals with exponential gaps of ``BURST_GAP_SHARE`` of the
        mean gap; idle gaps between bursts are uniform between half and
        one and a half of their mean.  The idle gaps are then scaled so
        that the offered load over the whole schedule is exactly
        ``mean_rate_gbps``: the seed moves where the bursts fall, not
        how much is offered.
        """
        frame_len = (frames.ETH_LEN + frames.IP_LEN + frames.UDP_LEN
                     + self.payload_len + params.ETHERNET_OVERHEAD_BYTES)
        bytes_per_cycle = (self.mean_rate_gbps * 1e9 * params.CYCLE_TIME_S
                           / 8.0)
        mean_gap = frame_len / bytes_per_cycle
        burst_gap = mean_gap * BURST_GAP_SHARE
        low, high = BURST_MEAN // 2, BURST_MEAN * 3 // 2
        bursts = []  # (idle gap before the burst, gaps within it)
        total = 0
        while total < n:
            size = min(rng.randint(low, high), n - total)
            total += size
            bursts.append((rng.uniform(0.5, 1.5),
                           [rng.expovariate(1.0 / burst_gap)
                            for _ in range(size - 1)]))
        busy = sum(sum(gaps) for _idle, gaps in bursts)
        idle_scale = (n * mean_gap - busy) / sum(idle for idle, _g in bursts)
        due = []
        t = 0.0
        for idle, gaps in bursts:
            t += idle * idle_scale
            due.append(int(t))
            for gap in gaps:
                t += gap
                due.append(int(t))
        return due

    def build(self, inputs: UdpInputs):
        reset_id_counters()
        design = self.make_design()
        design.add_client(IPv4Address(CLIENT_IP), MacAddress(CLIENT_MAC))
        client = UdpClient(design, inputs)
        design.sim.add(client)
        return design, client

    def max_cycles(self, inputs: UdpInputs) -> int:
        last_due = inputs.due[-1] if inputs.due else 0
        return last_due + 400 * len(inputs.bodies) + 100_000

    @staticmethod
    def finish(design, client: UdpClient) -> EpisodeResult:
        return client.finish(design.sim.cycle)

    def negative_check(self, inputs: UdpInputs) -> str | None:
        """Corrupt the first echoed payload on its way to the client by
        swapping its last two 16-bit words, which no checksum catches;
        the episode must count exactly that request as failed."""
        armed = [True]

        def corrupt_first(design, client) -> None:
            receive = client._receive

            def receive_corrupted(frame: bytes, emit_cycle: int) -> None:
                if armed[0] and frame[-4:-2] != frame[-2:]:
                    armed[0] = False
                    frame = frame[:-4] + frame[-2:] + frame[-4:-2]
                receive(frame, emit_cycle)

            client._receive = receive_corrupted

        result, _wall, _design = run_episode(self, inputs, corrupt_first)
        if armed[0]:
            return "negative check corrupted no frame"
        if result.failed != 1 or dict(result.errors) != {"wrong payload": 1}:
            return (f"corrupted echo not counted as one failure: "
                    f"failed={result.failed} errors={dict(result.errors)}")
        return None


def udp_echo_4x2():
    return UdpEchoDesign()


def scaled_echo_7x4():
    return ScaledEchoDesign(n_apps=22)


# -- TCP --------------------------------------------------------------------


@dataclass
class TcpInputs:
    streams: list[bytes]


class EgressTap:
    """Checks every TCP egress frame and times data segments.

    Added to the simulator before :class:`PeerNetwork`, it sees each
    due frame in ``design.eth_tx.frames_out`` in the cycle the network
    pops it.  It validates IPv4/TCP checksums and digests (frame, emit
    cycle).  Each ACK that advances a flow's cumulative ACK to the end
    of a data segment gives one latency sample: the ACK's emit cycle
    minus the cycle the peer last sent that segment.  Time spent
    waiting for a lost segment's retransmission is left out; it shows
    in the completion cycle instead.
    """

    def __init__(self, design):
        self.design = design
        self.frames_out = design.eth_tx.frames_out
        self.digest = 0
        self.errors: Counter = Counter()
        self.latencies: list[int] = []
        # (client ip, client port) -> {segment end: last sent cycle}
        self.sent: dict[tuple[bytes, int], dict[int, int]] = {}
        self.acked: dict[tuple[bytes, int], int] = {}
        self.sent_segments = 0
        self.sample: bytes | None = None
        wire = design.inject

        def inject(frame: bytes, cycle: int) -> None:
            self._sent(frame)
            wire(frame, cycle)

        design.inject = inject

    def _sent(self, frame: bytes) -> None:
        src, sport, seq, length = frames.tcp_segment(frame)
        if not length:
            return
        self.sent_segments += 1
        self.sent.setdefault((src, sport), {})[seq + length] = \
            self.design.sim.cycle

    def step(self, cycle: int) -> None:
        for frame, emit_cycle in self.frames_out:
            if emit_cycle > cycle:
                break
            self.digest = frames.digest_add(self.digest, frame, emit_cycle)
            error, dst, dport, ack = frames.check_tcp_frame(frame)
            if error is not None:
                self.errors[error] += 1
                continue
            if self.sample is None:
                self.sample = frame
            key = (dst, dport)
            if ack > self.acked.get(key, 0):
                self.acked[key] = ack
                sent = self.sent.get(key, {}).pop(ack, None)
                if sent is not None:
                    self.latencies.append(emit_cycle - sent)

    def commit(self) -> None:
        pass


class TcpWorkload:
    """``TcpServerDesign`` with a sink app, N Reno ``SoftTcpPeer``
    flows through the fixed ``LOSS_SEED`` wire-loss pattern."""

    MSS = 1024

    def __init__(self, name: str, flows: int, stream_bytes: int,
                 loss: float, timed_scale: float = 0.125):
        self.name = name
        self.timed_scale = timed_scale
        self.flows = flows
        self.stream_bytes = stream_bytes
        self.loss = loss

    def describe(self) -> str:
        return (f"{self.flows} Reno flows x {self.stream_bytes // 1024} KiB, "
                f"{self.loss:.0%} wire loss")

    def inputs(self, seed: int, scale: float = 1.0) -> TcpInputs:
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        size = max(self.MSS, int(self.stream_bytes * scale))
        streams = [rng.randbytes(size) for _ in range(self.flows)]
        return TcpInputs(streams)

    def build(self, inputs: TcpInputs):
        reset_id_counters()
        plan = FaultPlan(seed=LOSS_SEED).wire(drop=self.loss)
        design = TcpServerDesign(
            tcp_port=5000, app_tile_cls=TcpSinkAppTile, request_size=1024,
            mss=self.MSS, line_rate_bytes_per_cycle=None,
            max_flows=self.flows + 2, fault_plan=plan)
        tap = EgressTap(design)
        design.sim.add(tap)
        network = PeerNetwork(design)
        design.sim.add(network)
        peers = []
        for index, stream in enumerate(inputs.streams):
            ip = IPv4Address(f"10.0.1.{index + 1}")
            mac = MacAddress(f"02:00:00:00:01:{index + 1:02x}")
            design.add_client(ip, mac)
            peer = SoftTcpPeer(design, ip, mac, design.server_ip, 5000,
                               src_port=42_000 + index, mss=self.MSS,
                               window=60_000, service_cycles=2,
                               wire_cycles=500, rto_cycles=10_000,
                               iss=5_000 + 313 * index,
                               congestion_control="reno")
            network.register(peer)
            design.sim.add(peer)
            peer.connect()
            peer.send(stream)
            peers.append(peer)
        load = TcpLoad(tap, network, peers, inputs)
        return design, load

    def max_cycles(self, inputs: TcpInputs) -> int:
        return 2_000 * sum(len(s) for s in inputs.streams) // self.MSS \
            + 200_000

    def finish(self, design, load) -> EpisodeResult:
        return load.finish(design, self.MSS)

    def negative_check(self, inputs: TcpInputs) -> str | None:
        """A real egress frame with one flipped byte must fail the
        frame check."""
        result, _wall, _design = run_episode(self, inputs)
        if result.sample is None:
            return "negative check saw no egress frame"
        corrupted = bytearray(result.sample)
        corrupted[-1] ^= 0x5A
        if frames.check_tcp_frame(bytes(corrupted))[0] is None:
            return "corrupted TCP frame passed the frame check"
        return None


class TcpLoad:
    """The TCP workload's completion test and result."""

    def __init__(self, tap: EgressTap, network: PeerNetwork, peers,
                 inputs: TcpInputs):
        self.tap = tap
        self.network = network
        self.peers = peers
        self.sizes = [len(s) for s in inputs.streams]

    def is_done(self) -> bool:
        return all(peer.bytes_acked >= size
                   for peer, size in zip(self.peers, self.sizes))

    def spans(self):
        """(object, method, span name) for the traced run."""
        return [(self.tap, "step", "bench.tap"),
                (self.tap, "_sent", "bench.tap"),
                (self.network, "step", "tcp.network"),
                *((peer, "step", "tcp.peer") for peer in self.peers)]

    def finish(self, design, mss: int) -> EpisodeResult:
        tap = self.tap
        result = EpisodeResult(attempted=len(self.peers))
        result.errors.update(tap.errors)
        if self.network.unrouted:
            result.errors["unrouted egress"] += self.network.unrouted
        complete = [peer.bytes_acked == size
                    for peer, size in zip(self.peers, self.sizes)]
        result.failed = complete.count(False)
        if result.failed:
            result.errors["flow not fully acked"] += result.failed
        result.cycles = result.completion = design.sim.cycle
        result.frames = sum(math.ceil(size / mss) for size in self.sizes)
        result.payload_bytes = sum(self.sizes)
        result.latencies = tap.latencies
        counters = {
            "segments_sent": sum(p.segments_sent for p in self.peers),
            "data_segments_sent": tap.sent_segments,
            "retransmits": sum(p.retransmits for p in self.peers),
            "fast_retransmits": sum(p.fast_retransmits for p in self.peers),
            "bytes_acked": sum(p.bytes_acked for p in self.peers),
        }
        engine = design.fault_engine
        counters["wire_drops"] = engine.counters.get("wire.drop", 0)
        digest = tap.digest
        for name in sorted(counters):
            digest = frames.digest_add(digest, name.encode(), counters[name])
        result.digest = digest
        result.counters = counters
        result.sample = tap.sample
        return result


WORKLOADS = {
    w.name: w for w in (
        UdpEchoWorkload("udp_echo_mtu_closed", udp_echo_4x2,
                        payload_len=1458, requests=1000, port_pool=1,
                        window=16),
        UdpEchoWorkload("udp_echo_64b_bursty", udp_echo_4x2,
                        payload_len=64, requests=4000, port_pool=1,
                        mean_rate_gbps=2.0),
        UdpEchoWorkload("scaled_echo_7x4_closed", scaled_echo_7x4,
                        payload_len=1458, requests=1000, port_pool=4096,
                        window=44),
        TcpWorkload("tcp_reno_4flow_lossy", flows=4,
                    stream_bytes=512 * 1024, loss=0.01),
    )
}


def run_episode(workload, inputs, instrument=None):
    """Build, drive to completion and check one episode.

    ``instrument(design, load)`` runs after the design is built and
    before the clock starts (the traced run installs its spans there).
    Returns ``(result, wall_s, design)``; ``wall_s`` covers the
    simulation loop only, not building the design.
    """
    design, load = workload.build(inputs)
    if instrument is not None:
        instrument(design, load)
    sim = design.sim
    start = perf_counter()
    try:
        sim.run_until(load.is_done,
                      max_cycles=workload.max_cycles(inputs))
    except TimeoutError:
        pass  # whatever is unfinished is counted as failed below
    wall = perf_counter() - start
    result = workload.finish(design, load)
    result.counters.setdefault("cycles_skipped", sim.idle_cycles_skipped)
    result.counters.setdefault("component_steps", sim.component_steps)
    return result, wall, design
