"""NoC messages and their flit-level encoding/decoding.

``NocMessage.to_flits`` performs what the paper calls NoC message
construction (one header flit, metadata flit(s) with parsed packet-header
fields, data flits with 64 B payload slices); ``MessageAssembler``
performs deconstruction at the receiving tile.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

from repro.noc.flit import Flit, FlitKind
from repro.params import FLIT_BYTES, NOC_MAX_PAYLOAD_BYTES

_HEADER = FlitKind.HEADER
_METADATA = FlitKind.METADATA
_DATA = FlitKind.DATA

_msg_counter = itertools.count(1)
_packet_counter = itertools.count(1)

#: Bit position of the shard id inside a namespaced id: shard ``k``
#: allocates ids in ``[k << 48 + 1, (k + 1) << 48)``, so id spaces from
#: different shards can never collide and shard 0's space is exactly
#: the unsharded one.  2^48 ids per shard is unreachable in practice
#: (a saturated 32x32 mesh allocates ~2e6 ids per simulated second).
SHARD_ID_SHIFT = 48


def reset_id_counters() -> None:
    """Restart the global message/packet id counters from 1.

    Ids are design-wide but allocated from module globals, so two runs
    built in the same process see different ids.  Differential tests
    (ticked vs idle-skipping runs) call this before each run so that id
    streams — and everything derived from them, like trace spans —
    compare equal.
    """
    global _msg_counter, _packet_counter
    _msg_counter = itertools.count(1)
    _packet_counter = itertools.count(1)


class IdNamespace:
    """A shard-private message/packet id namespace.

    The module-global counters are process-wide mutable state — exactly
    what breaks determinism once a design is partitioned across shards
    (allocation order would depend on shard interleaving, and two shards
    would hand out colliding ids).  A sharded run gives every shard its
    own :class:`IdNamespace`; the engine installs the namespace around
    each shard's tick (in-process transport) or once per worker process
    (multiprocessing transport).  Ids carry the shard id in the high
    bits (:data:`SHARD_ID_SHIFT`), so the per-shard sequences are
    disjoint and shard 0 — where a design's ingress lives — allocates
    the same packet ids an unsharded run would.
    """

    __slots__ = ("shard_id", "_msg", "_packet")

    def __init__(self, shard_id: int = 0):
        if shard_id < 0:
            raise ValueError("shard_id must be >= 0")
        self.shard_id = shard_id
        base = shard_id << SHARD_ID_SHIFT
        self._msg = itertools.count(base + 1)
        self._packet = itertools.count(base + 1)

    def install(self) -> None:
        """Make this namespace the allocation source for new ids."""
        global _msg_counter, _packet_counter
        _msg_counter = self._msg
        _packet_counter = self._packet


def next_packet_id() -> int:
    """Allocate a design-wide monotonically increasing packet id.

    Assigned when a packet first enters a design (MAC-side ingress or a
    source tile's first send) and propagated through every NoC message
    derived from it, so tracing can stitch per-tile spans into one
    end-to-end latency span.
    """
    return next(_packet_counter)


@dataclass
class NocMessage:
    """A message between two tiles.

    ``metadata`` is the parsed-header / control portion (an arbitrary
    object: protocol tiles pass header dataclasses, the control plane
    passes command objects).  ``data`` is the raw payload carried in
    64-byte data flits.
    """

    dst: tuple[int, int]
    src: tuple[int, int]
    metadata: object = None
    data: bytes = b""
    n_meta_flits: int = 1
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
    # Which wire packet this message descends from (see next_packet_id).
    # None until the packet enters a design; the tile framework assigns
    # and propagates it.
    packet_id: int | None = None

    def __post_init__(self):
        if len(self.data) > NOC_MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload {len(self.data)} exceeds NoC max "
                f"{NOC_MAX_PAYLOAD_BYTES}"
            )
        if self.n_meta_flits < 0:
            raise ValueError("n_meta_flits must be >= 0")

    @property
    def n_data_flits(self) -> int:
        return math.ceil(len(self.data) / FLIT_BYTES)

    @property
    def n_flits(self) -> int:
        """Total flits on the wire: header + metadata + data."""
        return 1 + self.n_meta_flits + self.n_data_flits

    def to_flits(self) -> list[Flit]:
        """Encode as a wormhole-ready flit sequence."""
        stream = FlitStream(self)
        return [stream.flit(index) for index in range(stream.end)]


#: Flits a :class:`FlitStream` builds at a time: a short message all
#: at once, a long one a few ahead of the port injecting it.
STREAM_CHUNK = 4


class FlitStream(deque):
    """A message's wire flits, built a few at a time as a port takes
    them.

    A deque of the built flits not taken yet: ``popleft`` takes the
    next one, and the stream is empty (false) exactly when the whole
    message has been taken, provided whoever pops calls :meth:`refill`
    when a pop empties it while ``next < end``.  Building every flit up
    front would cost as much as moving them, and an express train
    (:mod:`repro.noc.flatmesh`) carries most of a long message's body
    without building those flits at all.  The message's fields are
    captured at construction, so later changes to the message object
    alter no flit still to come.  The empty stream (no message) is
    what an idle port holds.
    """

    __slots__ = ("_dst", "_src", "_msg_id", "_metadata", "_data",
                 "_n_meta", "_packet_id", "next", "end")

    def __init__(self, message: NocMessage | None = None):
        # (deque.__new__ already made the empty deque; nothing to pass
        # deque.__init__.)
        #: Wire index of the next flit to build, and the flit count.
        self.next = self.end = 0
        if message is None:
            return
        self._dst = message.dst
        self._src = message.src
        self._msg_id = message.msg_id
        self._metadata = message.metadata
        self._data = message.data
        self._n_meta = message.n_meta_flits
        self._packet_id = message.packet_id
        self.end = (1 + self._n_meta
                    + (len(self._data) + FLIT_BYTES - 1) // FLIT_BYTES)
        self.refill()

    def refill(self) -> None:
        """Build the next few flits (call only while some are unbuilt).

        Runs once per message for short ones, so the flit layout of
        :meth:`flit` is inlined here (hoisted locals, positional
        construction in ``Flit.__init__``'s field order).
        """
        index = self.next
        end = self.end
        stop = min(index + STREAM_CHUNK, end)
        self.next = stop
        dst = self._dst
        src = self._src
        msg_id = self._msg_id
        append = self.append
        last = end - 1
        if not index:
            append(Flit(_HEADER, True, not last, dst, src, msg_id, None,
                        self._packet_id))
            index = 1
        n_meta = self._n_meta
        while index < stop and index <= n_meta:
            append(Flit(_METADATA, False, index == last, dst, src, msg_id,
                        self._metadata if index == 1 else None))
            index += 1
        if index < stop:
            data = self._data
            start = (index - 1 - n_meta) * FLIT_BYTES
            for index in range(index, stop):
                append(Flit(_DATA, False, index == last, dst, src, msg_id,
                            data[start:start + FLIT_BYTES]))
                start += FLIT_BYTES

    @property
    def remaining(self) -> int:
        """Flits still to take, built or not."""
        return len(self) + self.end - self.next

    def flit(self, index: int) -> Flit:
        """Build the flit at wire position ``index`` (0 = header):
        header, metadata flit(s), then 64 B data slices."""
        tail = index == self.end - 1
        if not index:
            return Flit(_HEADER, True, tail, self._dst, self._src,
                        self._msg_id, None, self._packet_id)
        n_meta = self._n_meta
        if index <= n_meta:
            return Flit(_METADATA, False, tail, self._dst, self._src,
                        self._msg_id,
                        self._metadata if index == 1 else None)
        start = (index - 1 - n_meta) * FLIT_BYTES
        return Flit(_DATA, False, tail, self._dst, self._src,
                    self._msg_id, self._data[start:start + FLIT_BYTES])

    def feed(self, assembler: MessageAssembler, start: int,
             stop: int) -> None:
        """Deliver body flits ``[start, stop)`` (none of them the
        tail) to ``assembler`` as if pushed one by one, the data flits
        among them as one contiguous chunk."""
        n_meta = self._n_meta
        while start < stop and start <= n_meta:
            assembler.push(self.flit(start))
            start += 1
        if start < stop:
            assembler._chunks.append(
                self._data[(start - 1 - n_meta) * FLIT_BYTES:
                           (stop - 1 - n_meta) * FLIT_BYTES])


class MessageAssembler:
    """Rebuilds :class:`NocMessage` objects from an in-order flit stream.

    Wormhole switching guarantees a tile's local ejection port delivers
    each message's flits contiguously, so a single in-flight assembly
    suffices per port.
    """

    __slots__ = ("_active", "_dst", "_src", "_msg_id", "_packet_id",
                 "_metadata", "_meta_count", "_chunks")

    def __init__(self):
        self._active = False
        self._dst = self._src = None
        self._msg_id = self._packet_id = None
        self._metadata = None
        self._meta_count = 0
        self._chunks: list[bytes] = []

    @property
    def mid_message(self) -> bool:
        return self._active

    def push(self, flit: Flit) -> NocMessage | None:
        """Feed one flit; returns a completed message on the tail flit."""
        if flit.is_head:
            if self._active:
                raise ValueError(
                    f"header flit {flit!r} arrived mid-message"
                )
            self._active = True
            self._dst = flit.dst
            self._src = flit.src
            self._msg_id = flit.msg_id
            self._packet_id = flit.packet_id
            self._metadata = None
            self._meta_count = 0
            self._chunks = []
        else:
            if not self._active:
                raise ValueError(f"body flit {flit!r} without a header")
            if flit.msg_id != self._msg_id:
                raise ValueError(
                    f"interleaved flit {flit!r} inside msg "
                    f"{self._msg_id}"
                )
            kind = flit.kind
            if kind is FlitKind.DATA:
                self._chunks.append(bytes(flit.payload or b""))
            elif kind is FlitKind.METADATA:
                if self._meta_count == 0:
                    self._metadata = flit.payload
                self._meta_count += 1
        if flit.is_tail:
            self._active = False
            message = NocMessage(
                dst=self._dst,
                src=self._src,
                metadata=self._metadata,
                data=b"".join(self._chunks),
                n_meta_flits=self._meta_count,
                packet_id=self._packet_id,
            )
            message.msg_id = self._msg_id
            return message
        return None
