"""The benchmark's own Ethernet/IPv4/UDP/TCP frame codec and checker.

Written independently of ``repro.packet`` on purpose: the requests the
benchmark sends and the checks it makes on the echoes must not move
when the program's codec changes, and a checker that shared the
program's parser would accept whatever that parser accepts.
"""

from __future__ import annotations

import struct
import sys
import zlib

ETH_LEN = 14
IP_LEN = 20
UDP_LEN = 8
PROTO_TCP = 6
PROTO_UDP = 17

#: Request tag at the front of every UDP payload: magic, sequence
#: number, due cycle.  Matched on return against the request it answers.
TAG = struct.Struct("!IIQ")
TAG_MAGIC = 0xBEE5BE4C

_IP = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")
_TCP_SEQ_ACK = struct.Struct("!II")
_LITTLE_ENDIAN = sys.byteorder == "little"


def ones_sum(data) -> int:
    """One's-complement sum of ``data`` as 16-bit big-endian words.

    Sums native-order words and swaps the folded result, which RFC 1071
    section 2(B) shows is the same sum.
    """
    if len(data) & 1:
        data = bytes(data) + b"\x00"
    total = sum(memoryview(data).cast("H"))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    if _LITTLE_ENDIAN:
        total = ((total & 0xFF) << 8) | (total >> 8)
    return total


def checksum(data) -> int:
    """RFC 1071 internet checksum."""
    return ~ones_sum(data) & 0xFFFF


def mac_bytes(text: str) -> bytes:
    return bytes(int(part, 16) for part in text.split(":"))


def ip_bytes(text: str) -> bytes:
    return bytes(int(part) for part in text.split("."))


class UdpEndpoints:
    """Addresses of one client talking to the server's UDP port; builds
    requests and checks the echoes that come back."""

    def __init__(self, client_mac: bytes, server_mac: bytes,
                 client_ip: bytes, server_ip: bytes, server_port: int):
        self.client_mac = client_mac
        self.server_mac = server_mac
        self.client_ip = client_ip
        self.server_ip = server_ip
        self.server_port = server_port
        self._eth_request = server_mac + client_mac + b"\x08\x00"
        self._eth_echo = client_mac + server_mac + b"\x08\x00"
        # The pseudo-header sum of an echo is fixed but for the length.
        self._pseudo_echo = ones_sum(server_ip + client_ip) + PROTO_UDP

    def request(self, src_port: int, payload: bytes) -> bytes:
        """A complete request frame with valid checksums."""
        udp_len = UDP_LEN + len(payload)
        total = IP_LEN + udp_len
        ip = _IP.pack(0x45, 0, total, 0, 0x4000, 64, PROTO_UDP, 0,
                      self.client_ip, self.server_ip)
        ip = ip[:10] + checksum(ip).to_bytes(2, "big") + ip[12:]
        pseudo = (self.client_ip + self.server_ip
                  + bytes((0, PROTO_UDP)) + udp_len.to_bytes(2, "big"))
        udp = _UDP.pack(src_port, self.server_port, udp_len, 0)
        csum = checksum(pseudo + udp + payload) or 0xFFFF
        udp = udp[:6] + csum.to_bytes(2, "big")
        return self._eth_request + ip + udp + payload

    def check_echo(self, frame: bytes) -> tuple[str | None, int, bytes]:
        """Validate one echoed frame.

        Returns ``(error, client_port, payload)``; ``error`` is None for
        a well-formed frame addressed back to the client with valid
        IPv4 and UDP checksums.
        """
        if len(frame) < ETH_LEN + IP_LEN + UDP_LEN:
            return "short frame", 0, b""
        if frame[:ETH_LEN] != self._eth_echo:
            return "wrong ethernet header", 0, b""
        ip = frame[ETH_LEN:ETH_LEN + IP_LEN]
        (version_ihl, _tos, total, _ident, _frag, _ttl, proto, _csum,
         src, dst) = _IP.unpack(ip)
        if version_ihl != 0x45 or proto != PROTO_UDP:
            return "not IPv4/UDP", 0, b""
        if ones_sum(ip) != 0xFFFF:
            return "bad IPv4 checksum", 0, b""
        if src != self.server_ip or dst != self.client_ip:
            return "wrong IPv4 addresses", 0, b""
        if total != len(frame) - ETH_LEN:
            return "bad IPv4 length", 0, b""
        l4 = frame[ETH_LEN + IP_LEN:]
        sport, dport, udp_len, udp_csum = _UDP.unpack_from(l4)
        if udp_len != len(l4) or sport != self.server_port:
            return "bad UDP header", 0, b""
        folded = self._pseudo_echo + udp_len + ones_sum(l4)
        while folded >> 16:
            folded = (folded & 0xFFFF) + (folded >> 16)
        if udp_csum == 0 or folded != 0xFFFF:
            return "bad UDP checksum", 0, b""
        return None, dport, l4[UDP_LEN:]


def check_tcp_frame(frame: bytes) -> tuple[str | None, bytes, int, int]:
    """Validate one TCP egress frame's IPv4 and TCP checksums.

    Returns ``(error, dst_ip, dst_port, ack)``.
    """
    if len(frame) < ETH_LEN + IP_LEN + 20:
        return "short frame", b"", 0, 0
    if frame[12:14] != b"\x08\x00":
        return "not IPv4", b"", 0, 0
    ip = frame[ETH_LEN:ETH_LEN + IP_LEN]
    (version_ihl, _tos, total, _ident, _frag, _ttl, proto, _csum,
     src, dst) = _IP.unpack(ip)
    if version_ihl != 0x45 or proto != PROTO_TCP:
        return "not IPv4/TCP", b"", 0, 0
    if ones_sum(ip) != 0xFFFF or total != len(frame) - ETH_LEN:
        return "bad IPv4 header", b"", 0, 0
    l4 = frame[ETH_LEN + IP_LEN:]
    folded = (ones_sum(src + dst) + PROTO_TCP + len(l4) + ones_sum(l4))
    while folded >> 16:
        folded = (folded & 0xFFFF) + (folded >> 16)
    if folded != 0xFFFF:
        return "bad TCP checksum", b"", 0, 0
    dport = int.from_bytes(l4[2:4], "big")
    _seq, ack = _TCP_SEQ_ACK.unpack_from(l4, 4)
    return None, dst, dport, ack


def tcp_segment(frame: bytes) -> tuple[bytes, int, int, int]:
    """(src_ip, src_port, seq, payload length) of a TCP frame the
    benchmark's peers built, read at fixed offsets."""
    l4 = ETH_LEN + IP_LEN
    src = frame[ETH_LEN + 12:ETH_LEN + 16]
    sport = int.from_bytes(frame[l4:l4 + 2], "big")
    seq = int.from_bytes(frame[l4 + 4:l4 + 8], "big")
    data_off = (frame[l4 + 12] >> 4) * 4
    return src, sport, seq, len(frame) - l4 - data_off


def digest_add(crc: int, frame: bytes, cycle: int) -> int:
    """Fold one (frame bytes, emit cycle) pair into a crc32 digest."""
    return zlib.crc32(cycle.to_bytes(8, "big"), zlib.crc32(frame, crc))
