import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.packet import (
    EMPTY_OPTIONS,
    FlowKey,
    MalformedPacketError,
    Packet,
    TcpFlags,
    TcpOptions,
    addr_str,
    decode,
    encode,
    parse_addr,
    read_trace,
    seq_add,
    seq_lt,
    seq_sub,
    write_trace,
)

K = FlowKey(0x0A000001, 0x0A000002, 1234, 80)


def test_seq_order_basics():
    assert seq_lt(5, 10)
    assert not seq_lt(10, 5)
    assert not seq_lt(7, 7)
    # wraparound: 0xFFFFFFF0 precedes 0x10
    assert seq_lt(0xFFFFFFF0, 0x10)
    assert not seq_lt(0x10, 0xFFFFFFF0)


def test_seq_sub_against_bigint_oracle():
    # oracle: unbounded-int subtraction reduced mod 2^32
    rng = random.Random(7)
    assert seq_sub(0x10, 0xFFFFFFF0) == (0x10 - 0xFFFFFFF0) % (1 << 32) == 0x20
    for _ in range(2000):
        a = rng.getrandbits(32)
        b = rng.getrandbits(32)
        assert seq_sub(a, b) == (a - b) % (1 << 32)
        assert seq_add(a, b) == (a + b) % (1 << 32)


def test_seq_order_antisymmetric_within_half_window():
    rng = random.Random(11)
    for _ in range(2000):
        a = rng.getrandbits(32)
        d = rng.randrange(1, 1 << 31)
        b = (a + d) % (1 << 32)
        assert seq_lt(a, b) != seq_lt(b, a)


def test_flowkey_reverse_involution_and_order():
    assert K.reverse().reverse() == K
    assert K.reverse() != K
    assert sorted([K.reverse(), K]) == sorted([K, K.reverse()])
    assert FlowKey.unpack(K.pack()) == K


def test_roundtrip_syn_with_mss():
    p = Packet(key=K, seq=1000, flags=TcpFlags.SYN,
               options=TcpOptions(mss=1460, sack_permitted=True))
    assert decode(encode(p)) == p


def test_roundtrip_data_with_sack_blocks():
    p = Packet(key=K, seq=5, ack=77, flags=TcpFlags.ACK | TcpFlags.PSH,
               options=TcpOptions(sack_blocks=((100, 200), (300, 400))),
               payload=b"hello world")
    assert decode(encode(p)) == p


def test_decode_rejects_garbage():
    with pytest.raises(MalformedPacketError):
        decode(b"short")
    good = encode(Packet(key=K, payload=b"x", flags=TcpFlags.ACK))
    with pytest.raises(MalformedPacketError):
        decode(good[:-1])
    with pytest.raises(MalformedPacketError):
        decode(good + b"\x00")
    bad = bytearray(good)
    bad[13] = 0xFF  # flags byte: unknown bits
    with pytest.raises(MalformedPacketError):
        decode(bytes(bad))


def test_payload_on_syn_rejected():
    p = Packet(key=K, flags=TcpFlags.SYN, payload=b"no")
    with pytest.raises(MalformedPacketError):
        p.validate()


flow_keys = st.builds(
    FlowKey,
    src_addr=st.integers(0, 2**32 - 1),
    dst_addr=st.integers(0, 2**32 - 1),
    src_port=st.integers(0, 2**16 - 1),
    dst_port=st.integers(0, 2**16 - 1),
    proto=st.just(6),
)

seq32 = st.integers(0, 2**32 - 1)


@st.composite
def valid_packets(draw):
    flags = draw(st.integers(0, 0x1F))
    if flags & (TcpFlags.SYN | TcpFlags.RST):
        payload = b""
    else:
        payload = draw(st.binary(max_size=64))
    n_blocks = draw(st.integers(0, 4))
    blocks = []
    for _ in range(n_blocks):
        left = draw(seq32)
        length = draw(st.integers(1, 2**20))
        blocks.append((left, (left + length) % (1 << 32)))
    options = TcpOptions(
        mss=draw(st.one_of(st.none(), st.integers(1, 2**16 - 1))),
        sack_permitted=draw(st.booleans()),
        sack_blocks=tuple(blocks),
    )
    return Packet(key=draw(flow_keys), seq=draw(seq32), ack=draw(seq32),
                  flags=flags, window=draw(st.integers(0, 2**16 - 1)),
                  options=options, payload=payload)


@settings(max_examples=300, deadline=None)
@given(valid_packets())
def test_roundtrip_property(p):
    assert decode(encode(p)) == p


@settings(max_examples=100, deadline=None)
@given(valid_packets())
def test_decoded_flags_are_plain_ints(p):
    assert type(decode(encode(p)).flags) is int


def test_roundtrip_10k_random_packets():
    rng = random.Random(123)
    for _ in range(10_000):
        flags = TcpFlags.ACK | (TcpFlags.PSH if rng.random() < 0.5 else 0)
        blocks = []
        for _ in range(rng.randrange(0, 3)):
            l = rng.getrandbits(32)
            blocks.append((l, (l + rng.randrange(1, 9000)) % (1 << 32)))
        p = Packet(
            key=FlowKey(rng.getrandbits(32), rng.getrandbits(32),
                        rng.getrandbits(16), rng.getrandbits(16)),
            seq=rng.getrandbits(32), ack=rng.getrandbits(32), flags=flags,
            window=rng.getrandbits(16),
            options=TcpOptions(sack_blocks=tuple(blocks)),
            payload=rng.randbytes(rng.randrange(0, 100)))
        assert decode(encode(p)) == p


def test_trace_roundtrip(tmp_path):
    rng = random.Random(9)
    records = []
    for i in range(50):
        p = Packet(key=K, seq=rng.getrandbits(32), ack=rng.getrandbits(32),
                   flags=TcpFlags.ACK, payload=rng.randbytes(rng.randrange(0, 40)))
        records.append((i * 1000, p))
    path = tmp_path / "t.trace"
    assert write_trace(path, records) == 50
    assert read_trace(path) == records


def test_trace_rejects_truncation(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, [(0, Packet(key=K, flags=TcpFlags.ACK))])
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(MalformedPacketError):
        read_trace(path)


def test_addr_helpers():
    assert parse_addr("10.0.0.1") == 0x0A000001
    assert addr_str(0x0A000001) == "10.0.0.1"
    with pytest.raises(ValueError):
        parse_addr("10.0.0")
    with pytest.raises(ValueError):
        parse_addr("10.0.0.256")
