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
    seq_add,
    seq_sub,
    unwrap,
)

K = FlowKey(0x0A000001, 0x0A000002, 1234, 80)


def test_seq_sub_against_bigint_oracle():
    # oracle: unbounded-int subtraction reduced mod 2^32
    rng = random.Random(7)
    assert seq_sub(0x10, 0xFFFFFFF0) == (0x10 - 0xFFFFFFF0) % (1 << 32) == 0x20
    for _ in range(2000):
        a = rng.getrandbits(32)
        b = rng.getrandbits(32)
        assert seq_sub(a, b) == (a - b) % (1 << 32)
        assert seq_add(a, b) == (a + b) % (1 << 32)


@given(st.integers(0, 1 << 62), st.integers(-(1 << 24), (1 << 32) - (1 << 24) - 1))
def test_unwrap_recovers_every_offset_within_its_reach(ref, d):
    assert unwrap((ref + d) % (1 << 32), ref) == ref + d


def test_unwrap_reach_edges():
    ref = (1 << 32) + 5
    assert unwrap(ref - (1 << 24), ref) == ref - (1 << 24)
    assert unwrap(ref - (1 << 24) - 1, ref) == ref + (1 << 32) - (1 << 24) - 1
    assert unwrap(0x10, 0xFFFFFFF0) == (1 << 32) + 0x10  # across the wrap


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


def test_addr_helpers():
    assert addr_str(0x0A000001) == "10.0.0.1"
