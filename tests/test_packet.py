import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.packet import (
    MAX_SACK_BLOCKS,
    SEQ_MOD,
    FlowKey,
    MalformedPacketError,
    Packet,
    TcpFlags,
    TcpOptions,
    addr_str,
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


# Copies of a valid packet that each break one field's range.
CORRUPTIONS = {
    "seq_past_32_bits": lambda p: p._replace(seq=SEQ_MOD),
    "ack_past_32_bits": lambda p: p._replace(ack=SEQ_MOD + p.ack),
    "window_past_16_bits": lambda p: p._replace(window=1 << 16),
    "five_sack_blocks": lambda p: p._replace(options=p.options._replace(
        sack_blocks=((1, 2),) * (MAX_SACK_BLOCKS + 1))),
    "empty_sack_block": lambda p: p._replace(options=p.options._replace(
        sack_blocks=p.options.sack_blocks[:3] + ((p.seq, p.seq),))),
    "reversed_sack_block": lambda p: p._replace(options=p.options._replace(
        sack_blocks=((seq_add(p.seq, 10), p.seq),))),
    "mss_zero": lambda p: p._replace(options=p.options._replace(mss=0)),
    "mss_past_16_bits": lambda p: p._replace(options=p.options._replace(mss=1 << 16)),
    "payload_on_rst": lambda p: p._replace(
        flags=p.flags | TcpFlags.RST, payload=p.payload or b"x"),
}


@settings(max_examples=200, deadline=None)
@given(valid_packets())
def test_validate_accepts_valid_packets(p):
    p.validate()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@settings(max_examples=50, deadline=None)
@given(p=valid_packets())
def test_validate_rejects_corruption(corruption, p):
    with pytest.raises(MalformedPacketError):
        CORRUPTIONS[corruption](p).validate()


@settings(max_examples=200, deadline=None)
@given(p=valid_packets(), q=valid_packets(), data=st.data())
def test_packets_and_options_are_frozen_and_replace_one_field(p, q, data):
    """Packets are shared between hops: no field can be assigned, and
    `_replace` builds a new value of the same type, leaving the old one."""
    for old, new in ((p, q), (p.options, q.options)):
        cls = type(old)
        name = data.draw(st.sampled_from(cls._fields))
        value = getattr(new, name)
        items = tuple(old)
        with pytest.raises(AttributeError):
            setattr(old, name, value)
        out = old._replace(**{name: value})
        assert type(out) is cls
        assert out == cls(**{**old._asdict(), name: value})
        assert tuple(old) == items


def test_validate_accepts_range_boundaries():
    top = SEQ_MOD - 1
    blocks = tuple((l, seq_add(l, 1)) for l in (0, 10, 20, top))
    Packet(key=K, seq=top, ack=top, flags=TcpFlags.ACK, window=(1 << 16) - 1,
           options=TcpOptions(mss=(1 << 16) - 1, sack_blocks=blocks)).validate()
    Packet(key=K, flags=TcpFlags.SYN, options=TcpOptions(mss=1)).validate()
    Packet(key=K, flags=TcpFlags.ACK,
           options=TcpOptions(sack_blocks=((0, SEQ_MOD // 2 - 1),))).validate()


def test_addr_helpers():
    assert addr_str(0x0A000001) == "10.0.0.1"
