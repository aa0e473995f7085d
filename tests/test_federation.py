"""Wire protocol, transports, coordinator behavior, and the privacy audit."""

import contextlib
import dataclasses
import socket
import struct
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmvfl.federation import (
    ChannelClosedError,
    ChannelTimeoutError,
    FederationAbortError,
    FederationConfig,
    ProtocolError,
    RoundMessage,
    RoundTimeoutError,
    TcpChannel,
    TracedMessage,
    audit_trace,
    coordinator_run,
    decode_body,
    encode_body,
    frame,
    frame_size,
    run_federated,
)
from mmvfl.federation import messages as messages_module
from mmvfl.federation import participant as participant_module
from mmvfl.federation import session as session_module
from mmvfl.federation.session import _tcp_channel_pairs
from mmvfl.numerics import single_blas_thread
from mmvfl.optimizer import (
    Hyperparams,
    ParticipantState,
    ProblemShape,
    init_consensus,
    make_states,
    one_hot,
    participant_round,
    run_reference,
)


def tiny_problem(seed, num_samples=12, dims=(3, 4), num_classes=3):
    rng = np.random.default_rng(seed)
    views = [rng.standard_normal((num_samples, d)) for d in dims]
    labels = one_hot(np.arange(num_samples) % num_classes, num_classes)
    return views, labels


def tiny_config(num_samples=12, dims=(3, 4), num_classes=3, **hyper_kwargs):
    hyper = Hyperparams.uniform(len(dims), sparsity=0.1, **hyper_kwargs)
    shape = ProblemShape(num_participants=len(dims), num_classes=num_classes,
                         num_samples=num_samples)
    return FederationConfig(shape=shape, hyper=hyper, seed=0,
                            round_timeout=5.0)


# ---------------------------------------------------------------------------
# codec


def test_codec_roundtrip_is_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        payload = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-12, 13)
        message = RoundMessage(kind="ZkUpload", round=3, participant_id=1,
                               payload=payload,
                               objective_part=float(rng.standard_normal()))
        decoded = decode_body(encode_body(message))
        assert decoded.kind == message.kind
        assert decoded.round == message.round
        assert decoded.participant_id == message.participant_id
        assert decoded.payload.tobytes() == payload.tobytes()
        assert decoded.objective_part == message.objective_part


def test_codec_roundtrip_without_payload():
    message = RoundMessage(kind="Register", round=0, participant_id=2,
                           objective_part=0.0)
    decoded = decode_body(encode_body(message))
    assert decoded.payload is None
    assert decoded.objective_part == 0.0


def test_message_validation():
    with pytest.raises(ProtocolError):
        RoundMessage(kind="Gossip", round=0, participant_id=0)
    with pytest.raises(ProtocolError):
        RoundMessage(kind="Register", round=-1, participant_id=0)
    with pytest.raises(ProtocolError):
        RoundMessage(kind="Register", round=0, participant_id=-2)


def test_encode_rejects_bad_payloads():
    base = dict(kind="ZkUpload", round=1, participant_id=0, objective_part=1.0)
    with pytest.raises(ProtocolError):
        encode_body(RoundMessage(payload=np.ones(3), **base))
    with pytest.raises(ProtocolError):
        encode_body(RoundMessage(payload=np.empty((0, 3)), **base))
    with pytest.raises(ProtocolError):
        encode_body(RoundMessage(payload=np.array([[np.inf]]), **base))
    with pytest.raises(ProtocolError):
        encode_body(RoundMessage(kind="Converged", round=1, participant_id=0,
                                 payload=np.ones((2, 2)),
                                 objective_part=float("nan")))


def f8le(values):
    return np.asarray(values, dtype="<f8").tobytes()


# The body's header, written out here so the tests pin the format.
_WIRE_HEADER = struct.Struct("<BIIBdII")


def raw_body(kind=1, round=1, participant_id=0, flags=2, part=1.0, rows=2, cols=2,
             block=None):
    """A body built by hand: the fixed header, then ``block`` or rows*cols ones.
    The defaults give the ZkUpload of round 1 from participant 0 with part 1.0
    and a 2x2 matrix of ones; ``part`` may be the 8 raw part bytes."""
    fields = _WIRE_HEADER.pack(kind, round, participant_id, flags, 0.0, rows, cols)
    part = part if isinstance(part, bytes) else f8le(part)
    block = f8le(np.ones(rows * cols)) if block is None else block
    return fields[:10] + part + fields[18:] + block  # bytes 10-17 hold the part


def null_body(**changes):
    """A hand-built owner Register: no part, no payload."""
    return raw_body(**{"kind": 0, "round": 0, "flags": 1, "part": 0.0, "rows": 0,
                       "cols": 0, **changes})


def test_payload_is_one_little_endian_block():
    payload = np.array([[1.5, -0.0, 3.0], [2.0 ** -1074, -7.25, 1e300]])
    body = encode_body(RoundMessage(kind="ZBroadcast", round=2, participant_id=1,
                                    payload=payload))
    assert body[:26] == _WIRE_HEADER.pack(2, 2, 1, 0, 0.0, 2, 3)
    assert body[26:] == f8le(payload.ravel())
    received = bytearray(body)  # a writable source the decoder must not alias
    for source in (body, received):
        decoded = decode_body(source).payload
        assert decoded.tobytes() == payload.tobytes()
        assert decoded.dtype == np.float64 and decoded.dtype.isnative
        assert decoded.flags.c_contiguous and decoded.flags.writeable
    received[-8:] = f8le([0.0])
    assert decoded.tobytes() == payload.tobytes()  # a copy, not a view


def test_golden_bodies():
    upload = RoundMessage(kind="ZkUpload", round=2, participant_id=1,
                          payload=np.array([[1.0, -2.0], [0.5, 3.0]]),
                          objective_part=0.25)
    assert encode_body(upload) == (
        b"\x01"                                # kind: KINDS[1]
        b"\x02\x00\x00\x00"                    # round
        b"\x01\x00\x00\x00"                    # participant_id
        b"\x02"                                # flags: objective_part present
        b"\x00\x00\x00\x00\x00\x00\xd0\x3f"    # objective_part 0.25
        b"\x02\x00\x00\x00\x02\x00\x00\x00"    # rows, cols
        b"\x00\x00\x00\x00\x00\x00\xf0\x3f"
        b"\x00\x00\x00\x00\x00\x00\x00\xc0"
        b"\x00\x00\x00\x00\x00\x00\xe0\x3f"
        b"\x00\x00\x00\x00\x00\x00\x08\x40")
    register = RoundMessage(kind="Register", round=0, participant_id=3, label_owner=True)
    assert encode_body(register) == (
        b"\x00"                                # kind: KINDS[0]
        b"\x00\x00\x00\x00"                    # round
        b"\x03\x00\x00\x00"                    # participant_id
        b"\x01"                                # flags: label_owner
        b"\x00\x00\x00\x00\x00\x00\x00\x00"    # no objective_part
        b"\x00\x00\x00\x00\x00\x00\x00\x00")   # no payload
    assert frame_size(encode_body(RoundMessage(
        kind="ZkUpload", round=1, participant_id=0, payload=np.ones((2000, 10)),
        objective_part=1.0))) == 160_030
    for message in (upload, register):
        assert encode_body(decode_body(encode_body(message))) == encode_body(message)


@pytest.mark.parametrize("field", ["round", "participant_id"])
def test_encode_rejects_counters_past_u32(field):
    fields = dict(kind="ZkUpload", round=1, participant_id=0, payload=np.ones((1, 1)))
    with pytest.raises(ProtocolError, match="does not fit"):
        encode_body(RoundMessage(**{**fields, field: 2**32}))
    decoded = decode_body(encode_body(RoundMessage(**{**fields, field: 2**32 - 1})))
    assert getattr(decoded, field) == 2**32 - 1


def test_label_ownership_is_only_claimed_on_register():
    decoded = decode_body(encode_body(
        RoundMessage(kind="Register", round=0, participant_id=1, label_owner=True)))
    assert decoded.label_owner is True and decoded.objective_part is None
    for kind in ("ZkUpload", "ZBroadcast", "Converged", "Abort"):
        with pytest.raises(ProtocolError):
            RoundMessage(kind=kind, round=1, participant_id=0, label_owner=True)


def test_decode_rejects_malformed_bodies():
    good = encode_body(RoundMessage(kind="ZkUpload", round=1, participant_id=0,
                                    payload=np.ones((2, 2)), objective_part=1.0))
    assert good == raw_body()
    assert decode_body(null_body()).label_owner
    bad_bodies = [
        # shorter than the header
        (b"", "short body"),
        (good[:25], "short body"),
        (null_body()[:-1], "short body"),
        # kind code past KINDS
        (raw_body(kind=5), "unknown kind code 5"),
        (raw_body(kind=255), "unknown kind code"),
        # flag bits other than label_owner and objective_part
        (raw_body(flags=4), "unknown flag bits"),
        (null_body(flags=0x81), "unknown flag bits"),
        # part bytes without the part flag, including -0.0 and a NaN
        (raw_body(flags=0), "objective_part bytes"),
        (null_body(part=-0.0), "objective_part bytes"),
        (null_body(part=b"\x00" * 7 + b"\x01"), "objective_part bytes"),
        (null_body(part=float("nan")), "objective_part bytes"),
        # a non-finite part
        (raw_body(part=float("inf")), "must be finite"),
        (raw_body(part=-float("inf")), "must be finite"),
        (raw_body(part=float("nan")), "must be finite"),
        # exactly one side of the shape is 0
        (raw_body(rows=0, cols=2), "one zero side"),
        (raw_body(rows=2, cols=0), "one zero side"),
        (raw_body(rows=0, cols=2, block=f8le(np.ones(2))), "one zero side"),
        # a length other than 26 + 8*rows*cols
        (good[:-1], "length mismatch"),
        (good + b"\x00", "length mismatch"),
        (raw_body(block=f8le([1.0, 2.0, 3.0])), "length mismatch"),
        (raw_body(rows=3, block=f8le(np.ones(4))), "length mismatch"),
        (raw_body(rows=2**32 - 1, cols=2**32 - 1, block=f8le(np.ones(4))), "length mismatch"),
        (null_body(block=b"\x00"), "length mismatch"),
        (null_body(block=f8le([1.0])), "length mismatch"),
        # non-finite entries
        (raw_body(rows=1, block=f8le([1.0, np.nan])), "non-finite entries"),
        (raw_body(rows=1, cols=1, block=f8le([-np.inf])), "non-finite entries"),
        (raw_body(rows=1, cols=1, block=f8le([np.inf])), "non-finite entries"),
        # label ownership on anything but Register
        (raw_body(flags=3), "label ownership"),
        (raw_body(kind=2, flags=1, part=0.0), "label ownership"),
        (null_body(kind=4), "label ownership"),
    ]
    for body, reason in bad_bodies:
        with pytest.raises(ProtocolError, match=reason):
            decode_body(body)


_GOOD_BODY = raw_body()
_PAYLOAD_START = _WIRE_HEADER.size

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                np.finfo(np.float64).max, -np.finfo(np.float64).max]
_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def mutated_good_bodies(draw):
    """The good body with up to 8 bytes cut and up to 8 put in their place,
    aimed at the 26-byte header or the entries."""
    start = draw(st.one_of(st.integers(0, _PAYLOAD_START - 1),
                           st.integers(_PAYLOAD_START, len(_GOOD_BODY))))
    cut = draw(st.integers(0, 8))
    return _GOOD_BODY[:start] + draw(st.binary(max_size=8)) + _GOOD_BODY[start + cut:]


@st.composite
def fielded_bodies(draw):
    """Bodies built field by field, many of them well-formed: kind codes
    and flags up to one past the known ones, any part bytes beside either
    part flag, any shape up to 3x3, and entries of any bit pattern, at
    times a byte short or long."""
    rows, cols = draw(st.one_of(st.just((0, 0)),
                                st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                st.tuples(st.integers(0, 3), st.integers(0, 3))))
    size = 8 * rows * cols
    part = draw(st.one_of(st.just(0.0), _FINITE, st.floats(),
                          st.binary(min_size=8, max_size=8)))
    block = draw(st.one_of(st.binary(min_size=size, max_size=size),
                           st.binary(min_size=max(size - 1, 0), max_size=size + 1)))
    return raw_body(kind=draw(st.integers(0, 5)), round=draw(st.integers(0, 2**32 - 1)),
                    participant_id=draw(st.integers(0, 2**32 - 1)),
                    flags=draw(st.integers(0, 4)), part=part, rows=rows, cols=cols,
                    block=block)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=512), mutated_good_bodies(), fielded_bodies()))
def test_decode_arbitrary_bytes_raises_only_protocol_error(body):
    try:
        message = decode_body(body)
    except ProtocolError:
        return
    assert isinstance(message, RoundMessage)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_good_bodies(), fielded_bodies()))
def test_every_accepted_body_reencodes_to_itself(body):
    """One encoding per message: that is why an absent part is all zero bytes."""
    try:
        message = decode_body(body)
    except ProtocolError:
        return
    assert encode_body(message) == body


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=_FINITE),
       st.one_of(st.none(), _FINITE))
def test_codec_roundtrip_is_bitwise_for_any_finite_matrix(payload, part):
    message = RoundMessage(kind="ZkUpload", round=1, participant_id=0,
                           payload=payload, objective_part=part)
    decoded = decode_body(encode_body(message))
    assert decoded.payload.tobytes() == payload.tobytes()
    if part is None:
        assert decoded.objective_part is None
    else:
        assert np.float64(decoded.objective_part).tobytes() == np.float64(part).tobytes()


def test_frame_layout_and_size():
    body = b'{"k":1}'
    framed = frame(body)
    assert framed[:4] == (7).to_bytes(4, "big")
    assert framed[4:] == body
    assert frame_size(body) == 11


def test_frame_rejects_oversized_body(monkeypatch):
    monkeypatch.setattr(messages_module, "MAX_BODY_BYTES", 10)
    with pytest.raises(ProtocolError):
        frame(b"x" * 11)


# ---------------------------------------------------------------------------
# channels


def socketpair_channels():
    return tuple(TcpChannel(s) for s in socket.socketpair())


def tcp_channels():
    (server,), (client,) = _tcp_channel_pairs(1, 0, timeout=5.0)
    return client, server


# The in-process and the loopback TCP pairing of ``run_federated``.
PAIRINGS = [pytest.param(socketpair_channels, id="socketpair"),
            pytest.param(tcp_channels, id="tcp")]


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_channel_fifo_framing_close_timeout(pairing):
    a, b = pairing()
    try:
        a.send_bytes(b"one")
        a.send_bytes(b"two")
        a.send_bytes(b"x" * 70000)  # spans several segments
        assert b.recv_bytes(timeout=1.0) == b"one"
        assert b.recv_bytes(timeout=1.0) == b"two"
        assert b.recv_bytes(timeout=2.0) == b"x" * 70000
        with pytest.raises(ChannelTimeoutError):
            b.recv_bytes(timeout=0.05)
        a.close()
        with pytest.raises(ChannelClosedError):
            b.recv_bytes(timeout=1.0)
        with pytest.raises(ChannelClosedError):
            b.recv_bytes(timeout=1.0)  # the close stays visible
        with pytest.raises(ChannelClosedError):
            a.send_bytes(b"three")
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_tcp_send_enforces_frame_limit(monkeypatch, pairing):
    monkeypatch.setattr(messages_module, "MAX_BODY_BYTES", 10)
    client, server = pairing()
    try:
        with pytest.raises(ProtocolError):
            client.send_bytes(b"x" * 11)
        client.send_bytes(b"x" * 10)
        assert server.recv_bytes(timeout=2.0) == b"x" * 10
    finally:
        server.close()
        client.close()


def tcp_channel_and_raw_peer():
    """A ``TcpChannel`` whose peer is a bare socket the test writes by hand."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = socket.create_connection(listener.getsockname(), timeout=5.0)
        channel = TcpChannel(listener.accept()[0])
    return channel, peer


def test_tcp_channel_carries_a_full_size_matrix():
    payload = np.random.default_rng(0).standard_normal((2000, 10))
    message = RoundMessage(kind="ZkUpload", round=1, participant_id=0,
                           payload=payload, objective_part=0.5)
    (server,), (client,) = _tcp_channel_pairs(1, 0, timeout=5.0)
    try:
        sender = threading.Thread(target=client.send, args=(message,), daemon=True)
        sender.start()
        received, nbytes = server.recv(timeout=5.0)
        sender.join(timeout=5.0)
        assert not sender.is_alive()
        assert received.payload.tobytes() == payload.tobytes()
        assert nbytes == frame_size(encode_body(message))
    finally:
        server.close()
        client.close()

    # the same frame trickled in pieces that split the length prefix too
    framed = frame(encode_body(message))
    cuts = [0, 2, 5, 4000, 70000, 150001, len(framed)]
    server, peer = tcp_channel_and_raw_peer()
    try:
        def trickle():
            for lo, hi in zip(cuts, cuts[1:]):
                peer.sendall(framed[lo:hi])
                time.sleep(0.02)

        sender = threading.Thread(target=trickle, daemon=True)
        sender.start()
        received = decode_body(server.recv_bytes(timeout=5.0))
        sender.join(timeout=5.0)
        assert not sender.is_alive()
        assert received.payload.tobytes() == payload.tobytes()
    finally:
        server.close()
        peer.close()


@pytest.mark.parametrize("sent", [2, 4, 4 + 80000])
def test_tcp_peer_closing_mid_frame_raises_channel_closed(sent):
    framed = frame(encode_body(RoundMessage(
        kind="ZBroadcast", round=0, participant_id=0, payload=np.ones((2000, 10)))))
    server, peer = tcp_channel_and_raw_peer()
    try:
        peer.sendall(framed[:sent])
        peer.close()
        with pytest.raises(ChannelClosedError):
            server.recv_bytes(timeout=5.0)
    finally:
        server.close()


def test_message_channel_reports_framed_sizes():
    sender, receiver = socketpair_channels()
    message = RoundMessage(kind="ZBroadcast", round=1, participant_id=0,
                           payload=np.ones((2, 2)))
    try:
        sent = sender.send(message)
        received, got = receiver.recv(timeout=1.0)
    finally:
        sender.close()
        receiver.close()
    assert sent == got == frame_size(encode_body(message))
    assert received.payload.tobytes() == message.payload.tobytes()


# ---------------------------------------------------------------------------
# full sessions


def test_golden_two_round_message_sequence():
    views, labels = tiny_problem(0)
    hyper = Hyperparams.uniform(2, sparsity=0.1, outer_max=2, outer_tol=1e-300)
    result = run_federated(views, labels, hyper, seed=0)
    log = [(entry.direction, entry.kind, entry.round) for entry in result.trace]
    assert log == (
        [("recv", "Register", 0)] * 2
        + [("sent", "ZBroadcast", 0)] * 2
        + [("recv", "ZkUpload", 1)] * 2
        + [("sent", "ZBroadcast", 1)] * 2
        + [("recv", "ZkUpload", 2)] * 2
        + [("sent", "Converged", 2)] * 2
    )
    assert len(result.objectives) == 2


@pytest.mark.parametrize("outer_max, outer_tol, converges", [
    (100, 1e-5, True),
    (3, 1e-300, False),
])
def test_coordinator_trace_sequence(outer_max, outer_tol, converges):
    views, labels = tiny_problem(2, dims=(3, 4, 5))
    hyper = Hyperparams.uniform(3, sparsity=0.1, outer_max=outer_max, outer_tol=outer_tol)
    result = run_federated(views, labels, hyper, seed=2)
    rounds = len(result.objectives)
    assert rounds > 1 and (rounds < outer_max) == converges
    ids = range(3)
    expected = [("recv", "Register", 0, pid) for pid in ids]
    for r in range(1, rounds + 1):
        expected += [("sent", "ZBroadcast", r - 1, pid) for pid in ids]
        expected += [("recv", "ZkUpload", r, pid) for pid in ids]
    expected += [("sent", "Converged", rounds, pid) for pid in ids]
    log = [(e.direction, e.kind, e.round, e.participant_id) for e in result.trace]
    assert log == expected


@pytest.mark.parametrize("transport,dims", [
    ("in_process", (3, 4)),
    ("in_process", (3, 4, 5)),
    ("tcp", (3, 4, 5)),
])
def test_federated_matches_reference_bitwise(transport, dims):
    views, labels = tiny_problem(1, dims=dims)
    hyper = Hyperparams.uniform(len(dims), sparsity=0.1, outer_max=15)
    reference = run_reference(views, labels, hyper, seed=3)
    federated = run_federated(views, labels, hyper, seed=3, transport=transport)
    assert_matches_reference(federated, reference)


def assert_matches_reference(federated, reference):
    assert federated.objectives == reference.objectives
    assert federated.consensus.tobytes() == reference.consensus.tobytes()
    for state, transform, pseudo in zip(federated.states, reference.transforms,
                                        reference.pseudo_labels):
        assert state.transform.tobytes() == transform.tobytes()
        assert state.pseudo_labels.tobytes() == pseudo.tobytes()


def with_nan(view):
    view = view.copy()
    view[0, 0] = np.nan
    return view


BAD_INPUTS = [
    pytest.param(lambda v, y, h, s: ([v[0], v[1][:-1]], y, h, s), id="view-one-row-short"),
    pytest.param(lambda v, y, h, s: ([v[0], with_nan(v[1])], y, h, s), id="view-non-finite"),
    pytest.param(lambda v, y, h, s: (v, y[:-1], h, s), id="labels-one-row-short"),
    pytest.param(lambda v, y, h, s: (v, 2.0 * y, h, s), id="labels-not-one-hot"),
    pytest.param(lambda v, y, h, s: (v, y, h, -1), id="seed-negative"),
    pytest.param(lambda v, y, h, s: (v, y, Hyperparams.uniform(3, sparsity=0.1), s),
                 id="hyperparams-too-long"),
]


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("spoil", BAD_INPUTS)
def test_bad_inputs_raise_what_the_reference_raises(transport, spoil):
    views, labels = tiny_problem(2)
    args = spoil(views, labels, Hyperparams.uniform(2, sparsity=0.1), 0)
    with pytest.raises(Exception) as expected:
        run_reference(*args)
    threads = threading.active_count()
    started = time.monotonic()
    with pytest.raises(Exception) as raised:
        run_federated(*args, transport=transport, round_timeout=5.0)
    # checked before any thread starts, not found at the round deadline
    assert time.monotonic() - started < 1.0
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
    assert threading.active_count() == threads


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("round_timeout", [float("inf"), 1e300, float("nan")])
def test_a_round_timeout_past_what_the_sockets_accept_is_refused(transport, round_timeout):
    # the CLI's bound, (0, threading.TIMEOUT_MAX], refused before any thread
    # starts rather than as an OverflowError in the socket layer
    views, labels = tiny_problem(2)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="round_timeout must be in"):
        run_federated(views, labels, Hyperparams.uniform(2, sparsity=0.1), 0,
                      transport=transport, round_timeout=round_timeout)
    assert threading.active_count() == threads


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_round_timeout_at_the_bound_is_accepted(transport):
    # run_federated keeps no deadline of its own, so none can overflow
    views, labels = tiny_problem(2)
    hyper = Hyperparams.uniform(2, sparsity=0.1)
    reference = run_reference(views, labels, hyper, seed=0)
    threads = threading.active_count()
    federated = run_federated(views, labels, hyper, 0, transport=transport,
                              round_timeout=threading.TIMEOUT_MAX)
    assert_matches_reference(federated, reference)
    assert threading.active_count() == threads


def fail_refit_of_participant_1(monkeypatch, failure):
    def refit(state, consensus, hyper):
        if state.participant_id == 1:
            raise failure
        return participant_round(state, consensus, hyper)

    monkeypatch.setattr(participant_module, "participant_round", refit)


def fail_set_up_of_participant_1(monkeypatch, failure):
    new_state = participant_module._new_state

    def set_up(participant_id, *args):
        if participant_id == 1:
            raise failure
        return new_state(participant_id, *args)

    monkeypatch.setattr(participant_module, "_new_state", set_up)


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("inject", [fail_refit_of_participant_1, fail_set_up_of_participant_1])
def test_a_participant_failure_comes_out_as_itself(monkeypatch, transport, inject):
    failure = RuntimeError("participant 1 failed")
    inject(monkeypatch, failure)
    views, labels = tiny_problem(2, dims=(3, 4, 5))
    hyper = Hyperparams.uniform(3, sparsity=0.1)
    threads = threading.active_count()
    started = time.monotonic()
    with pytest.raises(RuntimeError) as raised:
        run_federated(views, labels, hyper, seed=0, transport=transport, round_timeout=5.0)
    # the failing party closes its channel, so no one waits for a deadline
    assert time.monotonic() - started < 2.5
    assert raised.value is failure
    assert threading.active_count() == threads


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_missed_deadline_aborts_every_other_participant(monkeypatch, transport):
    round_timeout = 0.5

    def slow_refit(state, consensus, hyper):
        if state.participant_id == 1:
            time.sleep(round_timeout + 0.5)
        return participant_round(state, consensus, hyper)

    endings = {}

    def recording_run(participant_id, *args):
        try:
            return participant_module.participant_run(participant_id, *args)
        except BaseException as exc:
            endings[participant_id] = exc
            raise

    monkeypatch.setattr(participant_module, "participant_round", slow_refit)
    monkeypatch.setattr(session_module, "participant_run", recording_run)
    views, labels = tiny_problem(2, dims=(3, 4, 5))
    hyper = Hyperparams.uniform(3, sparsity=0.1)
    threads = threading.active_count()
    started = time.monotonic()
    with pytest.raises(RoundTimeoutError) as raised:
        run_federated(views, labels, hyper, seed=0, transport=transport,
                      round_timeout=round_timeout)
    # the Abort and the coordinator's own close end the session for all
    assert time.monotonic() - started < round_timeout + 2.0
    assert raised.value.participant_id == 1
    assert {pid: type(exc) for pid, exc in endings.items() if pid != 1} == {
        0: FederationAbortError, 2: FederationAbortError}
    assert threading.active_count() == threads


@contextlib.contextmanager
def channels_opened():
    """Every ``TcpChannel`` made inside the block."""
    opened = []
    init = TcpChannel.__init__

    def record(channel, sock):
        init(channel, sock)
        opened.append(channel)

    with mock.patch.object(TcpChannel, "__init__", record):
        yield opened


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_participant_thread_that_fails_to_start_ends_the_session(monkeypatch, transport):
    # participant 0 starts and waits for a coordinator that never runs
    failure = RuntimeError("can't start new thread")
    start = threading.Thread.start
    started = []

    def start_once(thread):
        if started:
            raise failure
        started.append(thread)
        start(thread)

    views, labels = tiny_problem(2, dims=(3, 4, 5))
    hyper = Hyperparams.uniform(3, sparsity=0.1)
    threads = threading.active_count()
    begun = time.monotonic()
    # the session's helper thread, if any, starts with this scope
    with single_blas_thread(), channels_opened() as opened:
        monkeypatch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError) as raised:
            run_federated(views, labels, hyper, seed=0, transport=transport,
                          round_timeout=5.0)
        monkeypatch.undo()
    assert time.monotonic() - begun < 2.5
    assert raised.value is failure
    assert threading.active_count() == threads
    # participant 2 never ran, and its end is closed all the same
    assert len(opened) == 6 and all(channel._closed for channel in opened)


class FaultyChannel:
    """A participant's channel that commits ``fault`` on its Register or on
    its upload of round ``fault_round``; everything else passes through."""

    def __init__(self, channel, fault, fault_round):
        self.channel = channel
        self.fault = fault
        self.fault_round = fault_round

    def recv(self, timeout=None):
        return self.channel.recv(timeout)

    def close(self):
        self.channel.close()

    def send(self, message):
        fault = self.fault
        if message.kind == "Register":
            if fault == "owner-flag":  # a second label owner, or none
                message = dataclasses.replace(message, label_owner=not message.label_owner)
            nbytes = self.channel.send(message)
            if fault == "leave-after-register":
                self.channel.close()
            return nbytes
        if fault == "ignore-broadcast" and message.round >= self.fault_round:
            # a constant upload with a zero part, whatever was broadcast
            return self.channel.send(dataclasses.replace(
                message, payload=np.ones_like(message.payload), objective_part=0.0))
        if message.round != self.fault_round:
            return self.channel.send(message)
        if fault == "silence":
            while True:  # never upload; ends when the coordinator closes
                self.channel.recv()
        if fault == "wrong-round":
            return self.channel.send(dataclasses.replace(message, round=message.round + 1))
        if fault == "wrong-id":
            return self.channel.send(dataclasses.replace(
                message, participant_id=message.participant_id + 1))
        assert fault == "malformed"
        self.channel.send_bytes(encode_body(message)[:-1])
        return 0


# What the session raises for each fault: the silent participant's missed
# deadline, an abort for a protocol or transport fault, and the negative
# recorded objective a constant upload causes at zeta = eta = 1000 (at
# zeta = eta <= 1 such an upload can look like an honest one).
SESSION_FAULTS = {
    "silence": RoundTimeoutError,
    "wrong-round": FederationAbortError,
    "wrong-id": FederationAbortError,
    "malformed": FederationAbortError,
    "leave-after-register": FederationAbortError,
    "owner-flag": FederationAbortError,
    "ignore-broadcast": ValueError,
}


# The draws span 126 sessions; hypothesis runs each once, then stops.
@settings(max_examples=200, deadline=None)
@given(transport=st.sampled_from(["in_process", "tcp"]),
       faulty=st.integers(0, 2),
       fault_round=st.integers(1, 3),
       fault=st.sampled_from(sorted(SESSION_FAULTS)))
def test_every_faulty_session_ends_for_every_party(transport, faulty, fault_round, fault):
    round_timeout = 0.5
    endings = {}

    def run(participant_id, features, labels, config, channel):
        if participant_id == faulty:
            channel = FaultyChannel(channel, fault, fault_round)
        try:
            endings[participant_id] = participant_module.participant_run(
                participant_id, features, labels, config, channel)
        except BaseException as exc:
            endings[participant_id] = exc
            raise
        return endings[participant_id]

    views, labels = tiny_problem(2, dims=(3, 4, 5))
    # no round converges before outer_max, so every fault round is reached
    hyper = Hyperparams.uniform(3, sparsity=0.1, outer_max=3, outer_tol=1e-300)
    threads = threading.active_count()
    started = time.monotonic()
    with mock.patch.object(session_module, "participant_run", run), \
            channels_opened() as opened, pytest.raises(SESSION_FAULTS[fault]) as raised:
        run_federated(views, labels, hyper, seed=0, transport=transport,
                      round_timeout=round_timeout)
    assert time.monotonic() - started < round_timeout + 2.0
    if fault == "silence":
        assert raised.value.participant_id == faulty
    if fault == "ignore-broadcast":
        assert f"round {fault_round} recorded the objective" in str(raised.value)
    elif fault != "owner-flag":
        assert f"participant {faulty}" in str(raised.value)
    # an honest participant reads the Abort, or meets the close while sending
    assert sorted(endings) == [0, 1, 2]
    for pid, ending in endings.items():
        if pid != faulty:
            assert isinstance(ending, (ParticipantState, FederationAbortError,
                                       ChannelClosedError))
    assert threading.active_count() == threads
    assert len(opened) == 6 and all(channel._closed for channel in opened)


@pytest.fixture
def pairs():
    """Two (coordinator side, participant side) channel pairs over
    ``socket.socketpair()``, closed when the test ends."""
    made = [socketpair_channels() for _ in range(2)]
    yield made
    for pair in made:
        for channel in pair:
            channel.close()


def start_coordinator(config, channels):
    holder = {}

    def target():
        try:
            holder["result"] = coordinator_run(config, channels)
        except BaseException as exc:
            holder["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, holder


def register(channel, pid, owner=False):
    channel.send(RoundMessage(kind="Register", round=0, participant_id=pid,
                              label_owner=owner))


def kinds_until_closed(side):
    """The kinds of the frames ``side`` reads before its channel closes."""
    kinds = []
    try:
        while True:
            kinds.append(side.recv(timeout=5.0)[0].kind)
    except ChannelClosedError:
        return kinds


def test_duplicate_registration_aborts_session(pairs):
    config = tiny_config()
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    sides = [b for _, b in pairs]
    register(sides[0], 0, owner=True)
    register(sides[1], 0)  # same id again
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert isinstance(holder.get("error"), FederationAbortError)
    assert "duplicate" in str(holder["error"])
    # the well-behaved channel was told the session died
    message, _ = sides[0].recv(timeout=1.0)
    assert message.kind == "Abort"


def test_two_label_owners_abort_session(pairs):
    config = tiny_config()
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    sides = [b for _, b in pairs]
    register(sides[0], 0, owner=True)
    register(sides[1], 1, owner=True)
    thread.join(timeout=10.0)
    assert isinstance(holder.get("error"), FederationAbortError)
    assert "label owner, got [0, 1]" in str(holder["error"])


def test_round_timeout_names_the_silent_participant(pairs):
    config = tiny_config(outer_max=3)
    config = FederationConfig(shape=config.shape, hyper=config.hyper, seed=0,
                              round_timeout=0.2)
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    sides = [b for _, b in pairs]
    register(sides[0], 0, owner=True)
    register(sides[1], 1)
    for side in sides:
        message, _ = side.recv(timeout=1.0)
        assert message.kind == "ZBroadcast"
    payload = np.zeros((config.shape.num_samples, config.shape.num_classes))
    sides[0].send(RoundMessage(kind="ZkUpload", round=1, participant_id=0,
                               payload=payload, objective_part=1.0))
    # participant 1 registered but never uploads
    thread.join(timeout=10.0)
    error = holder.get("error")
    assert isinstance(error, RoundTimeoutError)
    assert error.participant_id == 1
    assert "participant 1" in str(error)
    assert [kinds_until_closed(side) for side in sides] == [["Abort"], ["Abort"]]


def test_a_participant_that_leaves_after_registering_aborts_the_session(pairs):
    config = tiny_config()
    sides = [b for _, b in pairs]
    register(sides[0], 0, owner=True)
    register(sides[1], 1)
    sides[1].close()  # gone before the first broadcast reaches it
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    thread.join(timeout=10.0)
    error = holder.get("error")
    assert isinstance(error, FederationAbortError)
    assert "participant 1" in str(error)
    assert kinds_until_closed(sides[0]) == ["ZBroadcast", "Abort"]


def test_registration_timeout_names_the_channel(pairs):
    config = FederationConfig(shape=tiny_config().shape,
                              hyper=tiny_config().hyper, seed=0,
                              round_timeout=0.2)
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    register(pairs[0][1], 0, owner=True)
    # second channel stays completely silent
    thread.join(timeout=10.0)
    error = holder.get("error")
    assert isinstance(error, RoundTimeoutError)
    assert "unregistered channel 1" in str(error)


def scripted_participant(side, pid, owner, projection, hyper, delay=0.0):
    """Minimal hand-rolled participant whose projection never moves: it
    answers each broadcast Z_b with its pseudo-label minimizer, the
    projection P pulled toward Z_b by b = zeta / (1 + zeta + [eta for the
    owner]), and owns labels equal to P."""
    register(side, pid, owner=owner)
    zeta = hyper.consensus_penalty[pid]
    label_weight = hyper.label_penalty if owner else 0.0
    pull = zeta / (1.0 + zeta + label_weight)
    round_index = 0
    while True:
        message, _ = side.recv(timeout=5.0)
        if message.kind == "Converged":
            return message.payload
        assert message.kind == "ZBroadcast"
        round_index += 1
        if delay:
            time.sleep(delay)
        upload = projection + pull * (message.payload - projection)
        part = (1.0 + label_weight) * float(np.sum((upload - projection) ** 2))
        side.send(RoundMessage(kind="ZkUpload", round=round_index,
                               participant_id=pid, payload=upload,
                               objective_part=part))


def run_scripted_session(pairs, config, projections, owner, delays=(0.0, 0.0)):
    """A coordinator session with two scripted participants; returns the
    coordinator's outcome and the consensus each participant received
    with ``Converged``."""
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    received = {}

    def participant(pid):
        received[pid] = scripted_participant(pairs[pid][1], pid, pid == owner,
                                             projections[pid], config.hyper, delays[pid])

    runners = [threading.Thread(target=participant, args=(pid,), daemon=True)
               for pid in range(2)]
    for runner in runners:
        runner.start()
    thread.join(timeout=30.0)
    for runner in runners:
        runner.join(timeout=5.0)
    return holder, received


def test_slow_but_alive_participant_completes(pairs):
    config = FederationConfig(shape=tiny_config().shape,
                              hyper=tiny_config().hyper, seed=0,
                              round_timeout=1.0)
    ones = np.ones((config.shape.num_samples, config.shape.num_classes))
    holder, received = run_scripted_session(pairs, config, [ones, ones], 0,
                                            delays=(0.3, 0.0))
    assert "error" not in holder
    # projections that agree have the joint minimum 0 at Z = P: round 1
    # reaches it from the seeded consensus, and round 2 confirms it
    result = holder["result"]
    assert len(result.objectives) == 2 and result.converged
    assert np.allclose(result.consensus, ones, rtol=0.0, atol=1e-12)
    assert abs(result.objectives[0]) <= 1e-9
    assert all(z.tobytes() == result.consensus.tobytes() for z in received.values())


def test_participants_that_ignore_the_broadcast_end_the_session(pairs):
    # constant uploads that never answer the broadcast drive the recorded
    # objective below zero in round 1 (zeta = eta = 1000); the coordinator
    # raises there and aborts the session instead of running to outer_max
    config = tiny_config()
    ones = np.ones((config.shape.num_samples, config.shape.num_classes))
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    uploads = {0: 0, 1: 0}
    endings = {}

    def participant(pid):
        side = pairs[pid][1]
        register(side, pid, owner=pid == 0)
        message, _ = side.recv(timeout=5.0)
        while message.kind == "ZBroadcast":
            uploads[pid] += 1
            side.send(RoundMessage(kind="ZkUpload", round=message.round + 1,
                                   participant_id=pid, payload=ones, objective_part=0.0))
            message, _ = side.recv(timeout=5.0)
        endings[pid] = [message.kind] + kinds_until_closed(side)

    runners = [threading.Thread(target=participant, args=(pid,), daemon=True)
               for pid in range(2)]
    for runner in runners:
        runner.start()
    thread.join(timeout=30.0)
    for runner in runners:
        runner.join(timeout=5.0)
    assert not thread.is_alive() and not any(runner.is_alive() for runner in runners)
    assert isinstance(holder.get("error"), ValueError)
    assert "round 1 recorded the objective" in str(holder["error"])
    assert uploads == {0: 1, 1: 1}
    assert endings == {0: ["Abort"], 1: ["Abort"]}


def test_the_registered_label_owner_gets_the_label_weight(pairs):
    # unequal consensus penalties, so the owner's index changes Z*
    hyper = Hyperparams(sparsity=(0.1, 0.1), consensus_penalty=(2.0, 50.0),
                        label_penalty=10.0, outer_max=1)
    config = FederationConfig(shape=tiny_config().shape, hyper=hyper, seed=0,
                              round_timeout=5.0)
    rng = np.random.default_rng(4)
    shape = (config.shape.num_samples, config.shape.num_classes)
    projections = [rng.standard_normal(shape) for _ in range(2)]
    holder, received = run_scripted_session(pairs, config, projections, 1)
    assert "error" not in holder
    seeded = init_consensus(*shape, 0)
    zetas, eta = hyper.consensus_penalty, hyper.label_penalty
    uploads = [p + zeta / (1.0 + zeta + (eta if k == 1 else 0.0)) * (seeded - p)
               for k, (p, zeta) in enumerate(zip(projections, zetas))]

    def expected(owner):
        # Z* = sum_k zeta_k (Z_k - b_k Z_b) / sum_k zeta_k (1 - b_k)
        numerator, curvature = np.zeros(shape), 0.0
        for k, (upload, zeta) in enumerate(zip(uploads, zetas)):
            b_k = zeta / (1.0 + zeta + (eta if k == owner else 0.0))
            numerator += zeta * (upload - b_k * seeded)
            curvature += zeta * (1.0 - b_k)
        return numerator / curvature

    consensus = holder["result"].consensus
    assert np.max(np.abs(consensus - expected(1))) <= 1e-12
    # participant 0 taken as the owner gives a visibly different consensus
    assert np.max(np.abs(consensus - expected(0))) > 1e-3
    assert all(z.tobytes() == consensus.tobytes() for z in received.values())


# ---------------------------------------------------------------------------
# privacy audit


def run_small_session(dims=(3, 4, 5), seed=5, **hyper_kwargs):
    views, labels = tiny_problem(seed, dims=dims)
    hyper_kwargs.setdefault("outer_max", 8)
    hyper = Hyperparams.uniform(len(dims), sparsity=0.1, **hyper_kwargs)
    result = run_federated(views, labels, hyper, seed=seed)
    return views, labels, result


def test_audit_passes_on_a_clean_session():
    views, labels, result = run_small_session()
    report = audit_trace(result.trace, 12, 3)
    assert report.ok
    assert report.violations == []
    rounds = len(result.objectives)
    assert report.message_counts["Register"] == 3
    assert report.message_counts["ZkUpload"] == 3 * rounds
    assert report.message_counts["ZBroadcast"] == 3 * rounds  # incl. round 0
    assert report.message_counts["Converged"] == 3
    assert report.total_bytes == sum(entry.nbytes for entry in result.trace)
    assert report.total_bytes == sum(report.round_bytes.values())


def test_traced_sizes_match_the_actual_encoding(wire):
    _, _, result = run_small_session(dims=(3, 4))
    for entry in result.trace:
        rebuilt = RoundMessage(kind=entry.kind, round=entry.round,
                               participant_id=entry.participant_id,
                               payload=wire[entry.kind, entry.round, entry.participant_id].payload,
                               objective_part=entry.objective_part,
                               label_owner=entry.label_owner)
        assert entry.nbytes == frame_size(encode_body(rebuilt))


def test_audit_flags_a_transform_sized_payload():
    _, _, result = run_small_session(dims=(3, 4))
    tampered = list(result.trace) + [TracedMessage(
        direction="recv", kind="ZkUpload", round=1, participant_id=1,
        nbytes=123, payload_shape=(4, 3), objective_part=1.0)]
    report = audit_trace(tampered, 12, 3)
    assert not report.ok
    assert len(report.violations) == 1
    assert "(4, 3)" in report.violations[0]


@pytest.mark.parametrize("kind, direction, objective_part",
                         [("ZkUpload", "recv", 1.0), ("ZBroadcast", "sent", None)])
def test_audit_flags_a_feature_shaped_payload(kind, direction, objective_part):
    # participant 1's own view is 12 x 4: the protocol's row count, but
    # d_k = 4 columns where the protocol allows only c = 3
    views, _, result = run_small_session(dims=(3, 4))
    assert views[1].shape == (12, 4)
    tampered = list(result.trace) + [TracedMessage(
        direction=direction, kind=kind, round=1, participant_id=1,
        nbytes=30 + views[1].nbytes, payload_shape=views[1].shape,
        objective_part=objective_part)]
    report = audit_trace(tampered, 12, 3)
    assert not report.ok
    assert len(report.violations) == 1
    assert kind in report.violations[0] and "(12, 4)" in report.violations[0]


def test_audit_flags_other_schema_violations():
    base = dict(direction="recv", round=1, participant_id=0, nbytes=10)
    trace = [
        TracedMessage(kind="Gossip", **base),
        TracedMessage(kind="ZkUpload", payload_shape=None,
                      objective_part=1.0, **base),
        TracedMessage(kind="Register", payload_shape=(12, 3), **base),
        TracedMessage(kind="ZkUpload", payload_shape=(12, 3),
                      objective_part=None, **base),
    ]
    report = audit_trace(trace, 12, 3)
    assert len(report.violations) == 4


def test_no_local_matrix_ever_crosses_the_wire(wire):
    views, labels, result = run_small_session()
    n, num_classes = labels.shape
    protected_shapes = {v.shape for v in views}
    protected_shapes |= {(v.shape[1], num_classes) for v in views}
    for entry in result.trace:
        if entry.payload_shape is None:
            continue
        assert entry.payload_shape == (n, num_classes)
        assert entry.payload_shape not in protected_shapes or (n, num_classes) in protected_shapes
        payload = wire[entry.kind, entry.round, entry.participant_id].payload
        assert not np.array_equal(payload, labels)


def test_label_heavy_uploads_stay_close_but_unequal_to_labels(wire):
    views, labels = tiny_problem(7)
    hyper = Hyperparams.uniform(2, sparsity=0.1, consensus_penalty=1.0,
                                label_penalty=1e9, outer_max=3)
    result = run_federated(views, labels, hyper, seed=7)
    first_owner_upload = next(
        wire[entry.kind, entry.round, entry.participant_id].payload
        for entry in result.trace
        if entry.kind == "ZkUpload" and entry.participant_id == 0)
    gap = np.linalg.norm(first_owner_upload - labels) / np.linalg.norm(labels)
    assert gap < 1e-6
    assert not np.array_equal(first_owner_upload, labels)


def test_consensus_light_uploads_reduce_to_local_projections(wire):
    views, labels = tiny_problem(8)
    hyper = Hyperparams.uniform(2, sparsity=0.1, consensus_penalty=1e-12,
                                outer_max=3)
    result = run_federated(views, labels, hyper, seed=8)
    first_upload = next(
        wire[entry.kind, entry.round, entry.participant_id].payload
        for entry in result.trace
        if entry.kind == "ZkUpload" and entry.participant_id == 1)
    # shadow the non-owner's first round locally
    state = make_states(views, labels, hyper, 8)[1]
    consensus = init_consensus(12, 3, 8)
    participant_round(state, consensus, hyper)
    assert first_upload.tobytes() == state.pseudo_labels.tobytes()
    projected = state.features @ state.transform
    scale = max(1.0, float(np.linalg.norm(projected)))
    assert np.linalg.norm(first_upload - projected) <= 1e-10 * scale


def test_the_coordinator_reads_every_non_owner_projection_off_its_upload(wire):
    # what the shape audit does not show: a non-owner's upload is
    # Z_k = (X_k W_k + zeta_k Z_b) / (1 + zeta_k), and the coordinator
    # holds Z_b and zeta_k, so (1 + zeta_k) Z_k - zeta_k Z_b is X_k W_k
    views, labels = tiny_problem(9, dims=(3, 4, 5))
    hyper = Hyperparams(sparsity=(0.1,) * 3, consensus_penalty=(4.0, 0.5, 60.0),
                        label_penalty=20.0)
    result = run_federated(views, labels, hyper, seed=9)
    assert audit_trace(result.trace, 12, 3).ok
    last = len(result.objectives)
    for k in (1, 2):
        upload = wire["ZkUpload", last, k].payload
        answered = wire["ZBroadcast", last - 1, k].payload
        zeta = hyper.consensus_penalty[k]
        rebuilt = (1.0 + zeta) * upload - zeta * answered
        projected = views[k] @ result.states[k].transform
        assert np.linalg.norm(rebuilt - projected) <= 1e-12 * np.linalg.norm(projected)
