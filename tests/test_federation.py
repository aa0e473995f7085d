"""Wire protocol, transports, coordinator behavior, and the privacy audit."""

import base64
import json
import threading
import time

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
    InProcessChannel,
    MessageChannel,
    ProtocolError,
    RoundMessage,
    RoundTimeoutError,
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
from mmvfl.federation.session import _tcp_channel_pairs
from mmvfl.optimizer import (
    Hyperparams,
    ProblemShape,
    init_consensus,
    init_participant_state,
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
                         num_samples=num_samples, dims=tuple(dims))
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
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def matrix_body(payload):
    return json.dumps({"kind": "ZkUpload", "round": 1, "participant_id": 0,
                       "payload": payload, "objective_part": 1.0}).encode("utf-8")


def test_payload_is_one_little_endian_block():
    payload = np.array([[1.5, -0.0, 3.0], [2.0 ** -1074, -7.25, 1e300]])
    body = encode_body(RoundMessage(kind="ZBroadcast", round=2, participant_id=1,
                                    payload=payload))
    assert json.loads(body)["payload"] == {"rows": 2, "cols": 3,
                                           "f8le": f8le(payload.ravel())}
    decoded = decode_body(body).payload
    assert decoded.tobytes() == payload.tobytes()
    assert decoded.dtype == np.float64 and decoded.dtype.isnative
    assert decoded.flags.c_contiguous and decoded.flags.writeable


def test_decode_rejects_malformed_bodies():
    good = encode_body(RoundMessage(kind="Register", round=0, participant_id=0))
    decode_body(good)  # sanity
    bad_bodies = [
        b"not json",
        b"[1,2,3]",
        b'{"kind":"Register","round":0,"participant_id":0,"payload":null}',
        good[:-1] + b',"extra":1}',
        b'{"kind":"Gossip","round":0,"participant_id":0,"payload":null,"objective_part":null}',
        b'{"kind":"Register","round":true,"participant_id":0,"payload":null,"objective_part":null}',
        b'{"kind":"Register","round":0.5,"participant_id":0,"payload":null,"objective_part":null}',
        b'{"kind":"Register","round":0,"participant_id":"0","payload":null,"objective_part":null}',
        b'{"kind":"Register","round":0,"participant_id":0,"payload":[1,2],"objective_part":null}',
        b'{"kind":"Register","round":0,"participant_id":0,"payload":[[]],"objective_part":null}',
        b'{"kind":"Register","round":0,"participant_id":0,"payload":[[1],[2,3]],"objective_part":null}',
        b'{"kind":"Register","round":0,"participant_id":0,"payload":null,"objective_part":"x"}',
        b'{"kind":"Register","round":0,"participant_id":0,"payload":null,"objective_part":true}',
        b"\xff\xfe",
        b"[" * 100000,
        b'{"kind":"Register","round":0,"participant_id":0,"payload":null,"objective_part":'
        + b"1" * 400 + b"}",
        b'{"kind":"Register","round":' + b"1" * 5000
        + b',"participant_id":0,"payload":null,"objective_part":null}',
        matrix_body({"rows": 2, "cols": 2, "f8le": "not base64!"}),
        matrix_body({"rows": 2, "cols": 2, "f8le": f8le([1.0, 2.0, 3.0])}),
        matrix_body({"rows": 3, "cols": 2, "f8le": f8le([1.0, 2.0, 3.0, 4.0])}),
        matrix_body({"rows": 0, "cols": 2, "f8le": ""}),
        matrix_body({"rows": 2, "cols": 0, "f8le": ""}),
        matrix_body({"rows": True, "cols": 1, "f8le": f8le([1.0])}),
        matrix_body({"rows": 1.0, "cols": 1, "f8le": f8le([1.0])}),
        matrix_body({"rows": 1, "cols": 1, "f8le": f8le([1.0]), "extra": 1}),
        matrix_body({"rows": 1, "f8le": f8le([1.0])}),
        matrix_body({"rows": 1, "cols": 1, "f8le": 5}),
        matrix_body({"rows": 1, "cols": 2, "f8le": f8le([1.0, np.nan])}),
        matrix_body({"rows": 1, "cols": 1, "f8le": f8le([-np.inf])}),
    ]
    for body in bad_bodies:
        with pytest.raises(ProtocolError):
            decode_body(body)


_GOOD_BODY = encode_body(RoundMessage(kind="ZkUpload", round=1, participant_id=0,
                                      payload=np.ones((2, 2)), objective_part=1.0))


@st.composite
def mutated_good_bodies(draw):
    start = draw(st.integers(0, len(_GOOD_BODY)))
    cut = draw(st.integers(0, 8))
    return _GOOD_BODY[:start] + draw(st.binary(max_size=8)) + _GOOD_BODY[start + cut:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=512), mutated_good_bodies()))
def test_decode_arbitrary_bytes_raises_only_protocol_error(body):
    try:
        message = decode_body(body)
    except ProtocolError:
        return
    assert isinstance(message, RoundMessage)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                np.finfo(np.float64).max, -np.finfo(np.float64).max]
_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


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


def test_in_process_channel_fifo_close_timeout():
    a, b = InProcessChannel.pair()
    a.send_bytes(b"one")
    a.send_bytes(b"two")
    assert b.recv_bytes(timeout=1.0) == b"one"
    assert b.recv_bytes(timeout=1.0) == b"two"
    with pytest.raises(ChannelTimeoutError):
        b.recv_bytes(timeout=0.05)
    a.close()
    with pytest.raises(ChannelClosedError):
        b.recv_bytes(timeout=1.0)
    with pytest.raises(ChannelClosedError):
        b.recv_bytes(timeout=1.0)  # marker stays visible
    with pytest.raises(ChannelClosedError):
        a.send_bytes(b"three")


def test_tcp_channel_framing_and_errors():
    (server,), (client,) = _tcp_channel_pairs(1, 0, timeout=5.0)
    try:
        client.send_bytes(b"hello")
        client.send_bytes(b"x" * 70000)  # spans several segments
        assert server.recv_bytes(timeout=2.0) == b"hello"
        assert server.recv_bytes(timeout=2.0) == b"x" * 70000
        with pytest.raises(ChannelTimeoutError):
            server.recv_bytes(timeout=0.05)
        client.close()
        with pytest.raises(ChannelClosedError):
            server.recv_bytes(timeout=2.0)
    finally:
        server.close()
        client.close()


def test_tcp_send_enforces_frame_limit(monkeypatch):
    monkeypatch.setattr(messages_module, "MAX_BODY_BYTES", 10)
    (server,), (client,) = _tcp_channel_pairs(1, 0, timeout=5.0)
    try:
        with pytest.raises(ProtocolError):
            client.send_bytes(b"x" * 11)
        client.send_bytes(b"x" * 10)
        assert server.recv_bytes(timeout=2.0) == b"x" * 10
    finally:
        server.close()
        client.close()


def test_message_channel_reports_framed_sizes():
    a, b = InProcessChannel.pair()
    sender, receiver = MessageChannel(a), MessageChannel(b)
    message = RoundMessage(kind="ZBroadcast", round=1, participant_id=0,
                           payload=np.ones((2, 2)))
    sent = sender.send(message)
    received, got = receiver.recv(timeout=1.0)
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
    assert federated.objectives == reference.objectives
    assert federated.consensus.tobytes() == reference.consensus.tobytes()
    for state, transform, pseudo in zip(federated.states, reference.transforms,
                                        reference.pseudo_labels):
        assert state.transform.tobytes() == transform.tobytes()
        assert state.pseudo_labels.tobytes() == pseudo.tobytes()


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
                              objective_part=1.0 if owner else 0.0))


def test_duplicate_registration_aborts_session():
    config = tiny_config()
    pairs = [InProcessChannel.pair() for _ in range(2)]
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    sides = [MessageChannel(b) for _, b in pairs]
    register(sides[0], 0, owner=True)
    register(sides[1], 0)  # same id again
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert isinstance(holder.get("error"), FederationAbortError)
    assert "duplicate" in str(holder["error"])
    # the well-behaved channel was told the session died
    message, _ = sides[0].recv(timeout=1.0)
    assert message.kind == "Abort"


def test_two_label_owners_abort_session():
    config = tiny_config()
    pairs = [InProcessChannel.pair() for _ in range(2)]
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    sides = [MessageChannel(b) for _, b in pairs]
    register(sides[0], 0, owner=True)
    register(sides[1], 1, owner=True)
    thread.join(timeout=10.0)
    assert isinstance(holder.get("error"), FederationAbortError)
    assert "label owner" in str(holder["error"])


def test_round_timeout_names_the_silent_participant():
    config = tiny_config(outer_max=3)
    config = FederationConfig(shape=config.shape, hyper=config.hyper, seed=0,
                              round_timeout=0.2)
    pairs = [InProcessChannel.pair() for _ in range(2)]
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    sides = [MessageChannel(b) for _, b in pairs]
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


def test_registration_timeout_names_the_channel():
    config = FederationConfig(shape=tiny_config().shape,
                              hyper=tiny_config().hyper, seed=0,
                              round_timeout=0.2)
    pairs = [InProcessChannel.pair() for _ in range(2)]
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    register(MessageChannel(pairs[0][1]), 0, owner=True)
    # second channel stays completely silent
    thread.join(timeout=10.0)
    error = holder.get("error")
    assert isinstance(error, RoundTimeoutError)
    assert "unregistered channel 1" in str(error)


def scripted_participant(side, pid, owner, payload, delay=0.0):
    """Minimal hand-rolled participant that converges immediately."""
    register(side, pid, owner=owner)
    message, _ = side.recv(timeout=5.0)
    assert message.kind == "ZBroadcast"
    round_index = 0
    while True:
        round_index += 1
        if delay:
            time.sleep(delay)
        side.send(RoundMessage(kind="ZkUpload", round=round_index,
                               participant_id=pid, payload=payload,
                               objective_part=1.0))
        message, _ = side.recv(timeout=5.0)
        if message.kind == "Converged":
            return


def test_slow_but_alive_participant_completes():
    config = FederationConfig(shape=tiny_config().shape,
                              hyper=tiny_config().hyper, seed=0,
                              round_timeout=1.0)
    pairs = [InProcessChannel.pair() for _ in range(2)]
    thread, holder = start_coordinator(config, [a for a, _ in pairs])
    payload = np.ones((config.shape.num_samples, config.shape.num_classes))
    sides = [MessageChannel(b) for _, b in pairs]
    runners = [
        threading.Thread(target=scripted_participant,
                         args=(sides[0], 0, True, payload, 0.3), daemon=True),
        threading.Thread(target=scripted_participant,
                         args=(sides[1], 1, False, payload, 0.0), daemon=True),
    ]
    for runner in runners:
        runner.start()
    thread.join(timeout=30.0)
    for runner in runners:
        runner.join(timeout=5.0)
    assert "error" not in holder
    # constant uploads converge on the second round
    assert len(holder["result"].objectives) == 2


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
                               objective_part=entry.objective_part)
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
    state = init_participant_state(1, views[1], hyper, 3, 8)
    consensus = init_consensus(12, 3, 8)
    participant_round(state, consensus, hyper)
    assert first_upload.tobytes() == state.pseudo_labels.tobytes()
    projected = state.features @ state.transform
    scale = max(1.0, float(np.linalg.norm(projected)))
    assert np.linalg.norm(first_upload - projected) <= 1e-10 * scale
