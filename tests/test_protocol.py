import math
import random
import sys
from fractions import Fraction

import pytest

from labelweight_hss import protocol
from labelweight_hss.codes import LabeledCode, Labeling, goppa_build, hermitian_build, rs_build
from labelweight_hss.errors import DecodeError, ParameterOutOfRange
from labelweight_hss.galois import FieldSpec, first_outside
from labelweight_hss.hss import run_end_to_end, scheme_for_code, scheme_rate
from labelweight_hss.matrix import MatrixF
from labelweight_hss.protocol import (
    INPUT_SHARES,
    OUTPUT_SHARES,
    RESULT,
    Transcript,
    WireMessage,
    decode,
    encode,
    simulate,
    transcript_from_text,
    transcript_to_text,
)

GF2 = FieldSpec(2)
GF4 = FieldSpec(2, 2)
GF5 = FieldSpec(5)


def repetition_scheme():
    code = LabeledCode(GF2, MatrixF(GF2, [[1, 1]]), Labeling.identity(2))
    return scheme_for_code(code, t=1, d=1, m=1)


# -- codec ----------------------------------------------------------------------


def test_empty_result_frame_is_header_only():
    frame = encode(WireMessage(RESULT, 3, 0, b""))
    assert len(frame) == 10  # 1 version + 1 kind + 2 sender + 2 receiver + 4 length


def test_f2_element_single_byte():
    frame = encode(WireMessage(OUTPUT_SHARES, 1, 3, GF2.codes([1])))
    assert frame[-1:] == b"\x01"


def test_gf4_element_bit_packing():
    # coefficients (1, 1) pack low-to-high into 0b11
    value = GF4.encode([1, 1])
    assert value == 3
    frame = encode(WireMessage(OUTPUT_SHARES, 1, 3, GF4.codes([value])))
    assert frame[-1:] == b"\x03"


def test_roundtrip_fuzz_10k():
    rng = random.Random(77)
    for _ in range(10_000):
        kind = rng.choice([INPUT_SHARES, OUTPUT_SHARES, RESULT])
        sender = rng.randrange(2**16)
        receiver = rng.randrange(2**16)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20)))
        message = WireMessage(kind, sender, receiver, payload)
        assert decode(encode(message)) == message


def test_decode_rejects_any_one_byte_truncation():
    message = WireMessage(INPUT_SHARES, 0, 2, bytes((1, 0, 1)))
    frame = encode(message)
    for cut in range(1, len(frame) + 1):
        with pytest.raises(DecodeError):
            decode(frame[:-cut])


def test_decode_rejects_bad_version_and_kind():
    frame = bytearray(encode(WireMessage(RESULT, 1, 0, b"\x01")))
    bad_version = bytes([0x02]) + bytes(frame[1:])
    with pytest.raises(DecodeError):
        decode(bad_version)
    bad_kind = bytes([frame[0], 9]) + bytes(frame[2:])
    with pytest.raises(DecodeError):
        decode(bad_kind)


def test_decode_rejects_a_length_mismatch_and_field_overflow():
    frame = encode(WireMessage(RESULT, 1, 0, bytes((1, 2, 3))))
    assert decode(frame, q=4).payload == bytes((1, 2, 3))
    with pytest.raises(DecodeError, match=r"^length field 3 != payload bytes 4$"):
        decode(frame + b"\x00")
    with pytest.raises(DecodeError, match=r"^payload element outside the field$"):
        decode(frame, q=2)


# -- simulation ------------------------------------------------------------------


def test_repetition_transcript_shape():
    scheme = repetition_scheme()
    transcript, outputs = simulate(scheme, [[1]], seed=0)
    kinds = [m.kind for m in transcript.messages]
    assert kinds == [INPUT_SHARES, INPUT_SHARES, OUTPUT_SHARES, OUTPUT_SHARES, RESULT]
    out_shares = [m for m in transcript.messages if m.kind == OUTPUT_SHARES]
    assert all(len(m.payload) == 1 for m in out_shares)
    assert transcript.downloaded_symbols == 2
    assert transcript.download_cost_bits == 2.0  # 2 symbols of log2(2) bits
    assert outputs == [1]


def test_simulation_matches_monolith_50_seeds():
    for code, t, d in [(goppa_build(3, 1), 1, 1), (rs_build(5, 5, 2), 1, 2)]:
        scheme = scheme_for_code(code, t=t, d=d)
        rng = random.Random(5)
        q = scheme.params.spec.q
        for trial in range(50):
            secrets = [
                [rng.randrange(q) for _ in range(scheme.params.m)]
                for _ in range(scheme.params.ell)
            ]
            _, sim_outputs = simulate(scheme, secrets, seed=trial)
            mono = run_end_to_end(scheme, secrets, seed=trial)
            assert sim_outputs == mono.outputs
            assert mono.ok


def test_simulate_rejects_secrets_outside_the_field():
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2, m=3)
    with pytest.raises(ParameterOutOfRange, match=r"secret \(1, 1\) value 7 is outside 0\.\.4 \(q=5\)"):
        simulate(scheme, [[7, 1, 1], [1, 1, 1]], seed=3)
    with pytest.raises(ParameterOutOfRange, match=r"secret \(1, 2\) value 1\.5 is not an integer in 0\.\.4 \(q=5\)"):
        simulate(scheme, [[1, 1.5, 1], [1, 1, 1]], seed=3)
    _, outputs = simulate(scheme, [[4, 2, True], [1, 1, 1]], seed=3)
    assert outputs == [3, 1]


def test_servers_read_their_payload_slices_without_dicts(monkeypatch):
    """Every view a server evaluates is its decoded payload, one bytes
    object, which eval_server slices and never looks up by key."""
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2, m=3)
    seen = []

    def recording(scheme, j, views, var_indices=None):
        seen.append((j, views))
        return evaluate(scheme, j, views, var_indices)

    evaluate = protocol.eval_server
    monkeypatch.setattr(protocol, "eval_server", recording)
    transcript, _ = simulate(scheme, [[1, 2, 3], [4, 0, 1]], seed=6)
    assert [j for j, _ in seen] == [1, 2, 3, 4, 5]
    for (j, view), message in zip(seen, transcript.messages):
        assert type(view) is bytes and view == message.payload and message.receiver == j


def test_hermitian_measured_download_rate():
    scheme = scheme_for_code(hermitian_build(2, 5), t=1, d=2)
    transcript, _ = simulate(scheme, [[1, 1]] * 5, seed=1)
    assert transcript.download_rate(scheme.params.ell) == Fraction(5, 8)
    assert transcript.download_rate(scheme.params.ell) == scheme_rate(scheme)
    # measured bits: n symbols of log2(4) bits
    assert transcript.download_cost_bits == pytest.approx(8 * math.log2(4))


def test_download_rate_inverse_relation():
    scheme = scheme_for_code(goppa_build(4, 2), t=1, d=2)
    transcript, _ = simulate(scheme, [[1, 1]] * 8, seed=2)
    ell = scheme.params.ell
    ratio = transcript.download_cost_bits / (ell * math.log2(scheme.params.spec.q))
    assert ratio == pytest.approx(1 / float(scheme_rate(scheme)))


def test_transcript_dump_roundtrip():
    scheme = repetition_scheme()
    transcript, _ = simulate(scheme, [[1]], seed=3)
    text = transcript_to_text(transcript)
    parsed = transcript_from_text(text)
    assert parsed.frames == transcript.frames
    assert parsed.downloaded_symbols == transcript.downloaded_symbols
    assert transcript_to_text(parsed) == text


def test_transcript_text_rejects_garbage():
    with pytest.raises(DecodeError):
        transcript_from_text("nope\n")
    scheme = repetition_scheme()
    transcript, _ = simulate(scheme, [[1]], seed=3)
    text = transcript_to_text(transcript)
    lines = text.splitlines()
    lines[2] = lines[2][:-2]  # truncate one byte from the first frame
    with pytest.raises(DecodeError):
        transcript_from_text("\n".join(lines) + "\n")


def test_transcript_text_decodes_each_frame_once(monkeypatch):
    import labelweight_hss.protocol as protocol

    transcript, _ = simulate(repetition_scheme(), [[1]], seed=3)
    text = transcript_to_text(transcript)
    calls = []

    def counting(frame, q=None):
        calls.append(frame)
        return decode(frame, q)

    monkeypatch.setattr(protocol, "decode", counting)
    parsed = transcript_from_text(text)
    assert calls == transcript.frames
    assert parsed.messages == transcript.messages
    assert parsed.link_bytes == transcript.link_bytes


def test_transcript_text_rejects_an_element_outside_the_field():
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2)
    transcript, _ = simulate(scheme, [[2, 3], [4, 1]], seed=9)
    lines = transcript_to_text(transcript).splitlines()
    assert decode(bytes.fromhex(lines[2])).kind == INPUT_SHARES
    lines[2] = lines[2][:-2] + "05"  # the last share of server 1 becomes 5, outside GF(5)
    with pytest.raises(DecodeError, match=r"^payload element outside the field$"):
        transcript_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("q", [5, 251])
def test_simulate_range_checks_each_input_payload_once(monkeypatch, q):
    """The one check of an INPUT_SHARES payload is the server's read of
    its view: decode leaves it alone, and eval_server checks it once."""
    scheme = scheme_for_code(rs_build(q, 5, 2), t=1, d=2, m=3)
    checked, decoded = [], {}

    def counting(values, q):
        checked.append(tuple(values))
        return first_outside(values, q)

    def recording(frame, q=None):
        message = decode(frame, q)
        if message.kind == INPUT_SHARES:
            decoded[message.receiver] = tuple(message.payload)
        return message

    for name, module in list(sys.modules.items()):
        if name.startswith("labelweight_hss") and hasattr(module, "first_outside"):
            monkeypatch.setattr(module, "first_outside", counting)
    monkeypatch.setattr(protocol, "decode", recording)
    simulate(scheme, [[1, 2, 3], [4, 0, 1]], seed=5)
    assert sorted(decoded) == list(range(1, 6))
    assert [checked.count(payload) for payload in decoded.values()] == [1] * 5


def test_identical_seed_identical_transcript():
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2)
    t1, o1 = simulate(scheme, [[2, 3], [4, 1]], seed=9)
    t2, o2 = simulate(scheme, [[2, 3], [4, 1]], seed=9)
    assert o1 == o2
    assert t1.frames == t2.frames
