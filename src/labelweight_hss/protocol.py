"""Deterministic message-passing realization of a scheme run.

Actors: an input client (id 0), servers 1..s, and an output client
(id s+1).  The input client shares every secret and fans the per-server
fragments out as INPUT_SHARES frames; each server evaluates its output
polynomials and sends one OUTPUT_SHARES frame to the output client, which
merges them by server id (arrival order is irrelevant), reconstructs, and
emits a RESULT frame.  Channels are reliable, ordered and lossless;
actors run round-robin by id, so a fixed seed gives a byte-identical
transcript.

Wire frame layout (little-endian):

    version  1 byte   (0x01)
    kind     1 byte   (INPUT_SHARES=1, OUTPUT_SHARES=2, RESULT=3)
    sender   2 bytes
    receiver 2 bytes
    length   4 bytes  payload byte count
    payload  field elements, one byte each

Frames do not self-describe the field.  Every field fits a byte (the
package refuses q > 256), so a payload is the element codes themselves,
one bytes object, the frame body as it is.

Server j's INPUT_SHARES payload is its whole view laid end to end: the
share lists of the ell*m secrets' fragments in (instance, variable)
order, each one the C(s-1, t) shares y_T with j not in T, in
hss.held_subsets(s, t, j) order.  It is the dealer's view bytes
(hss.share_all_secrets), and the server evaluates the decoded payload as
it is (hss.eval_server checks it whole).  Server j's OUTPUT_SHARES
payload is the bytes eval_server returns, and the output client merges
the decoded payloads as they are (hss.collect_output_shares).

A transcript is its frames; the messages, the bytes per link and the
downloaded symbols are read from them.  The output client is the sender
of the last RESULT frame (none without one), and it downloads the
OUTPUT_SHARES payloads sent to it: one rule for a simulated run and a
replayed one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DecodeError, FieldTooLarge, ParameterOutOfRange
from .galois import first_outside, prime_power, require_table_order
from .hss import (
    HssScheme,
    collect_output_shares,
    eval_server,
    product_variables,
    reconstruct,
    share_all_secrets,
)

TRANSCRIPT_FORMAT_TAG = "labelweight-hss-transcript/v1"

WIRE_VERSION = 0x01
INPUT_SHARES = 1
OUTPUT_SHARES = 2
RESULT = 3
_KINDS = (INPUT_SHARES, OUTPUT_SHARES, RESULT)
_HEADER_LEN = 10  # 1 version + 1 kind + 2 sender + 2 receiver + 4 length


@dataclass(frozen=True)
class WireMessage:
    """One frame's content; the payload is the element codes as bytes."""

    kind: int
    sender: int
    receiver: int
    payload: bytes


def encode(message: WireMessage) -> bytes:
    """Frame a message; a bytes payload is the frame body as it is.  An
    element outside 0..255 raises OverflowError."""
    if message.kind not in _KINDS:
        raise ValueError(f"unknown message kind {message.kind}")
    try:
        body = bytes(message.payload)
    except ValueError as exc:
        raise OverflowError(f"payload element does not fit in 1 byte: {exc}") from None
    return (
        bytes((WIRE_VERSION, message.kind))
        + message.sender.to_bytes(2, "little")
        + message.receiver.to_bytes(2, "little")
        + len(body).to_bytes(4, "little")
        + body
    )


def decode(frame: bytes, q: int | None = None) -> WireMessage:
    """Parse a frame; any framing defect raises DecodeError.  The payload
    is the frame body, one bytes object.  Given q, an element outside
    0..q-1 raises DecodeError too (transcript_from_text passes it;
    simulate does not, see there)."""
    if len(frame) < _HEADER_LEN:
        raise DecodeError(f"frame too short: {len(frame)} bytes")
    if frame[0] != WIRE_VERSION:
        raise DecodeError(f"bad version byte {frame[0]:#x}")
    kind = frame[1]
    if kind not in _KINDS:
        raise DecodeError(f"bad message kind {kind}")
    sender = int.from_bytes(frame[2:4], "little")
    receiver = int.from_bytes(frame[4:6], "little")
    length = int.from_bytes(frame[6:10], "little")
    body = frame[_HEADER_LEN:]
    if len(body) != length:
        raise DecodeError(f"length field {length} != payload bytes {len(body)}")
    if q is not None and first_outside(body, q) is not None:
        raise DecodeError("payload element outside the field")
    return WireMessage(kind, sender, receiver, body)


@dataclass
class Transcript:
    """A run's frames in sending order, over GF(field_order); see the module docstring."""

    field_order: int
    frames: list[bytes] = field(default_factory=list)

    @property
    def messages(self) -> list[WireMessage]:
        return [decode(frame) for frame in self.frames]

    @property
    def link_bytes(self) -> dict[tuple[int, int], int]:
        totals: dict[tuple[int, int], int] = {}
        for message, frame in zip(self.messages, self.frames):
            key = (message.sender, message.receiver)
            totals[key] = totals.get(key, 0) + len(frame)
        return totals

    @property
    def downloaded_symbols(self) -> int:
        messages = self.messages
        client = next((m.sender for m in reversed(messages) if m.kind == RESULT), None)
        return sum(len(m.payload) for m in messages if m.kind == OUTPUT_SHARES and m.receiver == client)

    @property
    def download_cost_bits(self) -> float:
        """Information measure: downloaded symbols times log2(q)."""
        return self.downloaded_symbols * math.log2(self.field_order)

    def download_rate(self, ell: int) -> Fraction:
        return Fraction(ell, self.downloaded_symbols)


def simulate(
    scheme: HssScheme,
    secrets: Sequence[Sequence],
    seed: int,
    var_indices: tuple[int, ...] | None = None,
) -> tuple[Transcript, list[int]]:
    """Run the full protocol; returns (transcript, reconstructed outputs).

    Sharing consumes the seeded generator exactly as the monolithic driver
    does, so outputs match run_end_to_end(scheme, secrets, seed) exactly.
    Every payload makes a real encode/decode round trip.  Frames are
    decoded without q: the server's read of its view (eval_server) is the
    one length and range check of each INPUT_SHARES payload, and the
    other payloads are the package's own element codes.
    """
    params = scheme.params
    spec = params.spec
    chosen = product_variables(params, var_indices)
    output_client = params.s + 1
    transcript = Transcript(field_order=spec.q)

    def send(message: WireMessage) -> WireMessage:
        frame = encode(message)
        transcript.frames.append(frame)
        return decode(frame)

    # Input client (id 0): share everything, send each server its view.
    rng = random.Random(seed)
    _, views = share_all_secrets(params, secrets, rng)
    inboxes: dict[int, WireMessage] = {}
    for j in range(1, params.s + 1):
        # server j's fragments, laid end to end in (instance, variable) order
        inboxes[j] = send(WireMessage(INPUT_SHARES, 0, j, views[j]))

    # Servers 1..s in id order: evaluate each view as it came off the wire.
    received: dict[int, bytes] = {}
    for j in range(1, params.s + 1):
        z_j = eval_server(scheme, j, inboxes[j].payload, chosen)
        delivered = send(WireMessage(OUTPUT_SHARES, j, output_client, z_j))
        received[delivered.sender] = delivered.payload

    # Output client: merge by server id, reconstruct, announce.
    outputs = reconstruct(scheme, collect_output_shares(scheme, received))
    send(WireMessage(RESULT, output_client, 0, spec.codes(outputs)))
    return transcript, outputs


def transcript_to_text(transcript: Transcript) -> str:
    lines = [TRANSCRIPT_FORMAT_TAG, f"q {transcript.field_order}"]
    lines.extend(frame.hex() for frame in transcript.frames)
    return "\n".join(lines) + "\n"


def transcript_from_text(text: str) -> Transcript:
    """Rebuild a transcript from its hex dump (for replay / inspection):
    its frames, once each decodes over the field of the q line, a prime
    power up to 256; else DecodeError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != TRANSCRIPT_FORMAT_TAG:
        raise DecodeError(f"missing {TRANSCRIPT_FORMAT_TAG} header")
    if len(lines) < 2 or not lines[1].startswith("q "):
        raise DecodeError("missing field order line")
    try:
        q = int(lines[1][2:])
    except ValueError as exc:
        raise DecodeError(f"bad field order line {lines[1]!r}") from exc
    try:
        require_table_order(q)  # first, so prime_power never trial-divides a large q
        prime_power(q)
    except (FieldTooLarge, ParameterOutOfRange) as exc:
        raise DecodeError(str(exc)) from None
    try:
        frames = [bytes.fromhex(line) for line in lines[2:]]
    except ValueError as exc:
        raise DecodeError(f"bad hex frame: {exc}") from exc
    for frame in frames:
        decode(frame, q)
    return Transcript(q, frames)
