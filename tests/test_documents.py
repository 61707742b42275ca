"""Property tests for the code, scheme and transcript text documents.

Canonical documents round-trip byte for byte and parse back into the
synthesized key rows.  A document with one line mutated either
raises DecodeError, and no other error, or is itself the canonical
document of what it parses to; mutations that no valid scheme or code
can absorb must raise.  Transcripts round-trip frames, messages and byte
counts, which equal the ones the accumulating oracle replay counts, and
a mutated one raises only DecodeError or parses to a transcript whose
frames are the encodings of its messages and whose counts are the
oracle's.
"""

import functools
import random
import re

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelweight_hss.codes import code_from_text, code_to_text, goppa_build, rs_build
from labelweight_hss.errors import DecodeError
from labelweight_hss.hss import (
    run_end_to_end,
    scheme_for_code,
    scheme_from_text,
    scheme_to_text,
)
from labelweight_hss.protocol import encode, simulate, transcript_from_text, transcript_to_text

# (code family and arguments, t, d); the d >= 2 schemes have union groups
# of several rows
SCHEMES = [
    (("rs", 4, 4, 2), 1, 1),
    (("rs", 5, 5, 2), 1, 2),
    (("rs", 5, 5, 1), 2, 2),
    (("rs", 7, 6, 3), 1, 2),
    (("rs", 9, 5, 2), 1, 3),
    (("goppa", 3, 1), 1, 1),
    (("goppa", 3, 1), 1, 2),
]
JUNK = ("", "x", "#", "-", "1.5")
# header lines whose value no other valid value can replace: the code fixes
# them (t, d and m, which it does not, may name another scheme of the code)
FIXED_KEYS = {"s", "l", "code-lines", "n", "dim", "servers"}


@functools.cache
def scheme(case):
    (family, *args), t, d = case
    code = rs_build(*args) if family == "rs" else goppa_build(*args)
    return scheme_for_code(code, t=t, d=d)


@pytest.mark.parametrize("case", SCHEMES, ids=str)
def test_documents_round_trip(case):
    synthesized = scheme(case)
    code_doc = code_to_text(synthesized.code)
    assert code_to_text(code_from_text(code_doc)) == code_doc
    doc = scheme_to_text(synthesized)
    parsed = scheme_from_text(doc)
    assert scheme_to_text(parsed) == doc
    assert parsed.solutions == synthesized.solutions
    assert parsed.params == synthesized.params
    assert _same_scheme(scheme_from_text(doc.replace("\n", "\r\n")), synthesized)


def test_documents_over_a_field_above_256_are_refused():
    """A code document over GF(257), alone or in a scheme document, is
    refused by its field: DecodeError naming the limit.  The RS [5,2]
    generator reads the same over GF(251) and GF(257)."""
    code_doc = code_to_text(rs_build(251, 5, 2))
    scheme_doc = scheme_to_text(scheme_for_code(rs_build(251, 5, 2), t=1, d=2))
    for read, doc in ((code_from_text, code_doc), (scheme_from_text, scheme_doc)):
        assert read(doc) is not None
        with pytest.raises(DecodeError, match=r"field order 257 exceeds 256"):
            read(doc.replace("field GF(251^1)/", "field GF(257^1)/"))


@st.composite
def mutated(draw, lines):
    """One line of `lines` mutated: (document, whether it must be rejected)."""
    how = draw(st.sampled_from(["drop", "duplicate", "header", "garble"]))
    lines = list(lines)
    must = True
    if how == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif how == "duplicate":
        at = draw(st.integers(0, len(lines) - 1))
        lines.insert(at, lines[at])
    elif how == "header":
        at = draw(st.sampled_from([at for at, line in enumerate(lines) if line.partition(" ")[2].isdigit()]))
        key, value = lines[at].split(" ")
        lines[at] = f"{key} {draw(st.integers(0, int(value) + 3).filter(lambda v: v != int(value)))}"
        must = key in FIXED_KEYS
    else:
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n", must


def _check(parse, render, case):
    doc, must = case
    try:
        parsed = parse(doc)
    except DecodeError:
        return
    assert not must, "a mutation no valid document absorbs was accepted"
    assert render(parsed) == doc


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_mutated_scheme_document_raises_only_decode_error(data):
    synthesized = scheme(data.draw(st.sampled_from(SCHEMES)))
    lines = scheme_to_text(synthesized).splitlines()
    _check(scheme_from_text, scheme_to_text, data.draw(mutated(lines)))


def _same_scheme(got, want):
    return (got.solutions, got.params) == (want.solutions, want.params)


@pytest.mark.parametrize("case", SCHEMES, ids=str)
def test_both_readers_read_the_canonical_document_as_synthesized(case):
    """The one reader left, by synthesis, reads the synthesized scheme."""
    synthesized = scheme(case)
    assert _same_scheme(scheme_from_text(scheme_to_text(synthesized)), synthesized)


@pytest.mark.parametrize("count", [-1, -100, 10**6, 2**63])
def test_scheme_document_with_a_negative_or_oversized_code_line_count_is_rejected(count):
    lines = scheme_to_text(scheme((("rs", 5, 5, 2), 1, 2))).splitlines()
    lines[6] = f"code-lines {count}"
    with pytest.raises(DecodeError):
        scheme_from_text("\n".join(lines) + "\n")


def test_scheme_document_reads_back_under_any_budget_that_fits_its_monomials(monkeypatch):
    # 7^3 = 343 messages of the code exceed a budget of 100, the 18 monomials fit it
    monkeypatch.setenv("HSS_ENUM_BUDGET", "100")
    written = scheme_for_code(rs_build(7, 6, 3), t=1, d=1)
    assert run_end_to_end(written, [[1], [2], [3]], seed=0).ok
    doc = scheme_to_text(written)
    monkeypatch.delenv("HSS_ENUM_BUDGET")
    assert _same_scheme(scheme_from_text(doc), written)
    assert scheme_to_text(scheme_for_code(rs_build(7, 6, 3), t=1, d=1)) == doc


def test_v1_scheme_document_is_refused_by_its_tag():
    """A v1 document: the v1 tag, and line 7 the labelweight-verified flag."""
    lines = scheme_to_text(scheme((("rs", 5, 5, 2), 1, 2))).splitlines()
    v1 = ["labelweight-hss-scheme/v1", *lines[1:6], "labelweight-verified 1", *lines[6:]]
    with pytest.raises(DecodeError, match="^missing labelweight-hss-scheme/v3 header$"):
        scheme_from_text("\n".join(v1) + "\n")


# the v2 document of RS [4,2] over GF(4) with t=1, d=1: the tag, the
# header and the code document, then one eval row per nonzero Eval
# coefficient (coordinate, instance, subset combo, coefficient)
V2_DOCUMENT = """\
labelweight-hss-scheme/v2
s 4
t 1
d 1
l 2
m 1
code-lines 8
labelweight-code/v1
field GF(2^2)/modulus=[1,1,1]
n 4
dim 2
servers 4
labeling 1,2,3,4
row 1,1,1,1
row 0,1,2,3
eval 0 1 2 1
eval 0 1 3 1
eval 0 1 4 1
eval 0 2 2 3
eval 0 2 3 1
eval 0 2 4 1
eval 1 1 1 3
eval 1 2 1 2
eval 1 2 3 1
eval 1 2 4 1
eval 2 1 1 2
eval 2 2 1 2
eval 2 2 2 3
"""


def test_v3_document_is_the_head_of_the_v2_document_under_the_v3_tag():
    v2 = V2_DOCUMENT.splitlines()
    assert scheme_to_text(scheme((("rs", 4, 4, 2), 1, 1))).splitlines() == ["labelweight-hss-scheme/v3", *v2[1:15]]


def test_v2_scheme_document_is_refused_by_its_tag():
    with pytest.raises(DecodeError, match="^missing labelweight-hss-scheme/v3 header$"):
        scheme_from_text(V2_DOCUMENT)


@pytest.mark.parametrize("extra", ["eval 0 1 2 1", "", "row 0,1,2,3", "labelweight-hss-scheme/v3"])
def test_a_line_after_the_code_document_is_rejected_by_name(extra):
    """No line follows the code document, a v2 eval row least of all: the
    first one is named by its number, with the line the document ends at."""
    doc = scheme_to_text(scheme((("rs", 4, 4, 2), 1, 1)))
    end = "is past the end of the scheme document, which ends at line 15$"
    with pytest.raises(DecodeError, match=f"^line 16: {re.escape(repr(extra))} {end}"):
        scheme_from_text(doc + extra + "\n")
    v2_rows_under_v3_tag = V2_DOCUMENT.replace("/v2\n", "/v3\n", 1)
    with pytest.raises(DecodeError, match=f"^line 16: 'eval 0 1 2 1' {end}"):
        scheme_from_text(v2_rows_under_v3_tag)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_mutated_code_document_raises_only_decode_error(data):
    code = scheme(data.draw(st.sampled_from(SCHEMES))).code
    lines = code_to_text(code).splitlines()
    _check(code_from_text, code_to_text, data.draw(mutated(lines)))


# -- transcripts ------------------------------------------------------------------

# (code family and arguments, t, d, m): Goppa [16,8] with 16 INPUT_SHARES
# frames of 43,680 shares, the same code with t=1 d=3, and RS [5,2] over GF(5)
TRANSCRIPTS = {
    "goppa-wire": (("goppa", 4, 2), 4, 1, 4),
    "goppa": (("goppa", 4, 2), 1, 3, 3),
    "rs5": (("rs", 5, 5, 2), 1, 2, 3),
}


@functools.cache
def transcript(name):
    (family, *args), t, d, m = TRANSCRIPTS[name]
    synthesized = scheme_for_code(rs_build(*args) if family == "rs" else goppa_build(*args), t=t, d=d, m=m)
    params, rng = synthesized.params, random.Random(name)
    secrets = [[rng.randrange(params.spec.q) for _ in range(params.m)] for _ in range(params.ell)]
    return simulate(synthesized, secrets, seed=8)[0]


@functools.cache
def transcript_lines(name):
    return tuple(transcript_to_text(transcript(name)).splitlines())


def _fields(t):
    return t.field_order, t.frames, t.messages, t.link_bytes, t.downloaded_symbols


def _replayed(t):
    """The fields of the accumulating transcript that replays t's frames."""
    return _fields(oracles.replay(t.field_order, t.frames))


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_round_trips(name):
    original = transcript(name)
    doc = transcript_to_text(original)
    parsed = transcript_from_text(doc)
    assert _fields(parsed) == _fields(original)
    assert transcript_to_text(parsed) == doc


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_views_are_the_accumulated_ones(name):
    """Messages, link bytes and downloads read from the frames equal what
    the oracle accumulated frame by frame, for a run and its replay."""
    parsed = transcript_from_text(transcript_to_text(transcript(name)))
    assert _fields(transcript(name)) == _fields(parsed) == _replayed(parsed)


@st.composite
def mutated_transcript(draw, lines):
    """One line of a transcript document mutated: (document, whether it must be rejected)."""
    how = draw(st.sampled_from(["drop", "duplicate", "digit", "truncate", "junk", "q"]))
    lines = list(lines)
    frames = range(2, len(lines))
    if how in ("drop", "duplicate"):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at : at + 1] = [] if how == "drop" else [lines[at]] * 2
        must = at < 2  # the tag and q lines lead the document, once each
    elif how == "digit":
        at = draw(st.sampled_from(frames))
        pos = draw(st.integers(0, len(lines[at]) - 1))
        digit = draw(st.sampled_from("0123456789abcdef").filter(lambda c: c != lines[at][pos]))
        lines[at] = lines[at][:pos] + digit + lines[at][pos + 1 :]
        must = False
    elif how == "truncate":
        at = draw(st.sampled_from(frames))
        lines[at] = lines[at][:-1]
        must = True  # an odd number of hex digits
    elif how == "junk":
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from(JUNK))
        must = bool(lines[at]) or at < 2  # blank lines are skipped
    else:
        at = 1
        q = draw(st.integers(-3, 70_000))
        lines[at] = f"q {q}"
        must = not 2 <= q <= 256  # past 256 no field fits a byte
    return "\n".join(lines) + "\n", must


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_mutated_transcript_raises_only_decode_error(data):
    # the 1.4 MB goppa-wire document costs about 50 ms an example, so only its round trip is tested
    doc, must = data.draw(mutated_transcript(transcript_lines(data.draw(st.sampled_from(["goppa", "rs5"])))))
    try:
        parsed = transcript_from_text(doc)
    except DecodeError:
        return
    assert not must, "a mutation no transcript absorbs was accepted"
    q = parsed.field_order
    assert 2 <= q <= 256
    assert list(map(encode, parsed.messages)) == parsed.frames
    assert sum(parsed.link_bytes.values()) == sum(map(len, parsed.frames))
    assert _fields(parsed) == _replayed(parsed)
    assert _fields(transcript_from_text(transcript_to_text(parsed))) == _fields(parsed)
