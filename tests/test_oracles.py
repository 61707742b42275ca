"""Table-driven field arithmetic, the Hermitian and Goppa bases,
elimination, synthesis and server evaluation, and the byte-level sharing
and wire path, against the per-element reference code in ``oracles``."""

import copy
import functools
import hashlib
import itertools
import random
import re
from collections.abc import Mapping

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from labelweight_hss import hss, matrix, protocol
from labelweight_hss.codes import LabeledCode, Labeling, code_to_text, goppa_build, hermitian_build, rs_build
from labelweight_hss.errors import (
    DecodeError,
    FieldMismatch,
    FieldTooLarge,
    InsufficientLabelweight,
    MissingShare,
    ParameterOutOfRange,
)
from labelweight_hss.galois import MAX_TABLE_ORDER, FieldSpec, Polynomial
from labelweight_hss.matrix import MatrixF, kernel_basis, rref, solve_many

TABLE_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                (7, 2), (2, 6), (3, 4), (5, 3), (3, 5), (2, 8)]


@pytest.mark.parametrize("p,k", TABLE_ORDERS, ids=lambda v: str(v))
def test_field_tables_match_digit_loops(p, k):
    spec = FieldSpec(p, k)
    q = spec.q
    tables = spec.tables()
    assert spec.add_table is tables.add
    assert tables.mul == spec.mul_table
    assert list(tables.neg) == [oracles.neg(spec, a) for a in range(q)]
    assert [spec.neg(a) for a in range(q)] == list(tables.neg)
    want_add = [oracles.add(spec, a, b) for a in range(q) for b in range(q)]
    want_sub = [oracles.sub(spec, a, b) for a in range(q) for b in range(q)]
    assert list(tables.add) == want_add
    assert list(tables.sub) == want_sub
    assert [spec.add(a, b) for a in range(q) for b in range(q)] == want_add
    assert [spec.sub(a, b) for a in range(q) for b in range(q)] == want_sub
    assert len(tables.inv) == q
    assert [tables.mul[a * q + tables.inv[a]] for a in range(1, q)] == [1] * (q - 1)
    assert [spec.inv(a) for a in range(1, q)] == list(tables.inv[1:])


# every field of order at most 256 under its default modulus
DEFAULT_TABLE_FIELDS = [(p, k) for p in range(2, 257) if all(p % f for f in range(2, p)) for k in range(1, 9) if p**k <= 256]
# x^8 + x^4 + x^3 + x^2 + 1, not the default modulus of GF(2^8)
OTHER_MODULUS = (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))


@pytest.mark.parametrize("p,k,modulus", [(p, k, None) for p, k in DEFAULT_TABLE_FIELDS] + [OTHER_MODULUS], ids=str)
def test_field_tables_match_entry_by_entry_build(p, k, modulus):
    spec = FieldSpec(p, k, modulus)
    assert spec.tables() == oracles.field_tables(FieldSpec(p, k, modulus))


def test_field_tables_are_shared_by_every_spec_of_a_field():
    first, second, other = FieldSpec(2, 8), FieldSpec(2, 8), FieldSpec(*OTHER_MODULUS)
    assert first is not second and first.tables() is second.tables()
    assert other.modulus != first.modulus and other.tables().mul != first.tables().mul


@pytest.mark.parametrize("p,k", [(3, 6), (2, 9), (17, 2)])
def test_large_field_products_match_the_schoolbook_oracle(p, k):
    """Above 256, products are Polynomial products reduced by the modulus."""
    spec = FieldSpec(p, k)
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        assert spec.mul(a, b) == oracles.mul(spec, a, b)
        if a:
            assert oracles.mul(spec, a, spec.inv(a)) == 1


def test_large_field_falls_back_to_digit_loops():
    spec = FieldSpec(3, 6)  # q = 729, no tables
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        assert spec.add(a, b) == oracles.add(spec, a, b)
        assert spec.sub(a, b) == oracles.sub(spec, a, b)
        assert spec.neg(a) == oracles.neg(spec, a)
    with pytest.raises(FieldTooLarge, match="729"):
        spec.tables()


def test_large_field_digit_arithmetic_matches_the_digit_loops_on_every_pair_of_gf17_2():
    """Above 256, add and neg work on coeffs/encode; GF(17^2), q = 289,
    is the smallest such field with odd p and k > 1, small enough to check
    whole."""
    spec = FieldSpec(17, 2)
    q = spec.q
    assert [spec.neg(a) for a in range(q)] == [oracles.neg(spec, a) for a in range(q)]
    assert [spec.add(a, b) for a in range(q) for b in range(q)] == [oracles.add(spec, a, b) for a in range(q) for b in range(q)]
    assert [spec.sub(a, b) for a in range(q) for b in range(q)] == [oracles.sub(spec, a, b) for a in range(q) for b in range(q)]


@pytest.mark.parametrize("p,k", [(3, 6), (2, 9)])
def test_large_field_digit_arithmetic_matches_the_digit_loops_on_random_pairs(p, k):
    spec = FieldSpec(p, k)
    rng = random.Random(17)
    for _ in range(10_000):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        assert (spec.add(a, b), spec.sub(a, b), spec.neg(a)) == (
            oracles.add(spec, a, b),
            oracles.sub(spec, a, b),
            oracles.neg(spec, a),
        )


@pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(7), FieldSpec(3, 2), FieldSpec(17, 2)], ids=repr)
def test_polynomial_sums_and_differences_match_the_coefficient_loops(spec):
    """Unequal lengths either way round, equal lengths, a zero operand,
    and a leading term that cancels (the result is trimmed)."""
    rng = random.Random(29)
    for _ in range(300):
        a, b = (Polynomial(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(7))]) for _ in range(2))
        same_lead = Polynomial(spec, [rng.randrange(spec.q) for _ in a.coeffs[:-1]] + list(a.coeffs[-1:]))
        for x, y in ((a, b), (b, a), (a, a), (a, same_lead), (a, Polynomial.zero(spec))):
            assert (x + y).coeffs == oracles.poly_add(x, y).coeffs
            assert (x - y).coeffs == oracles.poly_sub(x, y).coeffs


# -- code constructions ----------------------------------------------------------

HERMITIAN_CASES = [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 28)] + [(4, k) for k in (1, 10, 58, 59, 64)]


@pytest.mark.parametrize("q,k", HERMITIAN_CASES, ids=lambda v: str(v))
def test_hermitian_rows_match_incremental_selection(q, k):
    """One rref of the points x monomials matrix keeps the monomials the
    one-at-a-time reduction keeps, across the skip threshold
    q^3 - q(q-1)/2 (24 for q = 3, 58 for q = 4)."""
    assert code_to_text(hermitian_build(q, k)) == code_to_text(oracles.hermitian_build(q, k))


@pytest.mark.parametrize("u", range(2, 7))
@pytest.mark.parametrize("r", range(1, 4))
def test_goppa_default_polynomial_matches_the_oracle_scan(u, r):
    """goppa_build's own g and support, against the code built from the
    polynomial the root-check / trial-division scan picks (for r = 1 the
    support loses that polynomial's root)."""
    ext = FieldSpec(2, u)
    assert ext.modulus == oracles.default_modulus(2, u)
    support = list(range(ext.q))
    try:
        g = oracles.find_irreducible(ext, r, support)
    except ValueError:
        g = oracles.find_irreducible(ext, r)
        support = [v for v in support if g(v).value]
    try:
        want = code_to_text(goppa_build(u, r, g=g, points=support))
    except ParameterOutOfRange as exc:
        want = str(exc)
    try:
        got = code_to_text(goppa_build(u, r))
    except ParameterOutOfRange as exc:
        got = str(exc)
    assert got == want


# -- elimination -----------------------------------------------------------------

# GF(257) has no tables and takes the per-element fallback of the row operations.
ELIMINATION_FIELDS = [FieldSpec(2), FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(5), FieldSpec(257)]
GF9 = FieldSpec(3, 2)
# rank 1 over GF(9): the second row is x times the first (x has code 3)
DEPENDENT = MatrixF(GF9, [[1, 4, 7], [GF9.mul(3, v) for v in (1, 4, 7)]])


@st.composite
def systems(draw):
    spec = draw(st.sampled_from(ELIMINATION_FIELDS))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 7))
    # zeros are drawn often, so rank-deficient matrices and inconsistent targets are common
    cell = st.one_of(st.just(0), st.integers(0, spec.q - 1))
    data = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    targets = draw(st.lists(st.lists(cell, min_size=rows, max_size=rows), min_size=1, max_size=4))
    return MatrixF(spec, data), targets


@settings(max_examples=150, deadline=None, database=None)
@given(systems())
@example((DEPENDENT, [[1, 3], [1, 0], [0, 0]]))
def test_elimination_matches_oracle(system):
    A, targets = system
    assert rref(A) == oracles.rref(A)
    assert kernel_basis(A) == oracles.kernel_basis(A)
    assert solve_many(A, targets) == oracles.solve_many(A, targets)


def test_elimination_example_covers_rank_deficiency_and_inconsistency():
    assert rref(DEPENDENT).rank == 1
    solutions = solve_many(DEPENDENT, [[1, 3], [1, 0]])
    assert solutions[0] is not None and solutions[1] is None


# -- synthesis and server evaluation ----------------------------------------------------


@pytest.fixture(scope="module")
def schemes():
    """(new, oracle) scheme pairs: Goppa [16,8] over GF(2) with t=1, d=3, and
    Hermitian [27,10] over GF(9) with t=1, d=2."""
    out = {}
    for name, code, d in (("goppa", goppa_build(4, 2), 3), ("hermitian", hermitian_build(3, 10), 2)):
        out[name] = (hss.scheme_for_code(code, t=1, d=d), oracles.scheme_for_code(code, t=1, d=d))
    return out


@pytest.mark.parametrize("name", ["goppa", "hermitian"])
def test_scheme_text_matches_oracle_synthesizer(schemes, name):
    new, old = schemes[name]
    assert new.eval_table == old.eval_table
    # the rows streamed from the keys are the sorted rows of the table
    assert hss.scheme_to_text(new) == oracles.scheme_to_text(old) == oracles.scheme_to_text(new)


def _views(scheme, seed):
    params = scheme.params
    rng = random.Random(seed)
    secrets = [[rng.randrange(params.spec.q) for _ in range(params.m)] for _ in range(params.ell)]
    return hss.share_all_secrets(params, secrets, random.Random(seed + 1))[1]


@pytest.mark.parametrize("name", ["goppa", "hermitian"])
def test_eval_server_matches_oracle(schemes, name):
    scheme = schemes[name][0]
    d = scheme.params.d
    for seed in range(2):
        views = _views(scheme, seed)
        for chosen in (None, (d,) * d):
            for j in range(1, scheme.params.s + 1):
                assert hss.eval_server(scheme, j, views[j], chosen) == _eval_oracles(scheme, j, views[j], chosen)


def _raised(fn, *args):
    try:
        return "ok", fn(*args)
    except MissingShare as exc:
        return "missing", str(exc), type(exc.__cause__)


@pytest.mark.parametrize("name", ["goppa", "hermitian"])
def test_eval_server_missing_share_matches_oracle(schemes, name):
    scheme = schemes[name][0]
    params = scheme.params
    j = 2
    # plain dicts, which the cases below edit
    base = {key: dict(fragment) for key, fragment in _views(scheme, 7)[j].items()}
    inst = params.ell  # the last instance, so earlier monomials evaluate first
    T = next(iter(base[(inst, 2)]))
    cases = []
    # one share missing from slot 2's fragment
    view = copy.deepcopy(base)
    del view[(inst, 2)][T]
    cases.append(view)
    # a whole fragment missing
    view = copy.deepcopy(base)
    del view[(inst, 1)]
    cases.append(view)
    # slot 1 all zero: products stop there, so the share missing in slot 2 is never read
    view = copy.deepcopy(base)
    view[(inst, 1)] = dict.fromkeys(view[(inst, 1)], 0)
    del view[(inst, 2)][T]
    cases.append(view)
    results = [_raised(hss.eval_server, scheme, j, view) for view in cases]
    assert results[:2] == [_raised(oracles.eval_server, scheme, j, view) for view in cases[:2]]
    # every share is read before any product is formed, so the zero slot hides nothing
    assert [r[0] for r in results] == ["missing", "missing", "missing"]
    assert results[2][1] == f"server {j} lacks share {T} of secret {(inst, 2)}"
    assert _raised(oracles.eval_server, scheme, j, cases[2])[0] == "ok"


@pytest.mark.parametrize("name", ["goppa", "hermitian"])
def test_simulate_transcript_matches_oracle(schemes, name, monkeypatch):
    scheme = schemes[name][0]
    params = scheme.params
    rng = random.Random(11)
    secrets = [[rng.randrange(params.spec.q) for _ in range(params.m)] for _ in range(params.ell)]

    def digest(transcript):
        return hashlib.sha256(b"".join(transcript.frames)).hexdigest()

    transcript, outputs = protocol.simulate(scheme, secrets, seed=5)
    monkeypatch.setattr(protocol, "eval_server", oracles.eval_server)
    old_transcript, old_outputs = protocol.simulate(scheme, secrets, seed=5)
    assert outputs == old_outputs
    assert digest(transcript) == digest(old_transcript)


# -- dense coefficient tensors ----------------------------------------------------------


def _binary_10_2(labeling):
    """[10, 2] binary code with rows 1^5 0^5 and 0^5 1^5: labelweight 5
    under the identity labeling, 3 when servers own coordinate pairs."""
    spec = FieldSpec(2)
    return LabeledCode(spec, MatrixF(spec, [[1] * 5 + [0] * 5, [0] * 5 + [1] * 5]), labeling)


def _rs9_pairs():
    """RS [8, 2] over GF(9) on 4 servers owning 2 coordinates each: labelweight 4."""
    code = rs_build(9, 8, 2)
    return LabeledCode(code.spec, code.generator, Labeling.balanced(4, 2))


def _copies(spec, ell, copies):
    """[copies * ell, ell] code with generator [I | ... | I], copy c owned
    by server c: labelweight `copies`, any ell."""
    rows = [[1 if col % ell == row else 0 for col in range(copies * ell)] for row in range(ell)]
    return LabeledCode(spec, MatrixF(spec, rows), Labeling.balanced(copies, ell))


# (code, t, d); servers own several coordinates in the "pairs" and "copies"
# cases, the "copies" cases put ell = 8, 9 and 17 instances across the
# groups of 8 that the bit planes pack into a byte, and GF(257) has no
# tables, so its tensors are contracted through FieldSpec calls
EVAL_CASES = {
    "gf2-goppa-t1d1": (lambda: goppa_build(3, 1), 1, 1),
    "gf2-goppa-t1d2": (lambda: goppa_build(3, 1), 1, 2),
    "gf2-t1d3": (lambda: _binary_10_2(Labeling.identity(10)), 1, 3),
    "gf2-t2d2": (lambda: _binary_10_2(Labeling.identity(10)), 2, 2),
    "gf2-pairs-t1d2": (lambda: _binary_10_2(Labeling.balanced(5, 2)), 1, 2),
    "gf2-copies-l8-t1d2": (lambda: _copies(FieldSpec(2), 8, 3), 1, 2),
    "gf2-copies-l9-t1d3": (lambda: _copies(FieldSpec(2), 9, 4), 1, 3),
    "gf2-copies-l17-t1d2": (lambda: _copies(FieldSpec(2), 17, 3), 1, 2),
    "gf3-copies-l9-t1d2": (lambda: _copies(FieldSpec(3), 9, 3), 1, 2),
    "gf4-rs-t1d1": (lambda: rs_build(4, 4, 3), 1, 1),
    "gf4-rs-t1d2": (lambda: rs_build(4, 4, 2), 1, 2),
    "gf4-rs-t1d3": (lambda: rs_build(4, 4, 1), 1, 3),
    "gf4-hermitian-t2d2": (lambda: hermitian_build(2, 3), 2, 2),
    "gf4-copies-l17-t1d2": (lambda: _copies(FieldSpec(2, 2), 17, 3), 1, 2),
    "gf5-rs-t1d1": (lambda: rs_build(5, 5, 4), 1, 1),
    "gf5-rs-t1d2": (lambda: rs_build(5, 5, 3), 1, 2),
    "gf5-rs-t1d3": (lambda: rs_build(5, 5, 2), 1, 3),
    "gf5-rs-t2d2": (lambda: rs_build(5, 5, 1), 2, 2),
    "gf7-rs-t1d2": (lambda: rs_build(7, 6, 3), 1, 2),
    "gf7-rs-t1d3": (lambda: rs_build(7, 6, 2), 1, 3),
    "gf7-copies-l9-t1d2": (lambda: _copies(FieldSpec(7), 9, 3), 1, 2),
    "gf8-rs-t1d2": (lambda: rs_build(8, 6, 3), 1, 2),
    "gf8-rs-t2d2": (lambda: rs_build(8, 7, 2), 2, 2),
    "gf9-rs-t1d1": (lambda: rs_build(9, 5, 3), 1, 1),
    "gf9-rs-t1d2": (lambda: rs_build(9, 6, 3), 1, 2),
    "gf9-rs-t1d3": (lambda: rs_build(9, 6, 2), 1, 3),
    "gf9-rs-t2d2": (lambda: rs_build(9, 7, 3), 2, 2),
    "gf9-pairs-t1d3": (_rs9_pairs, 1, 3),
    "gf9-copies-l8-t1d3": (lambda: _copies(GF9, 8, 4), 1, 3),
    "gf9-copies-l17-t1d2": (lambda: _copies(GF9, 17, 3), 1, 2),
    "gf16-rs-t1d2": (lambda: rs_build(16, 6, 3), 1, 2),
    "gf16-rs-l9-t1d2": (lambda: rs_build(16, 12, 9), 1, 2),
    "gf27-rs-t1d2": (lambda: rs_build(27, 6, 3), 1, 2),
    "gf27-rs-t1d3": (lambda: rs_build(27, 6, 2), 1, 3),
    "gf251-rs-t1d2": (lambda: rs_build(251, 7, 4), 1, 2),
    "gf251-rs-t1d3": (lambda: rs_build(251, 6, 2), 1, 3),
    "gf251-copies-l9-t1d2": (lambda: _copies(FieldSpec(251), 9, 3), 1, 2),
    "gf256-rs-t1d2": (lambda: rs_build(256, 7, 4), 1, 2),
    "gf257-rs-t1d1": (lambda: rs_build(257, 5, 3), 1, 1),
    "gf257-rs-t1d2": (lambda: rs_build(257, 5, 3), 1, 2),
    "gf257-rs-t1d3": (lambda: rs_build(257, 6, 3), 1, 3),
    "gf257-rs-t2d2": (lambda: rs_build(257, 7, 3), 2, 2),
}


def _eval_oracles(scheme, j, view, chosen):
    """Server j's output shares by the per-monomial oracle, checked
    against the byte-tensor contraction by lifted products where the field
    has tables."""
    expected = oracles.eval_server(scheme, j, view, chosen)
    if scheme.params.spec.q <= MAX_TABLE_ORDER:
        assert oracles.eval_server_lifted(scheme, j, view, chosen) == expected
    return expected


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_eval_server_matches_oracle_across_fields(name):
    build, t, d = EVAL_CASES[name]
    scheme = hss.scheme_for_code(build(), t=t, d=d, m=d + 1)
    params = scheme.params
    for seed in range(2):
        views = _views(scheme, seed)
        for chosen in (None, (params.m,) * d):
            for j in range(1, params.s + 1):
                positional = hss.eval_server(scheme, j, views[j], chosen)
                assert positional == _eval_oracles(scheme, j, views[j], chosen)
                # the share vectors read as they are and dicts read by key agree
                as_dicts = {key: dict(fragment) for key, fragment in views[j].items()}
                assert positional == hss.eval_server(scheme, j, as_dicts, chosen)
    # the tensors ran in every field
    assert sorted(scheme._tensors) == list(range(1, params.s + 1))


PROPERTY_CASES = ["gf2-copies-l9-t1d3", "gf4-copies-l17-t1d2", "gf7-rs-t1d3", "gf9-rs-t2d2", "gf27-rs-t1d2",
                  "gf251-rs-t1d2", "gf256-rs-t1d2"]


@functools.cache
def _property_scheme(name):
    build, t, d = EVAL_CASES[name]
    return hss.scheme_for_code(build(), t=t, d=d, m=d + 1)


@st.composite
def _server_inputs(draw):
    """A scheme, a server, d variable indices (repeats allowed) and a view
    whose fragments are all zero, random, or sparse."""
    scheme = _property_scheme(draw(st.sampled_from(PROPERTY_CASES)))
    params = scheme.params
    j = draw(st.integers(1, params.s))
    chosen = tuple(draw(st.lists(st.integers(1, params.m), min_size=params.d, max_size=params.d)))
    held = hss.held_subsets(params.s, params.t, j)
    element = st.integers(0, params.spec.q - 1)
    vector = st.one_of(
        st.just([0] * len(held)),
        st.lists(element, min_size=len(held), max_size=len(held)),
        st.lists(st.sampled_from([0, 0, 0, 1, params.spec.q - 1]), min_size=len(held), max_size=len(held)),
    )
    keys = [(i, v) for i in range(1, params.ell + 1) for v in range(1, params.m + 1)]
    view = {key: hss.ShareVector(held, draw(vector)) for key in keys}
    return scheme, j, chosen, view


@given(_server_inputs())
@settings(max_examples=100, deadline=None, database=None)
def test_eval_server_matches_oracles_on_generated_views(inputs):
    scheme, j, chosen, view = inputs
    expected = _eval_oracles(scheme, j, view, chosen)
    assert hss.eval_server(scheme, j, view, chosen) == expected
    # the same fragments in one ServerView, read in one piece
    params, held = scheme.params, next(iter(view.values())).subsets
    shares = [y for fragment in view.values() for y in fragment.shares]
    whole = hss.ServerView(held, hss.secret_positions(params.ell, params.m), shares)
    assert hss.eval_server(scheme, j, whole, chosen) == expected


@pytest.mark.parametrize("name", ["goppa", "rs5"])
def test_scheme_read_from_text_runs_like_the_synthesized_one(wire_schemes, name):
    scheme = wire_schemes[name]
    parsed = hss.scheme_from_text(hss.scheme_to_text(scheme))
    assert parsed.solutions == scheme.solutions
    assert parsed._eval_table is None  # checked against rows streamed from the keys
    secrets = _secrets(scheme.params, 12)
    transcript, outputs = protocol.simulate(scheme, secrets, seed=4)
    parsed_transcript, parsed_outputs = protocol.simulate(parsed, secrets, seed=4)
    assert parsed_outputs == outputs
    digest = hashlib.sha256(b"".join(transcript.frames)).hexdigest()
    assert hashlib.sha256(b"".join(parsed_transcript.frames)).hexdigest() == digest
    assert sorted(parsed._tensors) == list(range(1, scheme.params.s + 1))


@pytest.mark.parametrize("name", ["goppa", "rs5"])
def test_eval_server_reordered_fragment_matches_oracle(wire_schemes, name):
    """A fragment with the right keys in another order, as a dict or as a
    ShareVector over a rotated tuple of subsets, is still read by key."""
    scheme = wire_schemes[name]
    views = _views(scheme, 5)
    for j in (1, scheme.params.s):
        view, vectors = {}, {}
        for key, fragment in views[j].items():
            items = list(fragment.items())
            items = items[1:] + items[:1]  # rotated by one key
            view[key] = dict(items)
            vectors[key] = hss.ShareVector(tuple(T for T, _ in items), [y for _, y in items])
        assert all(list(view[key]) != list(views[j][key]) for key in view)
        expected = oracles.eval_server(scheme, j, view)
        assert hss.eval_server(scheme, j, view) == expected
        assert hss.eval_server(scheme, j, vectors) == expected
        # the fragments of the product's variables 1..d were looked up by key
        assert all(fragment._index is not None for (_, v), fragment in vectors.items() if v <= scheme.params.d)


@pytest.mark.parametrize("s,t,d,ell", [(2, 1, 1, 1), (5, 1, 2, 2), (5, 2, 2, 3), (6, 1, 3, 2)])
def test_lazy_monomials_match_oracle(s, t, d, ell):
    params = hss.HssParams(s, t, d, ell, d, FieldSpec(3))
    monomials, unions = hss.enumerate_monomials(params)
    old_monomials, old_local = oracles.enumerate_monomials(params)
    assert len(monomials) == len(old_monomials) and list(monomials) == old_monomials
    assert [monomials[n] for n in range(len(monomials))] == old_monomials
    # unions[c] is the union of every instance's monomial of combo c, bit v for server v
    masks = [sum(1 << v for v in mono.union()) for mono in old_monomials]
    assert [unions[n % len(unions)] for n in range(len(monomials))] == masks
    # a monomial is local to exactly the servers outside its combo's union
    local = {j: [mono for n, mono in enumerate(monomials) if not unions[n % len(unions)] >> j & 1] for j in old_local}
    assert local == old_local


def test_tensors_serve_complete_fragments_and_are_built_once(monkeypatch):
    """Each server's tensors are built on its first call only."""
    builds = []
    build = hss._build_tensors
    monkeypatch.setattr(hss, "_build_tensors", lambda scheme, j: builds.append(j) or build(scheme, j))
    for code, t, d in ((goppa_build(3, 1), 1, 2), (rs_build(9, 7, 3), 2, 2)):
        scheme = hss.scheme_for_code(code, t=t, d=d)
        builds.clear()
        for seed in range(3):
            secrets = _secrets(scheme.params, seed)
            assert hss.run_end_to_end(scheme, secrets, seed).ok
            assert protocol.simulate(scheme, secrets, seed)[1] == hss.run_end_to_end(scheme, secrets, seed).outputs
        assert builds == list(range(1, scheme.params.s + 1))


# the codes and (t, d) of the benchmark's goppa-eval, hermitian-setup and goppa-wire workloads
WORKLOAD_CASES = {
    "goppa-eval": (lambda: goppa_build(4, 2), 1, 3),
    "hermitian-setup": (lambda: hermitian_build(3, 10), 1, 3),
    "goppa-wire": (lambda: goppa_build(4, 2), 4, 1),
}


@functools.cache
def _case_scheme(name):
    build, t, d = {**EVAL_CASES, **WORKLOAD_CASES}[name]
    return hss.scheme_for_code(build(), t=t, d=d)


@pytest.mark.parametrize("name", sorted(EVAL_CASES) + sorted(WORKLOAD_CASES))
def test_solution_blocks_match_the_per_union_oracle(name):
    """The key rows, projected onto each union's coordinates, are the
    blocks of both per-union syntheses."""
    scheme = _case_scheme(name)
    blocks = oracles.solve_blocks(scheme.code, scheme.params)
    assert oracles.project_blocks(scheme) == blocks == oracles.synthesize_blocks(scheme.code, scheme.params)


# distinct (L, Q) keys of the workloads, each Z_Q from the elimination of the scan that found it
WORKLOAD_KEYS = {"goppa-eval": 165, "hermitian-setup": 286, "goppa-wire": 495}


@pytest.mark.parametrize("name", sorted(EVAL_CASES) + sorted(WORKLOAD_CASES))
def test_key_support_lies_inside_every_union_of_its_key(name):
    scheme = _case_scheme(name)
    params, labels = scheme.params, scheme.code.labeling.map
    expanded = oracles.row_scheme(scheme)
    combos = itertools.product(hss.subsets_of_size(params.s, params.t), repeat=params.d)
    unions_of = [set() for _ in expanded.rows]
    for combo, k in zip(combos, expanded.combo_key):
        unions_of[k].add(frozenset().union(*combo))
    assert all(unions_of)
    for rows, unions in zip(expanded.rows, unions_of):
        assert len(rows) == params.ell
        assert all(labels[r] not in union for r in rows for union in unions)
    if name in WORKLOAD_KEYS:
        assert len(expanded.rows) == WORKLOAD_KEYS[name]


# beyond EVAL_CASES and the workloads: goppa u=5 [32,22] (1, 3) and hermitian [27,10] (2, 2)
LADDER_CASES = {
    "goppa-u5-t1d3": (lambda: goppa_build(5, 2), 1, 3),
    "hermitian-27-t2d2": (lambda: hermitian_build(3, 10), 2, 2),
}


@pytest.mark.parametrize("name", sorted(EVAL_CASES) + sorted(WORKLOAD_CASES) + sorted(LADDER_CASES))
def test_derived_key_rows_match_the_stored_rows_they_replaced(name):
    """Z_Q alone, read through KeySolutions.column, expands key by key to
    the full rows the synthesis stored before (oracles.solve_keys), and
    the scheme document streamed from it is the one those rows render."""
    build, t, d = {**EVAL_CASES, **WORKLOAD_CASES, **LADDER_CASES}[name]
    code = build()
    params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
    scheme = hss.HssScheme(params, code, hss._synthesize(code, params))
    work, basis, keys, combo_key = oracles.lost_set_key_search(code, params, hss.enumerate_monomials(params)[1])
    expanded = oracles.row_scheme(scheme)
    stored = oracles.solve_keys(code, work, basis, keys)
    assert len(expanded.rows) == len(stored)
    for k, (got, want) in enumerate(zip(expanded.rows, stored)):
        assert got == want, f"key {k}"
    assert (expanded.combo_key, scheme.solutions.work, scheme.solutions.basis) == (combo_key, work, basis)
    assert _keys_of(scheme.solutions) == keys
    assert "\n".join(oracles.row_lines(expanded)) + "\n" == hss.scheme_to_text(scheme)


def _keys_of(solutions):
    """The (L, Q) keys of KeySolutions in their order, Q in its order."""
    return [(lost, tuple(rows)) for lost, rows in zip(solutions.lost, solutions.solved)]


def _key_form(solutions):
    """KeySolutions with each key's Z_Q rows listed in the order of Q, so
    that equality covers that order too (dicts compare without it)."""
    return solutions._replace(solved=[list(rows.items()) for rows in solutions.solved])


@pytest.mark.parametrize("name", sorted(EVAL_CASES) + sorted(WORKLOAD_CASES) + sorted(LADDER_CASES))
def test_key_search_matches_the_per_union_scan(name):
    """One scan per path through the free coordinates, its key taken by
    every later union that holds the same of the servers it saw, and the
    walk in union_order give the per-union scan's [R | E], B, keys in the
    same first-seen order and combo keys, and the per-key solves' Z_Q
    (oracles.synthesize_keys): work, basis, lost, solved with each Q in
    order, combo_key.  The workloads and LADDER_CASES are the rungs of
    bench_synth.py's LADDER."""
    build, t, d = {**EVAL_CASES, **WORKLOAD_CASES, **LADDER_CASES}[name]
    code = build()
    params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
    unions = hss.enumerate_monomials(params)[1]
    got = hss._synthesize(code, params)
    assert _key_form(got) == _key_form(oracles.synthesize_keys(code, params))
    assert (got.work, got.basis, _keys_of(got), got.combo_key) == oracles.key_search(code, params, unions)
    assert all(type(lost) is tuple for lost in got.lost)


# eliminations in one _synthesize of the workloads: [G | I], then one per
# scan, the first scan of L = () included
WORKLOAD_ELIMINATIONS = {"goppa-eval": 186, "hermitian-setup": 319, "goppa-wire": 601}


def _counting_eliminations(monkeypatch) -> list:
    """Count every matrix._eliminate call, by hss or inside matrix (rref,
    solve_many), from here on."""
    calls, eliminate = [], matrix._eliminate

    def counted(*args):
        calls.append(None)
        return eliminate(*args)

    monkeypatch.setattr(hss, "_eliminate", counted)
    monkeypatch.setattr(matrix, "_eliminate", counted)
    return calls


@pytest.mark.parametrize("name", sorted(WORKLOAD_CASES))
def test_workload_synthesis_eliminates_once_per_scan(name, monkeypatch):
    """Each key's Z_Q comes out of the scan that found it: no solve after
    the search, and no rescan of a path a scan already took."""
    build, t, d = WORKLOAD_CASES[name]
    code = build()
    params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
    calls = _counting_eliminations(monkeypatch)
    solutions = hss._synthesize(code, params)
    assert len(calls) == WORKLOAD_ELIMINATIONS[name]
    assert len(solutions.solved) == WORKLOAD_KEYS[name]


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_unions_of_servers_without_pivots_key_as_the_oracle_does(name):
    """A union that holds no pivot's server, the empty one included, loses
    no row: its key is ((), ()), the one key of all such unions."""
    build, t, d = EVAL_CASES[name]
    code = build()
    params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
    labels = code.labeling.map
    pivot_servers = {labels[b] for b in rref(code.generator).pivots}
    free = [v for v in range(1, code.s + 1) if v not in pivot_servers]
    unions = [0] + [sum(1 << v for v in servers) for size in (1, 2) for servers in itertools.combinations(free, size)]
    got = hss._key_search(code, params, unions)
    assert _key_form(got) == _key_form(oracles.synthesize_keys(code, params, unions))
    assert (got.work, got.basis, _keys_of(got), got.combo_key) == oracles.key_search(code, params, unions)
    assert (got.lost, got.solved, got.combo_key) == ([()], [{}], [0] * len(unions))
    # L stays the key's tuple through synthesis, into KeySolutions
    assert all(type(lost) is tuple for lost in _case_scheme(name).solutions.lost)


@pytest.mark.parametrize("name", sorted(EVAL_CASES) + sorted(WORKLOAD_CASES))
def test_scheme_document_reads_alike_by_synthesis_and_by_folding(name):
    """The canonical document read by synthesis and by folding its rows
    into the keys (the reader it replaced) gives the synthesized scheme."""
    scheme = _case_scheme(name)
    doc = hss.scheme_to_text(scheme)
    parsed, folded, expanded = hss.scheme_from_text(doc), oracles.fold_scheme_text(doc), oracles.row_scheme(scheme)
    assert parsed.solutions == scheme.solutions
    assert (folded.rows, folded.combo_key) == (expanded.rows, expanded.combo_key)
    for read in (parsed, folded):
        assert read.params == scheme.params
        assert read.labelweight_verified == scheme.labelweight_verified


@pytest.mark.parametrize("name", sorted(EVAL_CASES) + sorted(WORKLOAD_CASES))
def test_server_planes_match_the_per_union_blocks(name):
    scheme = _case_scheme(name)
    params, blocks = scheme.params, oracles.solve_blocks(scheme.code, scheme.params)
    small = params.spec.q <= MAX_TABLE_ORDER
    tables = hss._plane_tables(params.spec) if small else None
    for j in range(1, params.s + 1):
        held, tensors = oracles.build_byte_tensors(scheme, blocks, j)
        if small:
            size = len(held) ** params.d
            tensors = [oracles.bit_planes(params.spec, hss._lane_strings(tables, per_instance, size), size)
                       for per_instance in tensors]
        assert hss._build_tensors(scheme, j) == (held, tensors)


# every field with tables, as (p, k)
TABLE_FIELDS = [
    (p, k)
    for p in range(2, MAX_TABLE_ORDER + 1)
    if all(p % f for f in range(2, p))
    for k in range(1, 9)
    if p**k <= MAX_TABLE_ORDER
]


def test_packed_plane_tables_need_a_second_table_only_above_eight_bits():
    two = [(p, k) for p, k in TABLE_FIELDS if len(hss._plane_tables(FieldSpec(p, k)).packed) == 2]
    assert two == [(3, 5), (5, 3)]  # GF(243) and GF(125): planes times lanes exceed 8
    assert all(len(hss._plane_tables(FieldSpec(p, k)).packed) <= 2 for p, k in TABLE_FIELDS)


@st.composite
def _lane_inputs(draw):
    """A field with tables, and lane strings of 1 to 17 instances (so
    across the boundary of a group of 8) of `size` >= 1 entries."""
    spec = FieldSpec(*draw(st.sampled_from(TABLE_FIELDS)))
    instances, size = draw(st.integers(1, 17)), draw(st.integers(1, 40))
    raw = draw(st.binary(min_size=instances * size, max_size=instances * size))
    tensors = [bytes(b % spec.q for b in raw[i * size : (i + 1) * size]) for i in range(instances)]
    return spec, hss._lane_strings(hss._plane_tables(spec), tensors, size), size


@settings(max_examples=300, deadline=None, database=None)
@given(_lane_inputs())
@example((FieldSpec(5, 3), [bytes(range(0, 250, 2)), bytes(range(1, 251, 2))], 125))
@example((FieldSpec(3, 5), [bytes(range(243))] * 9, 243))
@example((FieldSpec(2), [bytes([255])] * 3, 1))
def test_packed_bit_planes_match_the_per_plane_oracle(case):
    spec, strings, size = case
    tables = hss._plane_tables(spec)
    translated = [hss._plane_bytes(tables, (string,)) for string in strings]
    assert translated == [[string.translate(table) for table in tables.packed] for string in strings]
    assert hss._bit_planes(tables, translated, size) == oracles.bit_planes(spec, strings, size)


# popcounts per owned coordinate: the number of fold classes of each field
FOLD_CLASSES = {(2, 1): 1, (2, 2): 3, (2, 3): 5, (2, 4): 7, (2, 8): 15, (3, 1): 2, (3, 2): 8, (3, 3): 18,
                (5, 1): 9, (5, 2): 36, (251, 1): 64}


@pytest.mark.parametrize("p,k", TABLE_FIELDS, ids=lambda v: str(v))
def test_fold_classes_cover_every_plane_pair_once(p, k):
    spec = FieldSpec(p, k)
    tables = hss._plane_tables(spec)
    planes = tables.planes
    pairs = [pair for _, _, members in tables.classes for pair in members]
    assert sorted(pairs) == list(itertools.product(range(len(planes)), repeat=2))
    for m, weight, members in tables.classes:
        for n, o in members:
            (e, b), (f, g) = planes[n], planes[o]
            assert (e + f, 2 ** (b + g) % p) == (m, weight)
        # a class of more than one pair is a parity (p = 2) or a union of one-hot digit planes (p = 3)
        assert len(members) == 1 or p in (2, 3)
        if p == 3:
            assert len({(planes[n][0], planes[o][0]) for n, o in members}) == 1
    if (p, k) in FOLD_CLASSES:
        assert len(tables.classes) == FOLD_CLASSES[(p, k)]
    # composed[c][u] is scale[u] followed by packed[c]
    assert tables.composed == [[row.translate(table) for row in tables.scale] for table in tables.packed]


def _random_codes(rng, spec, size, density):
    """`size` codes of spec, each nonzero with probability `density`."""
    return bytes(rng.randrange(1, spec.q) if rng.random() < density else 0 for _ in range(size))


@pytest.mark.parametrize("p,k", TABLE_FIELDS, ids=lambda v: str(v))
def test_folded_contraction_matches_one_popcount_per_plane_pair(p, k):
    """The fold-class contraction and its composed share planes against
    oracles.contract_planes on random slot vectors and coefficient planes:
    d = 1, 2, 3 and ell = 1, 3, 10, 11 (groups of 8 instances cut short),
    with all-zero, sparse and dense coefficient tensors."""
    spec = FieldSpec(p, k)
    tables = hss._plane_tables(spec)
    rng = random.Random(p * 1000 + k)
    for d, ell in itertools.product((1, 2, 3), (1, 3, 10, 11)):
        h = rng.randint(1, 4 if d < 3 else 3)
        size = h**d
        slots = [[_random_codes(rng, spec, h, rng.choice((0.0, 0.5, 1.0))) for _ in range(d)] for _ in range(ell)]
        tensors = [
            oracles.bit_planes(spec, hss._lane_strings(tables, [_random_codes(rng, spec, size, density)
                                                                for _ in range(ell)], size), size)
            for density in (0.0, 0.2, 1.0)
        ]
        assert tensors[0] == [0] * len(tables.planes)
        got = hss._contract_planes(spec, tensors, slots, h)
        assert got == oracles.contract_planes(spec, tensors, slots, h), (d, ell)
        assert got[0] == 0
        for lane in zip(*[hss._lane_strings(tables, [vectors[n] for vectors in slots], h) for n in range(d)]):
            product = oracles.share_products(tables.scale, lane)
            assert hss._plane_bytes(tables, lane) == [product.translate(table) for table in tables.packed]


# servers none of whose coordinates any key carries a nonzero coefficient at
ZERO_SERVERS = {"goppa-eval": [16], "hermitian-setup": list(range(17, 28)), "goppa-wire": []}


def _zero_servers(scheme):
    labels = scheme.code.labeling.map
    carried = {labels[r] for rows in oracles.row_scheme(scheme).rows for r, row in rows.items() if any(row)}
    return [j for j in range(1, scheme.params.s + 1) if j not in carried]


def _contractions(monkeypatch):
    """The coefficient planes of every _contract_planes call from now on."""
    calls = []
    contract = hss._contract_planes
    monkeypatch.setattr(hss, "_contract_planes", lambda *args: calls.append(args[1]) or contract(*args))
    return calls


@pytest.mark.parametrize("name", sorted(ZERO_SERVERS))
def test_always_zero_servers_output_zeros_without_a_contraction(name, monkeypatch):
    scheme = _case_scheme(name)
    params, coords = scheme.params, scheme.code.labeling.coords
    assert _zero_servers(scheme) == ZERO_SERVERS[name]
    calls = _contractions(monkeypatch)
    for seed in range(2):
        views = _views(scheme, seed)
        for j in range(1, params.s + 1):
            calls.clear()
            out = hss.eval_server(scheme, j, views[j])
            if j in ZERO_SERVERS[name]:
                assert out == [0] * len(coords(j)) and not calls
                assert scheme._tensors[j][1] == [[0] * len(hss._plane_tables(params.spec).planes)] * len(coords(j))
            else:
                assert len(calls) == 1
    secrets = _secrets(params, 3)
    assert hss.run_end_to_end(scheme, secrets, 3).ok


def test_always_zero_servers_of_hermitian_t2_d2(monkeypatch):
    scheme = hss.scheme_for_code(hermitian_build(3, 10), t=2, d=2)
    zero = _zero_servers(scheme)
    assert zero == list(range(18, 28))
    calls = _contractions(monkeypatch)
    views = _views(scheme, 0)
    for j in zero:
        assert hss.eval_server(scheme, j, views[j]) == [0] * len(scheme.code.labeling.coords(j))
    assert not calls
    assert hss.eval_server(scheme, 1, views[1]) == oracles.eval_server_lifted(scheme, 1, views[1]) and calls


def test_always_zero_server_checks_its_views_as_before():
    """The view of a server that outputs zeros is checked share by share
    like any other, with the same errors."""
    scheme = _case_scheme("hermitian-setup")
    params, j = scheme.params, 27
    held = hss.held_subsets(params.s, params.t, j)
    views = _views(scheme, 1)
    as_dicts = {key: dict(fragment) for key, fragment in views[j].items()}
    assert hss.eval_server(scheme, j, views[j]) == hss.eval_server(scheme, j, as_dicts) == [0]
    short = {key: fragment for key, fragment in as_dicts.items() if key != (2, 1)}
    with pytest.raises(MissingShare) as missing:
        hss.eval_server(scheme, j, short)
    assert str(missing.value) == f"server {j} lacks share {held[0]} of secret (2, 1)"
    shares = list(views[j].shares)
    shares[views[j].positions[(2, 1)] * len(held) + 3] = 9
    for bad in (hss.ServerView(held, views[j].positions, shares), {**as_dicts, (2, 1): {**as_dicts[(2, 1)], held[3]: 9}}):
        with pytest.raises(ParameterOutOfRange) as outside:
            hss.eval_server(scheme, j, bad)
        assert str(outside.value) == f"server {j}: share 9 of secret (2, 1) is outside 0..8 (q=9)"


GF257 = FieldSpec(257)


def _gf257(rows):
    return LabeledCode(GF257, MatrixF(GF257, rows), Labeling.identity(len(rows[0])))


# codes whose labelweight is at most d*t, with the first union in solve order
# that lacks rank; over GF(257) synthesize_eval has no exhaustive check, so it
# too must fail on that union: [1 1 0] fails at {1, 2}, whose lost-row set
# {1} scanned first through server 2's column, [1 0 0; 0 1 1] at the first
# scan of its lost-row set
RANK_DEFICIENT = {
    "goppa-t3d2": (
        lambda: goppa_build(4, 2), 3, 2,
        "columns labeled [5, 6, 7, 8, 10, 11, 12, 13, 15, 16] have rank below 8; labelweight < 7",
    ),
    "gf2-110-t1d2": (
        lambda: LabeledCode(FieldSpec(2), MatrixF(FieldSpec(2), [[1, 1, 0]]), Labeling.identity(3)), 1, 2,
        "columns labeled [3] have rank below 1; labelweight < 3",
    ),
    "gf257-rs-t1d2": (lambda: rs_build(257, 4, 3), 1, 2, "columns labeled [3, 4] have rank below 3; labelweight < 3"),
    "gf257-110-t1d2": (lambda: _gf257([[1, 1, 0]]), 1, 2, "columns labeled [3] have rank below 1; labelweight < 3"),
    "gf257-100-011-t1d1": (
        lambda: _gf257([[1, 0, 0], [0, 1, 1]]), 1, 1, "columns labeled [2, 3] have rank below 2; labelweight < 2",
    ),
}


@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_rank_deficient_codes_fail_on_the_oracle_union(name):
    build, t, d, message = RANK_DEFICIENT[name]
    code = build()
    params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
    with pytest.raises(InsufficientLabelweight) as want:
        oracles.synthesize_blocks(code, params)
    with pytest.raises(InsufficientLabelweight) as searched:
        oracles.key_search(code, params, hss.enumerate_monomials(params)[1])
    with pytest.raises(InsufficientLabelweight) as solved:
        oracles.synthesize_keys(code, params)
    # _synthesize skips the exhaustive labelweight check, so the rank test must trip
    with pytest.raises(InsufficientLabelweight) as got:
        hss._synthesize(code, params)
    assert str(got.value) == str(want.value) == str(searched.value) == str(solved.value) == message
    if code.spec.q > MAX_TABLE_ORDER:
        with pytest.raises(InsufficientLabelweight) as checked:
            hss.synthesize_eval(code, params)
        assert str(checked.value) == message


def test_a_union_holding_a_server_its_lost_rows_scan_read_scans_again(monkeypatch):
    """[1 1 0]: {1} scans L = (0,) and takes Q = (1,) from server 2, so it
    saw server 2 alone; {1, 3} holds none of it and takes that key without
    a scan, {1, 2} holds server 2, scans again past it and finds no
    column."""
    code = _gf257([[1, 1, 0]])
    params = hss.HssParams(3, 1, 2, 1, 2, GF257)
    calls = _counting_eliminations(monkeypatch)
    got = hss._key_search(code, params, [0b0010, 0b1010])
    assert (got.lost, got.solved, got.combo_key) == ([(0,)], [{1: (1,)}], [0, 0])
    assert len(calls) == 2  # [G | I] and the scan of {1}
    assert got == oracles.synthesize_keys(code, params, [0b0010, 0b1010])
    with pytest.raises(InsufficientLabelweight, match=re.escape(RANK_DEFICIENT["gf257-110-t1d2"][3])):
        hss._key_search(code, params, [0b0010, 0b0110])


def test_a_union_holding_the_servers_a_scan_skipped_takes_its_key(monkeypatch):
    """[1 1 1 1], each coordinate its own server, L = (0,) for every union
    holding server 1.  {1, 2} skips server 2's column and takes Q = (2,)
    at server 3, so it saw servers 2 and 3 and held server 2.  {1, 2, 4}
    holds the same of them and takes that key without a scan.  {1, 2, 3}
    also holds server 3, and {1, 4} lacks server 2: each scans its own
    path, to Q = (3,) and Q = (1,)."""
    code = _gf257([[1, 1, 1, 1]])
    params = hss.HssParams(4, 1, 2, 1, 2, GF257)
    unions = [0b00110, 0b10110, 0b10010, 0b01110]  # {1, 2}, {1, 2, 4}, {1, 4}, {1, 2, 3}
    calls = _counting_eliminations(monkeypatch)
    got = hss._key_search(code, params, unions)
    assert len(calls) == 4  # [G | I] and the scans of {1, 2}, {1, 2, 3} and {1, 4}
    assert _keys_of(got) == [((0,), (2,)), ((0,), (3,)), ((0,), (1,))]
    assert got.combo_key == [0, 0, 2, 1]
    assert got == oracles.synthesize_keys(code, params, unions)


KEY_SEARCH_FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(5), GF257]


@st.composite
def _key_search_inputs(draw):
    """A full-row-rank generator over a small field or GF(257), a random
    labeling onto s servers, and a list of unions (bitmasks of servers
    1..s, duplicates allowed, in any order)."""
    spec = draw(st.sampled_from(KEY_SEARCH_FIELDS))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 10))
    s = draw(st.integers(2, n))
    # every server owns a coordinate, the rest are labeled at random
    labels = draw(st.permutations(list(range(1, s + 1)) + draw(st.lists(st.integers(1, s), min_size=n - s, max_size=n - s))))
    cell = st.one_of(st.just(0), st.integers(0, spec.q - 1))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=k, max_size=k))
    generator = MatrixF(spec, rows)
    assume(rref(generator).rank == k)
    servers = st.sets(st.integers(1, s), max_size=max(1, s // 2))
    unions = draw(st.lists(servers.map(lambda members: sum(1 << v for v in members)), min_size=1, max_size=24))
    return LabeledCode(spec, generator, Labeling(s, labels)), unions


@settings(max_examples=300, deadline=None, database=None)
@given(_key_search_inputs())
def test_key_search_matches_the_per_key_solves_on_random_codes(inputs):
    """Any code, labeling and union list: hss._key_search gives the per-L
    search and per-key solves' KeySolutions (key order and each Q's order
    included) or raises their InsufficientLabelweight message."""
    code, unions = inputs
    params = hss.HssParams(code.s, 1, 1, code.dim, 1, code.spec)
    try:
        want = _key_form(oracles.synthesize_keys(code, params, unions))
    except InsufficientLabelweight as exc:
        with pytest.raises(InsufficientLabelweight) as got:
            hss._key_search(code, params, unions)
        assert str(got.value) == str(exc)
    else:
        assert _key_form(hss._key_search(code, params, unions)) == want


@pytest.mark.parametrize("name", ["gf257-rs-t1d2", "gf257-110-t1d2"])
def test_documents_of_codes_below_the_labelweight_fail_to_read(name):
    """The document of a valid d = 1 scheme, its header raised to d = 2,
    names a code of labelweight at most d*t over GF(257): DecodeError with
    the rank message of the first union that lacks rank."""
    build, t, d, message = RANK_DEFICIENT[name]
    doc = hss.scheme_to_text(hss.scheme_for_code(build(), t=t, d=1, m=d))
    assert "\nd 1\n" in doc
    with pytest.raises(DecodeError) as got:
        hss.scheme_from_text(doc.replace("\nd 1\n", f"\nd {d}\n", 1))
    assert str(got.value) == f"bad scheme parameters: {message}"


def test_solution_blocks_reproduce_the_eval_table(schemes):
    """Every monomial's coefficient, read from the per-union blocks, is its table entry (or absent when zero)."""
    scheme = schemes["hermitian"][0]
    params = scheme.params
    blocks = oracles.solve_blocks(scheme.code, params)
    subsets = hss.subsets_of_size(params.s, params.t)
    combos = list(itertools.product(subsets, repeat=params.d))
    assert len(blocks.combo_union) == len(scheme.solutions.combo_key) == len(combos)
    rebuilt = {r: {} for r in range(scheme.n)}
    for combo, u in zip(combos, blocks.combo_union):
        assert blocks.unions[u] == frozenset().union(*combo)
        for i in range(1, params.ell + 1):
            for r, coeff in zip(blocks.coords[u], blocks.solutions[u][i - 1 :: params.ell]):
                if coeff:
                    rebuilt[r][hss.MonomialId(i, combo)] = coeff
    assert rebuilt == scheme.eval_table


# -- sharing and the wire path ------------------------------------------------------


@pytest.fixture(scope="module")
def wire_schemes(schemes):
    """The goppa and hermitian fixtures, plus Goppa [16,8] with t=4, d=1,
    m=4 (1,820 share subsets per secret) and RS [5,2] over GF(5) with t=1,
    d=2, m=3."""
    return {
        "goppa": schemes["goppa"][0],
        "hermitian": schemes["hermitian"][0],
        "goppa-wire": hss.scheme_for_code(goppa_build(4, 2), t=4, d=1, m=4),
        "rs5": hss.scheme_for_code(rs_build(5, 5, 2), t=1, d=2, m=3),
    }


def _secrets(params, seed):
    rng = random.Random(seed)
    return [[rng.randrange(params.spec.q) for _ in range(params.m)] for _ in range(params.ell)]


def _ordered(nested):
    """A share map or view, with the iteration order of every mapping spelled out."""
    if isinstance(nested, Mapping):
        return [(key, _ordered(value)) for key, value in nested.items()]
    return nested


@pytest.mark.parametrize("name", ["goppa", "hermitian", "goppa-wire", "rs5"])
def test_share_all_secrets_matches_oracle(wire_schemes, name):
    params = wire_schemes[name].params
    secrets = _secrets(params, 4)
    bundles, views = hss.share_all_secrets(params, secrets, random.Random(9))
    old_bundles, old_views = oracles.share_all_secrets(params, secrets, random.Random(9))
    assert _ordered(bundles) == _ordered(old_bundles)
    assert _ordered(views) == _ordered(old_views)


def test_cnf_share_matches_oracle():
    cases = (
        (FieldSpec(2), 6, 2),
        (FieldSpec(5), 5, 2),
        (FieldSpec(3, 2), 4, 1),
        (FieldSpec(257), 4, 2),
        (FieldSpec(2, 2), 6, 3),
        (FieldSpec(2, 8), 5, 2),
        (FieldSpec(2, 9), 4, 1),
    )
    for spec, s, t in cases:
        for x in (0, 1, spec.q - 1):
            shares = hss.cnf_share(x, t, s, spec, random.Random(x))
            assert _ordered(shares) == _ordered(oracles.cnf_share(x, t, s, spec, random.Random(x)))


# (the secrets' field, another field whose elements it must reject)
SECRET_FIELDS = [
    (FieldSpec(5), FieldSpec(3)),
    (FieldSpec(3, 2), FieldSpec(3, 2, (2, 2, 1))),
    (FieldSpec(2, 4), FieldSpec(2)),
    (FieldSpec(257), FieldSpec(5)),
]


@st.composite
def _secret_cases(draw):
    """A field, a value offered as a secret, and the position it takes in
    a 2 x 2 secret matrix of zeros."""
    spec, foreign = draw(st.sampled_from(SECRET_FIELDS))
    value = draw(st.one_of(
        st.integers(0, spec.q - 1),
        st.booleans(),
        st.integers(-2 * spec.q, -1) | st.integers(spec.q, 3 * spec.q),
        st.floats(),
        st.text(max_size=3),
        st.integers(0, spec.q - 1).map(spec.element),
        st.integers(0, foreign.q - 1).map(foreign.element),
    ))
    return spec, value, (draw(st.integers(1, 2)), draw(st.integers(1, 2)))


def _outcome(call):
    try:
        return "ok", call()
    except (ParameterOutOfRange, FieldMismatch) as exc:
        return type(exc), str(exc)


@given(_secret_cases())
@settings(max_examples=200, deadline=None, database=None)
def test_secrets_are_accepted_as_the_oracle_accepts_them(case):
    """cnf_share and share_all_secrets take exactly the values the old
    check took, as the same codes; what it rejected they reject with the
    same error type, worded by FieldSpec.code_of."""
    spec, value, (i, k) = case
    want = _outcome(lambda: oracles.secret_code(value, spec))
    try:
        spec.code_of(value)
        wording = None
    except (ValueError, FieldMismatch) as exc:
        wording = str(exc)
    shared = _outcome(lambda: hss.cnf_share(value, 1, 3, spec, random.Random(1)))
    params = hss.HssParams(3, 1, 1, 2, 2, spec)
    secrets = [[0, 0], [0, 0]]
    secrets[i - 1][k - 1] = value
    matrix = _outcome(lambda: hss.share_all_secrets(params, secrets, random.Random(1)))
    if want[0] == "ok":
        code = want[1]
        assert wording is None
        assert _ordered(shared[1]) == _ordered(hss.cnf_share(code, 1, 3, spec, random.Random(1)))
        secrets[i - 1][k - 1] = code
        assert _ordered(matrix[1]) == _ordered(hss.share_all_secrets(params, secrets, random.Random(1)))
    else:
        assert shared == (want[0], f"secret {wording}")
        assert matrix == (want[0], f"secret {(i, k)} {wording}")


def _same_runs(new, old):
    (transcript, outputs), (old_transcript, old_outputs) = new, old
    assert outputs == old_outputs
    assert transcript.frames == old_transcript.frames
    assert transcript.messages == old_transcript.messages
    assert transcript.link_bytes == old_transcript.link_bytes
    assert transcript.downloaded_symbols == old_transcript.downloaded_symbols


@pytest.mark.parametrize(
    "name,var_indices", [("goppa", None), ("hermitian", None), ("goppa-wire", None), ("rs5", None), ("rs5", (3, 1))]
)
def test_simulate_matches_oracle_protocol(wire_schemes, name, var_indices):
    scheme = wire_schemes[name]
    secrets = _secrets(scheme.params, 12)
    new = protocol.simulate(scheme, secrets, 8, var_indices)
    _same_runs(new, oracles.simulate(scheme, secrets, 8, var_indices))
    if name == "goppa-wire":
        assert len(new[0].frames) == 33
        assert sum(map(len, new[0].frames)) == 699_234


def test_short_input_payload_is_a_decode_error(wire_schemes, monkeypatch):
    """An INPUT_SHARES payload one element short fails the server's length check."""
    scheme = wire_schemes["rs5"]
    secrets = _secrets(scheme.params, 1)

    def short(decode):
        def patched(frame, width, q=None):
            message = decode(frame, width, q)
            if message.kind == protocol.INPUT_SHARES:
                message = protocol.WireMessage(message.kind, message.sender, message.receiver, message.payload[:-1])
            return message

        return patched

    monkeypatch.setattr(protocol, "decode", short(protocol.decode))
    monkeypatch.setattr(oracles, "decode", short(oracles.decode))
    with pytest.raises(DecodeError) as new:
        protocol.simulate(scheme, secrets, 3)
    with pytest.raises(DecodeError) as old:
        oracles.simulate(scheme, secrets, 3)
    assert str(new.value) == str(old.value) == "server 1: expected 24 elements, got 23"


@pytest.mark.parametrize("name", ["goppa", "hermitian", "goppa-wire", "rs5"])
def test_width_one_payloads_are_bytes(wire_schemes, name):
    """A q <= 256 run records every payload as one bytes object, and so
    does a transcript read back from its text."""
    scheme = wire_schemes[name]
    assert protocol.element_width(scheme.params.spec) == 1
    transcript, _ = protocol.simulate(scheme, _secrets(scheme.params, 5), 2)
    parsed = protocol.transcript_from_text(protocol.transcript_to_text(transcript))
    assert all(type(m.payload) is bytes for m in transcript.messages + parsed.messages)


def test_servers_evaluate_their_decoded_payload_without_a_copy(wire_schemes, monkeypatch):
    """The ServerView each server evaluates holds its decoded INPUT_SHARES payload itself."""
    scheme = wire_schemes["goppa-wire"]
    decoded, evaluated = {}, {}

    def recording_decode(frame, width, q=None):
        message = decode(frame, width, q)
        if message.kind == protocol.INPUT_SHARES:
            decoded[message.receiver] = message.payload
        return message

    def recording_eval(scheme, j, views, var_indices=None):
        evaluated[j] = views
        return evaluate(scheme, j, views, var_indices)

    decode, evaluate = protocol.decode, protocol.eval_server
    monkeypatch.setattr(protocol, "decode", recording_decode)
    monkeypatch.setattr(protocol, "eval_server", recording_eval)
    protocol.simulate(scheme, _secrets(scheme.params, 3), 3)
    assert sorted(evaluated) == sorted(decoded) == list(range(1, scheme.params.s + 1))
    for j, view in evaluated.items():
        assert type(view) is hss.ServerView and view.shares is decoded[j]


def test_wide_field_payloads_stay_tuples_and_match_oracle():
    """Above q = 256 (element width 2) payloads are tuples of ints, and the
    run still matches the oracle frame for frame."""
    scheme = hss.scheme_for_code(rs_build(257, 5, 2), t=1, d=2, m=3)
    assert protocol.element_width(scheme.params.spec) == 2
    secrets = _secrets(scheme.params, 7)
    new = protocol.simulate(scheme, secrets, 4, (3, 1))
    assert all(type(m.payload) is tuple for m in new[0].messages)
    _same_runs(new, oracles.simulate(scheme, secrets, 4, (3, 1)))


# -- codec properties ------------------------------------------------------------------

CODEC_WIDTHS = (1, 2, 3)
KINDS = (protocol.INPUT_SHARES, protocol.OUTPUT_SHARES, protocol.RESULT)


@st.composite
def messages(draw, width=None):
    width = draw(st.sampled_from(CODEC_WIDTHS)) if width is None else width
    payload = draw(st.lists(st.integers(0, 256**width - 1), max_size=24))
    message = protocol.WireMessage(
        draw(st.sampled_from(KINDS)), draw(st.integers(0, 2**16 - 1)), draw(st.integers(0, 2**16 - 1)), tuple(payload)
    )
    return width, message


@st.composite
def damaged_frames(draw):
    """A valid frame cut short, extended, or with one byte flipped; or arbitrary bytes."""
    width, message = draw(messages())
    frame = oracles.encode(message, width)
    how = draw(st.sampled_from(["intact", "truncate", "extend", "flip", "arbitrary"]))
    if how == "truncate":
        frame = frame[: draw(st.integers(0, len(frame) - 1))]
    elif how == "extend":
        frame += draw(st.binary(min_size=1, max_size=2 * width + 1))
    elif how == "flip":
        at = draw(st.integers(0, len(frame) - 1))
        frame = frame[:at] + bytes([frame[at] ^ draw(st.integers(1, 255))]) + frame[at + 1 :]
    elif how == "arbitrary":
        frame = draw(st.binary(max_size=40))
    q = draw(st.none() | st.integers(2, 256**width))
    return frame, width, q


def _decoded(decode, frame, width, q):
    try:
        return "ok", decode(frame, width, q)
    except DecodeError as exc:
        return "decode error", str(exc)


@settings(max_examples=200, deadline=None, database=None)
@given(messages())
def test_encode_matches_oracle(case):
    width, message = case
    frame = protocol.encode(message, width)
    assert frame == oracles.encode(message, width)
    assert protocol.decode(frame, width) == message


@settings(max_examples=400, deadline=None, database=None)
@given(damaged_frames())
def test_decode_matches_oracle_on_damaged_frames(case):
    """decode raises nothing but DecodeError, exactly when the oracle does,
    with the same message; otherwise both return the same WireMessage."""
    frame, width, q = case
    assert _decoded(protocol.decode, frame, width, q) == _decoded(oracles.decode, frame, width, q)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_encode_rejects_elements_wider_than_the_width(data):
    width = data.draw(st.sampled_from((1, 2)))
    _, message = data.draw(messages(width))
    bad = data.draw(st.integers(256**width, 256**width * 4) | st.integers(-(256**width), -1))
    at = data.draw(st.integers(0, len(message.payload)))
    payload = message.payload[:at] + (bad,) + message.payload[at:]
    message = protocol.WireMessage(message.kind, message.sender, message.receiver, payload)
    with pytest.raises(OverflowError):
        oracles.encode(message, width)
    with pytest.raises(OverflowError):
        protocol.encode(message, width)
