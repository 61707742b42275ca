import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from labelweight_hss import budget, hss
from labelweight_hss.codes import LabeledCode, Labeling, goppa_build, hermitian_build, labelweight, rs_build
from labelweight_hss.errors import (
    DecodeError,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    FieldTooLarge,
    InsufficientLabelweight,
    MissingShare,
    ParameterOutOfRange,
)
from labelweight_hss.galois import FieldSpec, randrange_run
from labelweight_hss.hss import (
    HssParams,
    HssScheme,
    KeySolutions,
    MonomialId,
    cnf_share,
    enumerate_monomials,
    eval_server,
    held_mask,
    held_runs,
    held_subsets,
    privacy_audit,
    reconstruct,
    run_end_to_end,
    scheme_for_code,
    scheme_from_text,
    scheme_rate,
    scheme_to_text,
    share_all_secrets,
    subsets_of_size,
    synthesize_eval,
)
from labelweight_hss.matrix import MatrixF, rank
import oracles
from oracles import column_indices, server_fragment, verify_block_system

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def repetition_scheme():
    code = LabeledCode(GF2, MatrixF(GF2, [[1, 1]]), Labeling.identity(2))
    return scheme_for_code(code, t=1, d=1, m=1)


# -- params -------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ParameterOutOfRange):
        HssParams(2, 1, 2, 1, 2, GF2)  # s = dt
    with pytest.raises(ParameterOutOfRange):
        HssParams(4, 0, 1, 1, 1, GF2)  # t = 0 rejected
    with pytest.raises(ParameterOutOfRange):
        HssParams(4, 1, 2, 1, 1, GF2)  # m < d


# -- CNF sharing ----------------------------------------------------------------


def test_cnf_share_worked_example():
    # s=2, t=1 over F_2 with the stream forced to y_{1}=0: y_{2} = x = 1.
    class Zero:
        def randrange(self, q):
            return 0

    shares = cnf_share(1, 1, 2, GF2, Zero())
    assert shares == {(1,): 0, (2,): 1}
    assert server_fragment(shares, 1) == {(2,): 1}
    assert server_fragment(shares, 2) == {(1,): 0}


@pytest.mark.parametrize("s,t,spec", [(2, 1, GF2), (4, 2, GF3), (5, 1, GF5), (5, 3, GF2)])
def test_cnf_share_sums_to_secret(s, t, spec):
    rng = random.Random(7)
    for _ in range(25):
        x = rng.randrange(spec.q)
        shares = cnf_share(x, t, s, spec, rng)
        assert len(shares) == len(subsets_of_size(s, t))
        total = 0
        for y in shares.values():
            total = spec.add(total, y)
        assert total == x


def test_any_t_plus_1_servers_hold_everything():
    rng = random.Random(3)
    s, t = 5, 2
    shares = cnf_share(2, t, s, GF3, rng)
    import itertools

    for group in itertools.combinations(range(1, s + 1), t + 1):
        held = set()
        for j in group:
            held.update(server_fragment(shares, j))
        assert held == set(shares)


def test_fragment_size():
    import math

    rng = random.Random(0)
    s, t = 6, 2
    shares = cnf_share(1, t, s, GF2, rng)
    for j in range(1, s + 1):
        assert len(server_fragment(shares, j)) == math.comb(s - 1, t)


def test_held_mask_orders_fragments_and_views():
    import itertools

    params = HssParams(ell=2, m=2, d=1, t=2, s=4, spec=GF3)
    subsets = subsets_of_size(params.s, params.t)
    secrets = [[1, 2], [0, 1]]
    bundles, views = share_all_secrets(params, secrets, random.Random(5))
    for j in range(1, params.s + 1):
        held = list(itertools.compress(subsets, held_mask(params.s, params.t, j)))
        assert held == [T for T in subsets if j not in T]
        assert held_subsets(params.s, params.t, j) == tuple(held)
        fragments = {key: server_fragment(dict(zip(subsets, shares)), j) for key, shares in bundles.items()}
        assert all(list(fragment) == held for fragment in fragments.values())
        # the view is the fragments' shares laid end to end, in held order
        assert oracles.view_dicts(params, j, views[j]) == fragments


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 7, 8, 9, 16, 27, 128, 129, 251, 255, 256, 257, 1000])
def test_randrange_run_draws_what_randrange_draws(q):
    """Bulk draws give the values of one randrange(q) call each and leave
    the generator where those calls leave it."""
    for seed in range(4):
        for count in (0, 1, 5, 64, 1000):
            bulk, one_by_one = random.Random(seed), random.Random(seed)
            assert list(randrange_run(bulk, q, count)) == [one_by_one.randrange(q) for _ in range(count)]
            assert bulk.getstate() == one_by_one.getstate()


@pytest.mark.parametrize("q", [2, 3, 5, 9, 16, 129, 251, 255])
def test_randrange_run_joins_its_rounds_into_the_per_call_draws(q):
    """The rejection rounds' bytes, joined once, are the values of one
    randrange(q) call each, up to a whole goppa-wire deal of 58,208
    draws, and leave the generator where those calls leave it."""
    for count in (1, 1000, 58208):
        bulk, one_by_one = random.Random(count), random.Random(count)
        assert list(randrange_run(bulk, q, count)) == [one_by_one.randrange(q) for _ in range(count)]
        assert bulk.getstate() == one_by_one.getstate()


def test_held_runs_cover_exactly_the_held_subsets():
    """held_runs(s, t, j) are maximal, ordered, disjoint runs whose
    positions are exactly those held_mask marks, so the subsets they
    select are held_subsets(s, t, j) in order."""
    for s in range(2, 13):
        for t in range(1, s):
            subsets = subsets_of_size(s, t)
            for j in range(1, s + 1):
                runs, mask = held_runs(s, t, j), held_mask(s, t, j)
                positions = [c for start, stop in runs for c in range(start, stop)]
                assert positions == [c for c, held in enumerate(mask) if held]
                assert all(start < stop for start, stop in runs)
                # maximal: no run touches the next, none could grow at either end
                assert all(stop < start for (_, stop), (start, _) in zip(runs, runs[1:]))
                assert not any(start and mask[start - 1] or stop < len(mask) and mask[stop] for start, stop in runs)
                assert tuple(T for start, stop in runs for T in subsets[start:stop]) == held_subsets(s, t, j)


def test_share_all_secrets_lays_each_view_out_like_its_fragments():
    params = HssParams(ell=2, m=3, d=2, t=2, s=5, spec=GF3)
    bundles, views = share_all_secrets(params, [[1, 2, 0], [0, 1, 2]], random.Random(3))
    subsets = subsets_of_size(5, 2)
    assert list(bundles) == [(i, k) for i in (1, 2) for k in (1, 2, 3)]
    assert all(type(shares) is bytes and len(shares) == len(subsets) for shares in bundles.values())
    for j, view in views.items():
        assert type(view) is bytes and len(view) == 6 * math.comb(4, 2)
        fragments = [server_fragment(dict(zip(subsets, bundles[key])), j) for key in bundles]
        assert list(view) == [y for fragment in fragments for y in fragment.values()]


def test_eval_server_reads_a_server_view_as_it_reads_dicts():
    """A view as bytes, a list or a tuple evaluates as the per-monomial
    oracle evaluates the dicts of its fragments; a view of another length,
    a dict view among them, or with a share outside GF(9), read by the
    product or not, is refused whole, naming server j."""
    scheme = scheme_for_code(rs_build(9, 6, 3), t=1, d=2, m=3)  # the product reads variables 1 and 2
    params, j = scheme.params, 2
    _, views = share_all_secrets(params, [[1, 2, 0], [3, 4, 0], [5, 6, 0]], random.Random(1))
    view = views[j]  # 9 secrets x 5 held subsets
    want = bytes(oracles.eval_server(scheme, j, oracles.view_dicts(params, j, view)))
    for form in (bytes, list, tuple):
        assert eval_server(scheme, j, form(view)) == want

    def refused(view):
        with pytest.raises((DimensionMismatch, ParameterOutOfRange)) as exc:
            eval_server(scheme, j, view)
        return type(exc.value), str(exc.value)

    for short in (view[:-1], list(view) + [0], (), oracles.view_dicts(params, j, view)):
        message = f"server {j}: view holds {len(short)} shares, not 45 (9 secrets x 5 held subsets)"
        assert refused(short) == (DimensionMismatch, message)
    # (offset, value, its secret): offset n is share n % 5 of secret n // 5 in (instance, variable) order
    cases = [(7, 9, (1, 2)), (0, -1, (1, 1)), (20, 300, (2, 2)), (5, 1.5, (1, 2)),
             (3, "3", (1, 1)), (12, 9, (1, 3))]
    for at, value, key in cases:
        for form in (list, tuple):
            shares = list(view)
            shares[at] = value
            message = f"server {j}: share {value!r} of secret {key} is outside 0..8 (q=9)"
            assert refused(form(shares)) == (ParameterOutOfRange, message)
    # a bad byte in secret (1, 3), which the product does not read
    message = f"server {j}: share 9 of secret (1, 3) is outside 0..8 (q=9)"
    assert refused(view[:12] + bytes([9]) + view[13:]) == (ParameterOutOfRange, message)
    # a dict of the right length: its keys are read as the shares
    flat = dict(zip(oracles._fragment_order(params, j), view))
    message = f"server {j}: share (1, 1, (1,)) of secret (1, 1) is outside 0..8 (q=9)"
    assert refused(flat) == (ParameterOutOfRange, message)


@pytest.mark.parametrize("bad", [9, 300])
def test_a_missing_share_is_reported_before_a_bad_share_whatever_its_value(bad):
    """Server 1's view with the first share of secret (1, 1) outside GF(9):
    the bad share raises, but with the shares of secret (2, 1) missing the
    short view raises first, whether bytes() converts the bad share (9)
    or not (300)."""
    scheme = scheme_for_code(rs_build(9, 6, 3), t=1, d=2)
    params, j = scheme.params, 1
    _, views = share_all_secrets(params, [[1, 2], [3, 4], [5, 6]], random.Random(1))
    view = [bad, *views[j][1:]]
    with pytest.raises(ParameterOutOfRange) as outside:
        eval_server(scheme, j, view)
    assert str(outside.value) == f"server {j}: share {bad} of secret (1, 1) is outside 0..8 (q=9)"
    del view[10:15]  # secret (2, 1), the third in (instance, variable) order
    with pytest.raises(DimensionMismatch) as missing:
        eval_server(scheme, j, view)
    assert str(missing.value) == f"server {j}: view holds 25 shares, not 30 (6 secrets x 5 held subsets)"


def test_secrets_outside_the_field_are_rejected():
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2, m=3)
    # shared as 7 mod 5 these would reconstruct [2, 1], not the products [4, 1]
    with pytest.raises(ParameterOutOfRange, match=r"secret \(1, 1\) value 7 is outside 0\.\.4 \(q=5\)"):
        run_end_to_end(scheme, [[7, 1, 1], [1, 1, 1]], 3)
    with pytest.raises(ParameterOutOfRange, match=r"secret \(2, 3\) value -1 is outside"):
        share_all_secrets(scheme.params, [[1, 1, 1], [1, 1, -1]], random.Random(0))
    for x in (5, -1):
        with pytest.raises(ParameterOutOfRange, match=f"secret value {x} is outside 0..4"):
            cnf_share(x, 1, 3, GF5, random.Random(0))
    # a float or a string is not truncated or parsed into a code
    with pytest.raises(ParameterOutOfRange, match=r"secret \(1, 2\) value 1\.5 is not an integer in 0\.\.4"):
        run_end_to_end(scheme, [[1, 1.5, 1], [1, 1, 1]], 3)
    with pytest.raises(ParameterOutOfRange, match=r"secret value '3' is not an integer"):
        cnf_share("3", 1, 3, GF5, random.Random(0))
    # a bool or another integer type is shared as the code it reads as
    codes = [[True, 1, 1], [1, 1, 1]]
    assert run_end_to_end(scheme, codes, 3) == run_end_to_end(scheme, [[1, 1, 1], [1, 1, 1]], 3)
    assert cnf_share(_IndexOnly(), 1, 3, GF5, random.Random(1)) == cnf_share(1, 1, 3, GF5, random.Random(1))


# -- monomials -------------------------------------------------------------------


def test_enumerate_monomials_small():
    params = HssParams(2, 1, 1, 1, 1, GF2)
    monos, unions = enumerate_monomials(params)
    assert monos == range(2)
    # bit v of a union is set for server v in it
    assert unions == [0b10, 0b100]


def test_enumerate_monomials_counts():
    params = HssParams(5, 1, 2, 2, 2, GF5)
    monos, unions = enumerate_monomials(params)
    assert len(monos) == 2 * 25 and len(unions) == 25
    # each server is outside the union of 16 of the 25 subset combos
    for j in range(1, 6):
        assert sum(not union >> j & 1 for union in unions) == 16


def test_subsets_of_size_is_one_shared_tuple():
    subsets = subsets_of_size(6, 2)
    assert isinstance(subsets, tuple) and subsets is subsets_of_size(6, 2)
    # share maps are keyed by those very subset objects
    shares = cnf_share(1, 2, 6, GF2, random.Random(0))
    assert all(key is T for key, T in zip(shares, subsets))


def test_monomial_union_complement():
    mono = MonomialId(1, ((1,), (2,)))
    assert mono.union() == {1, 2}
    lam = set(range(1, 6)) - mono.union()
    assert lam == {3, 4, 5}


@given(st.lists(st.lists(st.integers(1, 125), unique=True), max_size=8))
@example([])
@example([[1, 2, 3], [1, 2], [1, 3], [2], [125], [1, 125], list(range(1, 126))])
def test_union_order_sorts_unions_as_their_sorted_member_lists(members):
    """oracles.union_order sorts bitmasks of servers 1..125 as their
    sorted member lists do, ties only between equal lists; the empty
    union and every prefix of each list are in the draw."""
    lists = [sorted(m) for m in members]
    lists += [[]] + [m[:k] for m in lists for k in range(1, len(m))]
    masks = [sum(1 << v for v in m) for m in lists]
    assert [[v for v in range(126) if u >> v & 1] for u in sorted(masks, key=oracles.union_order)] == sorted(lists)
    keys = list(map(oracles.union_order, masks))
    assert all((keys[a] < keys[b]) == (lists[a] < lists[b]) for a in range(len(lists)) for b in range(len(lists)))


def _walk(s: int, t: int, d: int) -> list[int]:
    """The distinct combo unions of enumerate_monomials in first-seen
    order, the walk of hss._key_search; one instance, so that the
    C(s, t)^d combos fit the default monomial budget where they can."""
    return list(dict.fromkeys(enumerate_monomials(HssParams(s, t, d, 1, d, GF2))[1]))


@pytest.mark.parametrize("s", range(2, 13))
def test_server_sets_are_the_sorted_distinct_unions_of_the_subset_combos(s):
    """For every t and d with dt < s whose combos fit the monomial budget
    (enumerate_monomials refuses the rest): the walk is the server sets of
    size t..dt, each once, Σ C(s, k) for k = t..dt of them, and sorted it
    is the oracle's sorted distinct unions of d size-t subsets."""
    shapes = [(t, d) for t in range(1, s) for d in range(1, s) if d * t < s]
    for t, d in ((t, d) for t, d in shapes if math.comb(s, t) ** d <= budget.MONOMIAL_BUDGET):
        walk, want = _walk(s, t, d), oracles.distinct_unions(oracles.product_unions(s, t, d))
        assert sorted(walk, key=oracles.union_order) == want, (t, d)
        assert len(walk) == sum(math.comb(s, k) for k in range(t, d * t + 1)), (t, d)


# (s, t, d) of goppa-eval, hermitian-setup, goppa-wire, hermitian [27,10] (2, 2)
# and goppa u=5 [32,22] (2, 2), and their distinct unions
WALK_COUNTS = {(16, 1, 3): 696, (27, 1, 3): 3_303, (16, 4, 1): 1_820, (27, 2, 2): 20_826, (32, 2, 2): 41_416}


@pytest.mark.parametrize("shape", sorted(WALK_COUNTS), ids=str)
def test_server_sets_walk_the_distinct_unions_of_the_monomials(shape):
    walk = _walk(*shape)
    assert len(walk) == WALK_COUNTS[shape]
    assert set(walk) == oracles.product_unions(*shape)


def test_enumerate_budget(monkeypatch):
    params = HssParams(5, 1, 2, 2, 2, GF5)
    monkeypatch.setenv("HSS_ENUM_BUDGET", "10")
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_monomials(params)


def _no_subsets(s, t):
    raise AssertionError(f"subsets_of_size({s}, {t}) built")


def test_monomial_budget_refuses_before_building_a_subset(monkeypatch):
    """Synthesis at s = 1000, t = 3, d = 3 is refused by its count of
    C(1000, 3)^3 monomials, none of the 166,167,000 subsets built: the
    [1000, 1] repetition code over GF(2)."""
    code = LabeledCode(GF2, MatrixF(GF2, [[1] * 1000]), Labeling.identity(1000))
    monkeypatch.setattr(hss, "subsets_of_size", _no_subsets)
    with pytest.raises(EnumerationBudgetExceeded, match="^4588115449379463000000000 monomials exceed budget"):
        scheme_for_code(code, t=3, d=3)


def test_budget_names_every_count(monkeypatch):
    """A power past the budget is named as base^exponent without being
    built, one that fits is built and compared, and an int count past
    256 bits is named by the power of two it reaches."""
    monkeypatch.setenv("HSS_ENUM_BUDGET", "10")
    with pytest.raises(EnumerationBudgetExceeded, match=r"^2\^40000 things exceed budget 10; raise HSS_ENUM_BUDGET"):
        budget.check((2, 40000), 1, "things")
    with pytest.raises(EnumerationBudgetExceeded, match="^16 things exceed budget 10;"):
        budget.check((2, 4), 1, "things")
    budget.check((3, 2), 1, "things")
    with pytest.raises(EnumerationBudgetExceeded, match=r"^at least 2\^31699 things exceed budget 10;"):
        budget.check(3**20000, 1, "things")


# -- synthesis -------------------------------------------------------------------


def test_repetition_scheme_matches_hand_solution():
    scheme = repetition_scheme()
    # z_1 uses y_{2}, z_2 uses y_{1}, both with coefficient 1
    assert scheme.eval_table[0] == {MonomialId(1, ((2,),)): 1}
    assert scheme.eval_table[1] == {MonomialId(1, ((1,),)): 1}

    class Zero:
        def randrange(self, q):
            return 0

    shares = cnf_share(1, 1, 2, GF2, Zero())
    # each server's view is its fragment's shares, in held order
    z1 = eval_server(scheme, 1, list(server_fragment(shares, 1).values()))
    z2 = eval_server(scheme, 2, list(server_fragment(shares, 2).values()))
    assert z1 == b"\1" and z2 == b"\0"
    assert reconstruct(scheme, [z1[0], z2[0]]) == [1]


def test_eval_table_locality():
    code = hermitian_build(2, 5)
    scheme = scheme_for_code(code, t=1, d=2)
    labels = code.labeling.map
    for r, entries in scheme.eval_table.items():
        for mono in entries:
            assert labels[r] not in mono.union()


def test_insufficient_labelweight_detected_by_check():
    code = LabeledCode(GF2, MatrixF(GF2, [[1, 1, 0]]), Labeling.identity(3))
    assert labelweight(code) == 2
    # needs labelweight 3: the complement {3} of the servers {1, 2} lacks rank
    with pytest.raises(InsufficientLabelweight, match=r"^columns labeled \[3\] have rank below 1; labelweight < 3$"):
        scheme_for_code(code, t=1, d=2)


def test_insufficient_labelweight_detected_by_rank():
    # _synthesize, synthesize_eval without its parameter checks, refuses it too
    code = LabeledCode(GF2, MatrixF(GF2, [[1, 1, 0]]), Labeling.identity(3))
    params = HssParams(3, 1, 2, 1, 2, GF2)
    with pytest.raises(InsufficientLabelweight):
        hss._synthesize(code, params)


@pytest.mark.parametrize("spec", [FieldSpec(257), FieldSpec(2, 9)], ids=lambda spec: str(spec.q))
def test_codes_and_shares_above_256_are_refused(spec):
    """Every run of element codes is bytes, so a code over a field past a
    byte is refused at its rank check, and so are its shares."""
    for build in (
        lambda: LabeledCode(spec, MatrixF(spec, [[1, 2, 3, 4, 5], [0, 1, 2, 3, 4]]), Labeling.identity(5)),
        lambda: cnf_share(1, 1, 3, spec, random.Random(1)),
        lambda: share_all_secrets(HssParams(3, 1, 1, 1, 1, spec), [[1]], random.Random(1)),
        lambda: privacy_audit(1, 2, spec),
    ):
        with pytest.raises(FieldTooLarge, match=f"^field order {spec.q} exceeds 256"):
            build()


def test_scheme_param_mismatches():
    code = rs_build(5, 5, 2)
    with pytest.raises(ParameterOutOfRange):
        synthesize_eval(code, HssParams(5, 1, 2, 3, 2, GF5))  # ell != dim
    with pytest.raises(ParameterOutOfRange):
        synthesize_eval(code, HssParams(6, 1, 2, 2, 2, GF5))  # s mismatch


# -- evaluation and reconstruction ------------------------------------------------


def test_missing_share_raises():
    """A missing share makes a short view, refused by its length; the dict
    of fragments the view once was is refused too, never read by key."""
    scheme = repetition_scheme()  # one secret, one held subset per server
    for view in (b"", [], (), [1, 0]):
        with pytest.raises(DimensionMismatch, match=rf"^server 1: view holds {len(view)} shares, not 1 "):
            eval_server(scheme, 1, view)
    with pytest.raises(ParameterOutOfRange, match=r"^server 1: share \(1, 1\) of secret \(1, 1\) is outside"):
        eval_server(scheme, 1, {(1, 1): {}})
    assert scheme._states == {}  # each view was refused before the server's state was built


def _view_with_one_share(scheme, j, value):
    """A list view of server j, every share 1 except the second share of
    secret (2, 1), which is `value`."""
    p = scheme.params
    h = len(held_subsets(p.s, p.t, j))
    view = [1] * (p.ell * p.m * h)
    view[p.m * h + 1] = value  # secret (2, 1) is the (m + 1)-th
    return view


@pytest.mark.parametrize("value", [9, 20, 255, 256, -1, 1.5, Fraction(1, 2)])
def test_eval_server_rejects_shares_outside_the_field(value):
    scheme = scheme_for_code(rs_build(9, 6, 3), t=1, d=2)
    assert eval_server(scheme, 1, _view_with_one_share(scheme, 1, 8)) is not None
    for form in (list, tuple):
        with pytest.raises(ParameterOutOfRange, match=r"server 1: share .* of secret \(2, 1\) is outside 0..8"):
            eval_server(scheme, 1, form(_view_with_one_share(scheme, 1, value)))


@pytest.mark.parametrize("value", [9, 20, 255])
def test_a_kept_state_checks_byte_views_as_the_first_call_does(value):
    """Once server 1's state is kept, a bytes view still gets the whole
    check with the first call's errors: another length, or a share outside
    the field, in any secret."""
    first, kept = (scheme_for_code(rs_build(9, 6, 3), t=1, d=2) for _ in range(2))
    view = bytes(_view_with_one_share(kept, 1, 8))
    assert eval_server(kept, 1, view) == eval_server(first, 1, view) and list(kept._states) == [1]
    for bad in (view[:-1], view + b"\0", bytes(_view_with_one_share(kept, 1, value))):
        errors = []
        for scheme in (scheme_for_code(rs_build(9, 6, 3), t=1, d=2), kept):
            with pytest.raises((DimensionMismatch, ParameterOutOfRange)) as caught:
                eval_server(scheme, 1, bad)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]


class _IndexOnly:
    """An integer-like share that is not an int: it has only __index__."""

    def __index__(self):
        return 1

    def __repr__(self):
        return "_IndexOnly()"


def test_a_view_holds_what_field_codes_keep():
    """Byte values, so an __index__ share reads as its value, in a list
    view and in a tuple view alike."""
    scheme = scheme_for_code(rs_build(9, 6, 3), t=1, d=2)
    view = _view_with_one_share(scheme, 1, _IndexOnly())
    want = eval_server(scheme, 1, bytes(_view_with_one_share(scheme, 1, 1)))
    assert eval_server(scheme, 1, view) == eval_server(scheme, 1, tuple(view)) == want


@pytest.mark.parametrize("name", ["s", "t", "d", "ell", "m"])
@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_scheme_parameters_must_be_integers(name, bad):
    """Each count of HssParams is read by operator.index: a float, even a
    whole one, or a string raises ParameterOutOfRange naming it."""
    given = dict(s=5, t=1, d=1, ell=2, m=1, spec=GF5)
    with pytest.raises(ParameterOutOfRange, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        HssParams(**{**given, name: bad})


def test_scheme_parameters_are_stored_as_the_ints_they_read_as():
    code = rs_build(5, 5, 2)
    params = HssParams(5, True, 1, 2, _IndexOnly(), GF5)
    assert (params.t, params.m) == (1, 1) and type(params.t) is type(params.m) is int
    assert scheme_to_text(scheme_for_code(code, t=True, d=1, m=True)) == scheme_to_text(scheme_for_code(code, t=1, d=1))
    for t, m in ((1, 1.5), (1.0, None)):
        with pytest.raises(ParameterOutOfRange, match="must be an integer"):
            scheme_for_code(code, t=t, d=1, m=m)


def test_server_id_must_be_an_integer():
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2)
    _, views = share_all_secrets(scheme.params, [[1, 2]] * 2, random.Random(0))
    with pytest.raises(ParameterOutOfRange, match=r"^j must be an integer, got 1\.5$"):
        eval_server(scheme, 1.5, views[1])
    assert eval_server(scheme, True, views[1]) == eval_server(scheme, 1, views[1])


@pytest.mark.parametrize("call", [lambda t, s: cnf_share(1, t, s, GF2, random.Random(0)),
                                  lambda t, s: privacy_audit(t, s, GF2)], ids=["cnf_share", "privacy_audit"])
def test_sharing_t_and_s_must_be_integers(call):
    for t, s, name, bad in ((1.0, 3, "t", "1.0"), (1, 3.0, "s", "3.0"), ("1", 3, "t", "'1'")):
        with pytest.raises(ParameterOutOfRange, match=f"^{name} must be an integer, got {re.escape(bad)}$"):
            call(t, s)
    assert call(True, 3) == call(1, 3)


@pytest.mark.parametrize("j", [0, 9, -1])
def test_server_id_outside_range_raises(j):
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2)
    _, views = share_all_secrets(scheme.params, [[1, 2]] * 2, random.Random(0))
    eval_server(scheme, 1, views[1])
    with pytest.raises(ParameterOutOfRange, match=f"j={j} outside 1..s=5"):
        eval_server(scheme, j, views[1])
    assert list(scheme._states) == [1]


def test_run_end_to_end_reads_each_secret_once(monkeypatch):
    """run_end_to_end reads each of the ell * m secrets once, though both
    it and share_all_secrets take the matrix, and a bad secret is refused
    by its (instance, variable) before any share is drawn."""
    scheme = scheme_for_code(goppa_build(4, 2), t=1, d=3, m=3)
    secrets = [[(i + k) % 2 for k in range(3)] for i in range(8)]
    reads, code_of = [], FieldSpec.code_of
    monkeypatch.setattr(FieldSpec, "code_of", lambda spec, x: reads.append(x) or code_of(spec, x))
    assert run_end_to_end(scheme, secrets, 1).ok
    assert reads == [x for row in secrets for x in row]
    draws = []
    monkeypatch.setattr(hss, "randrange_run", lambda *args: draws.append(args) or randrange_run(*args))
    with pytest.raises(ParameterOutOfRange, match=r"^secret \(2, 3\) value 2 is outside 0..1"):
        run_end_to_end(scheme, [secrets[0], [0, 1, 2], *secrets[2:]], 1)
    assert not draws


def test_server_state_builds_use_at_most_four_times_their_planes():
    """The peak memory of building one server's state, traced, is at
    most 4x its planes' bytes on hermitian [64,56] (1, 2), the
    hermitian-setup scheme and goppa u = 5 [32,22] (1, 3), for every
    server that owns a live coordinate (11-12x, 22-24x and 41-42x when
    the whole column was joined at once)."""
    for code, t, d in ((hermitian_build(4, 56), 1, 2), (hermitian_build(3, 10), 1, 3), (goppa_build(5, 2), 1, 3)):
        scheme = scheme_for_code(code, t=t, d=d)
        servers = range(1, scheme.params.s + 1)
        for j in servers:  # fills the process-wide caches a build reads (tables, swap masks, held subsets)
            hss._build_state(scheme, j)
        ratios = []
        for j in servers:
            tracemalloc.start()
            try:
                state = hss._build_state(scheme, j)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if state.live:
                ratios.append(peak / state.plane_bytes)
        assert ratios and max(ratios) <= 4, (code, max(ratios))


def test_zero_secrets_zero_outputs():
    code = hermitian_build(2, 5)
    scheme = scheme_for_code(code, t=1, d=2)
    result = run_end_to_end(scheme, [[0, 0]] * 5, seed=5)
    assert result.outputs == [0] * 5 and result.ok


def test_zero_secrets_zero_randomness_zero_output_vectors():
    # with all shares zero every output polynomial evaluates to the zero vector
    code = hermitian_build(2, 5)
    scheme = scheme_for_code(code, t=1, d=2)

    class Zero:
        def randrange(self, q):
            return 0

    _, views = share_all_secrets(scheme.params, [[0, 0]] * 5, Zero())
    for j in range(1, scheme.params.s + 1):
        assert eval_server(scheme, j, views[j]) == bytes(len(code.labeling.coords(j)))


def test_reconstruct_linearity():
    scheme = repetition_scheme()
    rng = random.Random(2)
    for _ in range(10):
        z1 = [rng.randrange(2) for _ in range(2)]
        z2 = [rng.randrange(2) for _ in range(2)]
        zsum = [GF2.add(a, b) for a, b in zip(z1, z2)]
        lhs = reconstruct(scheme, zsum)
        rhs = [GF2.add(a, b) for a, b in zip(reconstruct(scheme, z1), reconstruct(scheme, z2))]
        assert lhs == rhs


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda got: None, "missing output vector from server 2"),
        (lambda got: got[:-1], "server 2 sent 1 output shares for 2 owned coordinates"),
        (lambda got: got + b"\0", "server 2 sent 3 output shares for 2 owned coordinates"),
    ],
    ids=["missing", "short", "long"],
)
def test_collect_output_shares_names_a_missing_or_misfit_vector(change, message):
    code = rs_build(5, 4, 2)
    code = LabeledCode(code.spec, code.generator, Labeling(2, [1, 2, 1, 2]))
    scheme = scheme_for_code(code, t=1, d=1)
    _, views = share_all_secrets(scheme.params, [[1], [2]], random.Random(3))
    per_server = {j: eval_server(scheme, j, views[j]) for j in (1, 2)}
    assert reconstruct(scheme, hss.collect_output_shares(scheme, per_server)) == [1, 2]
    per_server[2] = change(per_server[2])
    if per_server[2] is None:
        del per_server[2]
    with pytest.raises(MissingShare, match=f"^{message}$"):
        hss.collect_output_shares(scheme, per_server)


def test_all_ones_product():
    code = rs_build(5, 5, 2)
    scheme = scheme_for_code(code, t=1, d=2)
    result = run_end_to_end(scheme, [[1, 1], [1, 1]], seed=9)
    assert result.outputs == [1, 1] and result.ok


def test_zero_factor_kills_output():
    code = rs_build(5, 5, 2)
    scheme = scheme_for_code(code, t=1, d=2)
    result = run_end_to_end(scheme, [[0, 4], [2, 3]], seed=11)
    assert result.ok
    assert result.outputs[0] == 0
    assert result.outputs[1] == GF5.mul(2, 3)


def test_goppa_u3_r1_200_seeded_trials():
    code = goppa_build(3, 1)
    scheme = scheme_for_code(code, t=1, d=1)
    rng = random.Random(1000)
    for trial in range(200):
        secrets = [[rng.randrange(2)] for _ in range(scheme.params.ell)]
        result = run_end_to_end(scheme, secrets, seed=trial)
        assert result.ok
        assert result.expected == [row[0] for row in secrets]


def test_non_uniform_labeling_end_to_end():
    # servers owning several coordinates: G=[1,1,1,1], labels (1,1,2,2)
    code = LabeledCode(GF2, MatrixF(GF2, [[1, 1, 1, 1]]), Labeling.balanced(2, 2))
    assert labelweight(code) == 2
    scheme = scheme_for_code(code, t=1, d=1)
    assert [len(code.labeling.coords(j)) for j in (1, 2)] == [2, 2]
    for trial in range(30):
        for x in (0, 1):
            result = run_end_to_end(scheme, [[x]], seed=trial)
            assert result.ok and result.outputs == [x]


def test_repeated_variable_monomial():
    # x_1^2 via variable remapping: both product slots read variable 1.
    code = rs_build(5, 5, 2)
    scheme = scheme_for_code(code, t=1, d=2, m=2)
    result = run_end_to_end(scheme, [[2, 0], [4, 0]], seed=3, var_indices=(1, 1))
    assert result.ok
    assert result.outputs == [GF5.mul(2, 2), GF5.mul(4, 4)]


def test_variable_indices_are_read_as_integers():
    """product_variables reads each index through operator.index, as
    secrets are read: 1.5 is refused before any share is drawn, and a
    bool is the int it stands for."""
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2, m=2)
    with pytest.raises(ParameterOutOfRange, match=r"^need d=2 variable indices in 1\.\.2$"):
        run_end_to_end(scheme, [[1, 2], [3, 4]], 0, var_indices=(1.5, 1))
    with pytest.raises(ParameterOutOfRange, match="^need d=2 variable indices"):
        hss.product_variables(scheme.params, ("1", 1))
    assert hss.product_variables(scheme.params, (True, 2)) == (1, 2)
    assert run_end_to_end(scheme, [[1, 2], [3, 4]], 0, var_indices=(True, 2)) == run_end_to_end(
        scheme, [[1, 2], [3, 4]], 0, var_indices=(1, 2)
    )


def test_degree_one_scaling_linearity():
    scheme = repetition_scheme()

    class Fixed:
        def __init__(self, vals):
            self.vals = list(vals)

        def randrange(self, q):
            return self.vals.pop(0)

    shares = cnf_share(1, 1, 2, GF2, Fixed([1]))
    views = {j: list(server_fragment(shares, j).values()) for j in (1, 2)}  # one secret: a view is its fragment
    z = [eval_server(scheme, j, views[j])[0] for j in (1, 2)]
    assert reconstruct(scheme, z) == [1]


# -- rates ------------------------------------------------------------------------


def test_scheme_rate_repetition_tight():
    scheme = repetition_scheme()
    assert scheme_rate(scheme) == Fraction(1, 2)
    p = scheme.params
    assert Fraction(p.s - p.d * p.t, p.s) == Fraction(1, 2)


def test_scheme_rate_hermitian():
    scheme = scheme_for_code(hermitian_build(2, 5), t=1, d=2)
    assert scheme_rate(scheme) == Fraction(5, 8)


def test_scheme_rate_goppa():
    scheme = scheme_for_code(goppa_build(4, 2), t=1, d=2)
    assert scheme_rate(scheme) == Fraction(8, 16)


def test_scheme_rate_above_ceiling_raises():
    # rate 2/2 against the ceiling (s - dt)/s = 1/2; the solutions are never read
    code = LabeledCode(GF2, MatrixF(GF2, [[1, 0], [0, 1]]), Labeling.identity(2))
    scheme = HssScheme(HssParams(2, 1, 1, 2, 1, GF2), code, KeySolutions(GF2, [], [], [], [], []))
    with pytest.raises(ParameterOutOfRange, match="exceeds linear-scheme ceiling 1/2"):
        scheme_rate(scheme)


# -- labelweight restriction (full-rank guarantee) ---------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: goppa_build(3, 1),
        lambda: hermitian_build(2, 5),
        lambda: rs_build(5, 5, 2),
    ],
)
def test_every_large_restriction_full_rank(build):
    import itertools

    code = build()
    dt_plus_1 = labelweight(code)
    dt = dt_plus_1 - 1
    for lam_size in range(code.s - dt, code.s + 1):
        for lam in itertools.combinations(range(1, code.s + 1), lam_size):
            cols = column_indices(code.labeling.map, lam)
            sub = MatrixF(code.spec, [[row[j] for j in cols] for row in code.generator.data])
            assert rank(sub) == code.dim


def test_synthesized_schemes_have_min_labelweight():
    # the reconstruction matrix of any synthesized scheme is itself a
    # labelweight code with labelweight > d*t
    for code, t, d in [(goppa_build(3, 1), 1, 1), (hermitian_build(2, 5), 1, 2)]:
        scheme = scheme_for_code(code, t=t, d=d)
        lw = labelweight(scheme.code)
        assert lw >= d * t + 1


# -- block system -------------------------------------------------------------------


def test_block_system_repetition():
    assert verify_block_system(repetition_scheme())


def test_block_system_rs():
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2)
    assert verify_block_system(scheme)


def test_block_system_detects_corruption():
    scheme = scheme_for_code(rs_build(5, 5, 2), t=1, d=2)
    r, table = next((r, t) for r, t in scheme.eval_table.items() if t)
    mono = next(iter(table))
    table[mono] = GF5.add(table[mono], 1)
    assert not verify_block_system(scheme)


# -- privacy ---------------------------------------------------------------------


def test_privacy_single_server_f2():
    report = privacy_audit(1, 2, GF2)
    assert report.all_equal
    assert report.randomness_space == 2


def test_privacy_three_servers_f2():
    report = privacy_audit(1, 3, GF2)
    assert report.all_equal
    assert len({c.subset for c in report.checks}) == 3


def test_privacy_s4_t2_f3():
    report = privacy_audit(2, 4, GF3)
    assert report.all_equal
    assert len({c.subset for c in report.checks}) == 6
    assert report.randomness_space == 3**5


def test_share_budget_refuses_before_drawing(monkeypatch):
    """share_all_secrets checks its ell * m * (C(s, t) - 1) draws against
    the share budget before it draws one: the generator is never read."""
    params = HssParams(5, 2, 1, 2, 3, GF5)  # 2 * 3 * (C(5, 2) - 1) = 54 draws
    monkeypatch.setenv("HSS_ENUM_BUDGET", "53")
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(EnumerationBudgetExceeded, match="^54 share draws exceed budget 53; raise HSS_ENUM_BUDGET"):
        share_all_secrets(params, [[0] * 3] * 2, rng)
    assert rng.getstate() == state
    monkeypatch.setenv("HSS_ENUM_BUDGET", "54")
    bundles, _ = share_all_secrets(params, [[0] * 3] * 2, rng)
    assert len(bundles) == 6
    assert budget.SHARE_BUDGET == 2**24


def test_privacy_budget_guard(monkeypatch):
    monkeypatch.setenv("HSS_ENUM_BUDGET", "100")
    with pytest.raises(EnumerationBudgetExceeded):
        privacy_audit(2, 10, GF3)


def test_privacy_budget_refuses_before_building_a_subset(monkeypatch):
    """An audit at s = 1000, t = 3 is refused by its count q^C(1000, 3),
    neither the subsets nor that power built."""
    monkeypatch.setattr(hss, "subsets_of_size", _no_subsets)
    with pytest.raises(EnumerationBudgetExceeded, match=r"^2\^166167000 share assignments exceed budget"):
        privacy_audit(3, 1000, GF2)


def test_privacy_detects_broken_sharing():
    """Leaky strawman: a t-subset's view of additive-only shares over the
    complement subsets determines x when it sees every share."""
    # direct check that the audit is not vacuous: compare distributions of
    # a *deterministic* sharing (all randomness zero) - they must differ.
    from collections import Counter

    dist_x = Counter([(0, 0)])
    dist_xp = Counter([(0, 1)])
    assert dist_x != dist_xp


# -- serialization -----------------------------------------------------------------


def test_scheme_roundtrip_byte_identical():
    for code, t, d in [(goppa_build(3, 1), 1, 1), (rs_build(5, 5, 2), 1, 2)]:
        scheme = scheme_for_code(code, t=t, d=d)
        doc = scheme_to_text(scheme)
        parsed = scheme_from_text(doc)
        assert scheme_to_text(parsed) == doc
        assert parsed.eval_table == scheme.eval_table
        assert parsed.params == scheme.params
        # behaviour identical after the round trip
        a = run_end_to_end(scheme, [[1] * scheme.params.m] * scheme.params.ell, seed=4)
        b = run_end_to_end(parsed, [[1] * parsed.params.m] * parsed.params.ell, seed=4)
        assert a == b


def test_scheme_text_is_read_without_expanding_the_table():
    doc = scheme_to_text(scheme_for_code(rs_build(5, 5, 2), t=1, d=2))
    assert "eval_table" not in vars(scheme_from_text(doc))
    lines = doc.splitlines()
    # a document cut short ends inside its code document; one run on names its first extra line
    with pytest.raises(DecodeError, match="^code document dimensions are inconsistent$"):
        scheme_from_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DecodeError, match=f"^line {len(lines) + 1}: 'eval 9' is past the end .* at line {len(lines)}$"):
        scheme_from_text(doc + "eval 9\n")


def test_scheme_text_rejects_garbage():
    with pytest.raises(DecodeError):
        scheme_from_text("bogus\n")


def _rs5_document_with(old: str, new: str) -> tuple[str, int]:
    """The RS [5,2] t=1 d=2 scheme document with line `old` replaced, and its line number."""
    lines = scheme_to_text(scheme_for_code(rs_build(5, 5, 2), t=1, d=2)).splitlines()
    at = lines.index(old)
    lines[at] = new
    return "\n".join(lines) + "\n", at + 1


@pytest.mark.parametrize(
    "old,new",
    [
        ("s 5", "s 4"),  # the code has 5 servers
        ("l 2", "l 3"),  # and dimension 2
        ("row 0,1,2,3,4", "row 0,1,2,3,04"),  # read as the same code, not written so
        ("labeling 1,2,3,4,5", "labeling 1,2,3,4,+5"),
    ],
)
def test_scheme_text_rejects_rows_and_headers_naming_the_line(old, new):
    doc, line = _rs5_document_with(old, new)
    with pytest.raises(DecodeError, match=f"^line {line}: {re.escape(repr(new))} is not"):
        scheme_from_text(doc)


def test_scheme_text_rejects_parameters_naming_them():
    doc, _ = _rs5_document_with("t 1", "t 0")
    with pytest.raises(DecodeError, match="t=0"):
        scheme_from_text(doc)
