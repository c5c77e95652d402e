import random

import pytest
from hypothesis import given, strategies as st

import golden
from butterflyseq.partitions import triangular_series
from butterflyseq.sequences import DIFF_WEIGHTS, named_sequence
from butterflyseq.series import (
    IDENTITIES, TruncSeries, VERIFIED_IDENTITIES, _FILTRATION,
    div_exact, expand_product, filtered_series, filtration_term,
    _Sides, poly, theta_pentagonal, theta_triangular,
    verify_all, verify_identity,
)

small_series = st.builds(
    lambda coeffs: TruncSeries.from_coeffs(12, coeffs),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=13),
)


# -- ring operations ----------------------------------------------------------

def test_ring_op_examples():
    N = 10
    a = poly(N, 1, -1)
    b = poly(N, 1, 1, 1)
    assert (a * b).coeffs[:5] == (1, 0, 0, -1, 0)          # (1-x)(1+x+x^2) = 1-x^3
    assert TruncSeries.one(N).shift(5)[5] == 1
    geo = TruncSeries(N, [1] * (N + 1))
    assert (geo * a).coeffs == (1,) + (0,) * N              # geometric * (1-x) = 1


def test_series_coefficients_are_a_tuple_of_order_plus_one():
    s = TruncSeries(3, iter([1, 0, -2, 5]))
    assert s.coeffs == (1, 0, -2, 5) and list(s) == [1, 0, -2, 5]
    with pytest.raises(ValueError, match="need 4 coefficients, got 3"):
        TruncSeries(3, [1, 0, -2])
    with pytest.raises(ValueError):
        TruncSeries(1, [1, 0, 0])


@given(small_series, small_series)
def test_addition_commutes(a, b):
    assert (a + b).coeffs == (b + a).coeffs


@given(small_series, small_series)
def test_multiplication_commutes(a, b):
    assert (a * b).coeffs == (b * a).coeffs


@given(small_series, small_series, small_series)
def test_distributivity(a, b, c):
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@given(small_series)
def test_div_exact_inverts_multiplication(a):
    for divisor in ((1, -1), (1, -2, 1), (1, 1, 1)):
        product = a * poly(a.order, *divisor)
        assert div_exact(product, divisor).coeffs == a.coeffs


def test_div_exact_examples():
    q = div_exact(poly(20, 1, 0, 0, 0, 0, 1, 0, 1), (1, 1, 1))
    assert q.coeffs[:6] == (1, -1, 0, 1, -1, 1)
    assert all(c == 0 for c in q.coeffs[6:])
    assert div_exact(poly(10, 1, 0, 0, -1), (1, 1, 1)).coeffs[:2] == (1, -1)
    with pytest.raises(ValueError):
        div_exact(poly(10, 1, 1), (2, 1))  # non-unit constant term
    with pytest.raises(ValueError):
        div_exact(poly(10, 1, 1), (0, 1))


def test_div_exact_cost_does_not_grow_with_the_coefficients():
    """A coefficient of 10**9 is one weighted term, not 10**9 copies of it:
    the division returns at once and multiplying back restores the input."""
    import time
    c = 10 ** 9
    a = poly(20, 1, 2, 3)
    t0 = time.perf_counter()
    q = div_exact(a, (1, c))
    assert time.perf_counter() - t0 < 0.1
    assert (q * poly(20, 1, c)).coeffs == a.coeffs
    assert q.coeffs[:3] == (1, 2 - c, 3 - c * (2 - c))


def test_div_exact_round_trip_on_series():
    N = 40
    s = expand_product("odd_reciprocal", N, 5)
    again = div_exact(s, (1, 1, 1)) * poly(N, 1, 1, 1)
    assert again.coeffs == s.coeffs


# -- products and filtrations -------------------------------------------------

def test_expand_product_examples():
    assert expand_product("distinct", 9)[9] == 8
    assert expand_product("odd_reciprocal", 14, 5)[14] == 2
    left = expand_product("double", 20)
    tri = theta_triangular(20)
    assert left.coeffs == tri.coeffs
    with pytest.raises(ValueError):
        expand_product("nope", 5)


def test_product_coefficients_match_counts():
    N = 50
    q = named_sequence("q", N)
    d = expand_product("distinct", N)
    assert all(d[n] == q[n] for n in range(N + 1))
    p = named_sequence("p", N)
    pp = expand_product("partitions", N)
    assert all(pp[n] == p[n] for n in range(N + 1))


def test_filtered_series_examples():
    assert filtered_series("butterfly_parts", 20)[9] == 1
    assert filtration_term("butterfly", 3, 20)[15] == 1
    assert filtered_series("butterfly_full", 20)[1] == -1


def test_per_k_terms_count_parts():
    # the k-th butterfly term generates butterfly partitions with exactly k parts
    from butterflyseq.partitions import iter_butterfly_tuples
    N = 45
    for k in (3, 4, 5):
        term = filtration_term("butterfly", k, N)
        for n in range(N + 1):
            want = sum(1 for t in iter_butterfly_tuples(n) if len(t) == k)
            assert term[n] == want, (k, n)
    for k in (1, 2, 3):
        term = filtration_term("strict", k, N)
        from butterflyseq.partitions import iter_strict_tuples
        for n in range(N + 1):
            want = sum(1 for t in iter_strict_tuples(n) if len(t) == k)
            assert term[n] == want, (k, n)


def test_second_difference_product_is_butterfly_series():
    N = 60
    s = named_sequence("s", N)
    lhs = poly(N, 1, -2, 1) * expand_product("distinct", N)
    assert all(lhs[n] == s[n] for n in range(N + 1))


# -- identity verification ----------------------------------------------------

def test_all_identities_verify():
    for report in verify_all(60):
        assert report.ok, report


def test_identity_report_values():
    rep = verify_identity("butterfly-filtration", 60)
    assert rep.ok
    lhs = div_exact(expand_product("odd_reciprocal", 60, 5), (1, 1, 1))
    assert lhs[18] == 2


def test_restricted_identity_fails_below_its_range():
    lhs = expand_product("odd_reciprocal", 40, 5)
    rhs = poly(40, 1, 1, 1) * filtered_series("butterfly_parts", 40)
    below = lhs.mismatches(rhs, 0, 8)
    assert below, "the degree restriction must be necessary"
    assert lhs.mismatches(rhs, 9) == []


def test_printed_lower_index_variants_fail_where_documented():
    rep = verify_identity("oddge5-filtration-printed", 40)
    assert rep.mismatches[0][0] == 5
    rep = verify_identity("butterfly-filtration-printed", 40)
    assert rep.mismatches == ((5, 1, 2),)
    rep = verify_identity("butterfly-alt-filtration-printed", 40)
    assert rep.mismatches[0][0] == 3


def test_multiplying_back_gives_odd_ge5_product():
    N = 60
    via_butterfly = filtered_series("butterfly_full", N) * poly(N, 1, 1, 1)
    direct = expand_product("odd_reciprocal", N, 5)
    assert via_butterfly.coeffs == direct.coeffs


def test_wrinkled_checksum_series():
    # the low-degree prefixes created by the cyclotomic multiplications
    N = 14
    s_side = theta_triangular(N) * poly(N, 1, -2, 1)
    assert s_side.coeffs[:6] == (1, -1, -1, 2, -2, 1)
    t_side = theta_triangular(N) * poly(N, 1, -1, 0, -1, 1)
    assert t_side[10] == 2
    assert t_side[11] == -1  # the printed case table says -2 here; see DEVIATIONS.md
    r_side = theta_triangular(N) * poly(N, 1, -1)
    assert r_side[2] == -1   # the printed case table says 0 here; see DEVIATIONS.md
    for m, printed, recomputed in golden.CHECKSUM_DEVIATIONS["t"]:
        assert t_side[m] == recomputed != printed
    for m, printed, recomputed in golden.CHECKSUM_DEVIATIONS["r"]:
        assert r_side[m] == recomputed != printed
    # the verify route, written at the triangular numbers, against the packed multiply
    for name, side in (("r", r_side), ("s", s_side), ("t", t_side)):
        assert tuple(triangular_series(N, DIFF_WEIGHTS[name])) == side.coeffs, name


# name, lo and note of every identity, in the order verify prints them
REGISTRY = (
    ("strict-filtration", 0, ""),
    ("oddparts-filtration", 0, ""),
    ("consec-filtration", 0, ""),
    ("oddge3-filtration", 0, ""),
    ("butterfly-product-filtration", 0, ""),
    ("butterfly-alt-filtration", 0, ""),
    ("oddge5-butterfly-tail", 9, "holds only from degree 9"),
    ("oddge5-filtration", 0, ""),
    ("butterfly-filtration", 0, ""),
    ("strict-pentagonal-split", 0, ""),
    ("consec-pentagonal-split", 0, ""),
    ("butterfly-pentagonal-split", 0, ""),
    ("triangular-double-product", 0, ""),
    ("strict-triangular-split", 0, ""),
    ("consec-triangular-split", 0, ""),
    ("butterfly-triangular-split", 0, ""),
    ("strict-checksum-series", 0, ""),
    ("consec-checksum-series", 0, ""),
    ("butterfly-checksum-series", 0, ""),
    ("oddge5-checksum-series", 0, ""),
    ("consec-powfree-product", 0, ""),
    ("oddge5-filtration-printed", 0, "printed lower index k=2; fails at degree 5"),
    ("butterfly-filtration-printed", 0, "printed lower index k=2; fails at degree 5"),
    ("butterfly-alt-filtration-printed", 0, "printed lower index k=3; fails at degree 3"),
)


def test_registry_names_order_lo_and_notes():
    """verify all and verify --help print the identities in this order."""
    assert [(name, lo, note) for name, (_, _, lo, note) in IDENTITIES.items()] == list(REGISTRY)
    assert VERIFIED_IDENTITIES == tuple(name for name, _, _ in REGISTRY[:21])


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify_identity("nope", 10)
    assert set(VERIFIED_IDENTITIES) <= set(IDENTITIES)


def test_series_json_dump():
    assert poly(3, 1, -1).to_json() == "[1, -1, 0, 0]"


# -- kernels against their references -------------------------------------------

def schoolbook(a, b):
    """Every (i, j) pair, zeros included: the reference for TruncSeries.__mul__."""
    if isinstance(b, int):
        return a.order, tuple(b * x for x in a.coeffs)
    N = min(a.order, b.order)
    out = [0] * (N + 1)
    for i in range(N + 1):
        for j in range(N + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return N, tuple(out)


def _root_spots(order):
    # about sqrt(order) nonzero terms: the shape of a theta series
    root = int((order + 1) ** 0.5)
    return st.dictionaries(st.integers(0, order), st.integers(-9, 9),
                           min_size=root, max_size=4 * root)


@st.composite
def any_series(draw):
    order = draw(st.integers(min_value=0, max_value=200))
    shape = draw(st.sampled_from(["zero", "sparse", "root", "dense", "negative", "lone"]))
    big = st.integers(min_value=-10 ** 20, max_value=10 ** 20)
    coeffs = [0] * (order + 1)
    if shape == "sparse":
        spots = st.dictionaries(st.integers(0, order), st.integers(-9, 9), max_size=4)
        for i, c in draw(spots).items():
            coeffs[i] = c
    elif shape == "root":
        for i, c in draw(_root_spots(order)).items():
            coeffs[i] = c
    elif shape == "dense":
        coeffs = draw(st.lists(big, min_size=order + 1, max_size=order + 1))
    elif shape == "negative":
        neg = st.integers(min_value=-10 ** 20, max_value=-1)
        coeffs = draw(st.lists(neg, min_size=order + 1, max_size=order + 1))
    elif shape == "lone":  # one nonzero term, at the top degree
        coeffs[order] = draw(big.filter(bool))
    return TruncSeries(order, coeffs)


@given(any_series(), st.one_of(any_series(), st.integers(-10 ** 6, 10 ** 6)))
def test_multiply_matches_schoolbook(a, b):
    product = a * b
    assert (product.order, product.coeffs) == schoolbook(a, b)
    swapped = b * a
    assert (swapped.order, swapped.coeffs) == schoolbook(a, b)


@pytest.fixture
def shifted_terms(monkeypatch):
    """For each multiply since the fixture was set up, the number of shifted
    copies of the packed denser factor it added."""
    from butterflyseq import series
    used = []
    real = series._mul_shifted

    def recorded(sparse, dense):
        used.append(len(sparse) - sparse.count(0))
        return real(sparse, dense)
    monkeypatch.setattr(series, "_mul_shifted", recorded)
    return used


def _product_shapes():
    from butterflyseq import partitions as pt
    out = []
    for N in (0, 1, 9, 100, 300):
        p = TruncSeries(N, pt.count_partitions_table(N))
        q = TruncSeries(N, pt.strict_pentagonal_table(N))
        theta = theta_pentagonal(N)
        out += [
            (p, poly(N, 1, -2, 1)),                 # a table times a difference polynomial
            (theta, poly(N, 1, -1, 0, -1, 1)),
            (p, poly(N, *[0] * N + [-7])),          # a lone term at degree N
            (p, theta),                             # a table times a theta series
            (q, theta * poly(N, 1, -2, 1)),
            (p, theta_triangular(N) * poly(N, 1, -1)),
            (p.scale(-1), q),                       # both dense
            (TruncSeries.zero(N), q),
        ]
    return out


def test_multiply_shifts_the_denser_factor_to_each_term_of_the_sparser(shifted_terms):
    shapes = _product_shapes()
    shifted_terms.clear()  # the shapes' own products
    for a, b in shapes:
        for x, y in ((a, b), (b, a)):
            got = x * y
            assert (got.order, got.coeffs) == schoolbook(x, y)
            nonzero = [len(s.coeffs) - s.coeffs.count(0) for s in (x, y)]
            assert shifted_terms == [min(nonzero)], (x.order, nonzero)
            shifted_terms.clear()


# -- the slot width of the packed multiply ------------------------------------------

def _reaching(bits, count, other):
    """m with count * m * other of exactly ``bits`` bits."""
    return (1 << bits - 1) // (count * other) + 1


def _width_cases():
    """(a, b, bound, signs): the product has a coefficient of degree
    <= N at +bound or -bound for each sign, and none beyond."""
    N = 100
    # shift-adds: 8 terms times a dense factor whose sign flips halfway, so
    # degrees 7..50 reach +8 m 3 and degrees 58..100 reach -8 m 3
    m = _reaching(72, 8, 3)
    halves = TruncSeries(N, [3] * 51 + [-3] * 50)
    yield poly(N, *[m] * 8), halves, 8 * m * 3, (1, -1)
    yield poly(N, *[-m] * 8), halves, 8 * m * 3, (1, -1)
    # a dense factor: all N + 1 pairs of degree N have the same sign
    m = _reaching(80, N + 1, 1)
    ones = TruncSeries(N, [1] * (N + 1))
    signs = TruncSeries(N, [(-1) ** i for i in range(N + 1)])
    yield ones.scale(m), ones, (N + 1) * m, (1,)
    yield ones.scale(-m), ones, (N + 1) * m, (-1,)
    yield signs.scale(m), signs, (N + 1) * m, (1,)


@pytest.mark.parametrize("case", range(5))
def test_packed_slots_hold_the_width_bound_exactly(case):
    """A coefficient reaches min(nonzero terms) max|a| max|b| itself, and
    that bound has a whole number of bytes, so a slot without the sign bit
    over it would overflow."""
    a, b, bound, signs = list(_width_cases())[case]
    got = a * b
    assert (got.order, got.coeffs) == schoolbook(a, b)
    assert bound.bit_length() % 8 == 0
    assert {c for c in got.coeffs if abs(c) >= bound} == {s * bound for s in signs}


def _low_and_high(N, lo, mid, sign):
    # zero below lo, small terms in lo..mid-1, terms of 10^40 from mid to N
    return TruncSeries(N, [0] * lo + [sign * (1 + i % 5) for i in range(lo, mid)]
                       + [-sign * 10 ** 40] * (N + 1 - mid))


@pytest.mark.parametrize("a, b", [
    # 13 terms against 60: every product with a wide term lands at 101 or above
    (TruncSeries(100, [0] * 41 + [(-1) ** i for i in range(7)] + [0] * 47
                 + [10 ** 40, -10 ** 40] * 3), _low_and_high(100, 41, 60, 1)),
    (_low_and_high(200, 81, 120, 1), _low_and_high(200, 81, 120, -1)),
])
def test_wide_terms_meeting_above_the_order_keep_their_slots(a, b):
    """Factors with coefficients of 10^40 whose products all land above
    degree N: the slots must still hold the factors themselves, and the
    degrees above N must not spill into those below."""
    got = a * b
    assert (got.order, got.coeffs) == schoolbook(a, b)
    assert max(map(abs, got.coeffs)) < 10 ** 3


# the named filtered series as sums of filtration_term, with 1/(1+x) taken as
# the alternating series: kind -> (filtration kind, smallest k, assemble)
def _alternating(N):
    return TruncSeries(N, [(-1) ** i for i in range(N + 1)])


FILTERED = {
    "strict": ("strict", 1, lambda N, tail: TruncSeries.one(N) + tail),
    "consec": ("consec", 2, lambda N, tail: TruncSeries.one(N) + tail),
    "butterfly_parts": ("butterfly", 3, lambda N, tail: tail),
    "odd_ge5_full": ("tail", 2,
                     lambda N, tail: poly(N, 1, 0, 0, 0, 0, 1, 0, 1) + poly(N, 1, 1, 1) * tail),
    "butterfly_full": ("tail", 2, lambda N, tail: poly(N, 1, -1, 0, 1, -1, 1) + tail),
    "butterfly_alt": ("alt_tail", 2, lambda N, tail: poly(N, 1, -1) + _alternating(N) * tail),
}


def _term_by_term(kind, N, k_lo):
    total = TruncSeries.zero(N)
    k = k_lo
    while True:
        term = filtration_term(kind, k, N)
        if not any(term.coeffs):  # x^{e(k)} has coefficient 1 while e(k) <= N
            return total
        total = total + term
        k += 1


def _check_filtered(name, N):
    kind, k_min, assemble = FILTERED[name]
    for k_lo in range(k_min, k_min + 4):
        want = assemble(N, _term_by_term(kind, N, k_lo))
        assert filtered_series(name, N, k_lo).coeffs == want.coeffs, (name, N, k_lo)


@pytest.mark.parametrize("name", sorted(FILTERED))
def test_filtered_series_is_the_sum_of_its_terms(name):
    assert {kind for kind, _, _ in FILTERED.values()} == set(_FILTRATION)
    for N in range(121):
        _check_filtered(name, N)
    _check_filtered(name, 700)


@pytest.mark.parametrize("name", sorted(FILTERED))
def test_filtered_series_refuses_k_lo_below_its_smallest_k(name):
    """k_lo = 0 is below every kind's smallest k, not its default."""
    kind, k_min, _ = FILTERED[name]
    for k_lo in {0, k_min - 1}:
        for N in (0, 20, 40):
            with pytest.raises(ValueError, match="k too small for %s$" % kind):
                filtered_series(name, N, k_lo)
            with pytest.raises(ValueError, match="k too small for %s$" % kind):
                _Sides(N).filtered(name, k_lo)
    for N in (0, 40):
        with pytest.raises(ValueError, match="k too small for %s$" % kind):
            filtration_term(kind, k_min - 1, N)


def test_report_that_checked_no_degree_is_not_ok():
    rep = verify_identity("oddge5-butterfly-tail", 8)
    assert rep.checked == 0 and rep.mismatches == () and not rep.ok
    assert str(rep) == ("oddge5-butterfly-tail: no degree checked "
                        "(holds from degree 9, order 8)")
    rep = verify_identity("oddge5-butterfly-tail", 9)
    assert rep.checked == 1 and rep.ok
    assert not all(r.ok for r in verify_all(8))


def test_verify_all_builds_each_side_once_per_call(monkeypatch, capsys):
    """Each product and filtration sum is built once and kept in the
    process's store: a call at or below the longest order so far builds
    nothing, and a longer one builds each side exactly once more."""
    from collections import Counter

    from butterflyseq import partitions as pt
    from butterflyseq import series
    from butterflyseq.cli import main

    want = [verify_identity(name, 60) for name in VERIFIED_IDENTITIES]
    want_30 = verify_all(30)
    built = Counter()

    def counting(name, key):
        real = getattr(series, name)

        def counted(*args):
            built[(name,) + key(*args)] += 1
            return real(*args)
        monkeypatch.setattr(series, name, counted)

    counting("expand_product", lambda kind, N, param=None: (kind, param))
    counting("filtered_series", lambda kind, N, k_lo=None: (kind, k_lo))
    counting("_double_product", lambda q: ())
    counting("_sum_filtration", lambda kind, N, k_lo: _FILTRATION[kind][1:] + (k_lo,))
    pt._SOLVED.clear()  # want built every side before the counters
    assert main(["verify", "all", "--order", "60"]) == 0
    assert capsys.readouterr().out == "\n".join(map(str, want)) + "\n"
    assert built[("expand_product", "partitions", None)] == 1      # 3 uses
    assert built[("_sum_filtration", 3, 3, 3)] == 1                # butterfly and tail
    assert ("expand_product", "distinct", None) not in built       # the stored q table
    assert len(built) == 11 and set(built.values()) == {1}
    once = dict(built)
    # the store keeps them past the call
    assert verify_all(60) == want
    assert verify_all(30) == want_30
    assert built == once
    assert verify_all(61) == [verify_identity(name, 61) for name in VERIFIED_IDENTITIES]
    assert built == {key: 2 for key in once}


# -- the store of verify sides ------------------------------------------------

PRINTED = tuple(name for name in IDENTITIES if name.endswith("-printed"))

# every side verify keeps in the process's store (partitions.SOLVED_KEYS)
STORED_SIDES = {
    ("product", "partitions", None), ("product", "odd_reciprocal", 1),
    ("product", "odd_reciprocal", 3), ("product", "odd_reciprocal", 5),
    ("product", "even_reciprocal", None), ("product", "distinct_not_pow2", None),
    ("product", "double", None),
    ("sum", 1, 1, 1), ("sum", 1, 2, 2), ("sum", 3, 3, 3),     # strict, consec, butterfly/tail
    ("sum", 3, 3, 2), ("sum", 1, 3, 2), ("sum", 1, 3, 3),     # tail k >= 2, alt_tail
}


def _every_report(N):
    return verify_all(N) + [verify_identity(name, N) for name in PRINTED]


def test_verify_at_shuffled_orders_equals_verify_on_a_fresh_store():
    from butterflyseq import partitions as pt

    orders = list(range(121)) + [300, 700, 2000]
    fresh = {}
    for N in orders:
        pt._SOLVED.clear()
        fresh[N] = _every_report(N)
    pt._SOLVED.clear()
    random.Random(24).shuffle(orders)
    for N in orders:
        assert _every_report(N) == fresh[N], N


def test_store_holds_one_side_per_key_as_long_as_the_longest_order():
    """The keys are the closed set STORED_SIDES and q, whichever identities
    are asked for, and each table is one longer than the largest order of
    an identity that reads it."""
    from butterflyseq import partitions as pt

    reads = {}
    for name in IDENTITIES:
        pt._SOLVED.clear()
        verify_identity(name, 12)
        reads[name] = set(pt._SOLVED)
    assert set().union(*reads.values()) == STORED_SIDES | {"q"}
    butterfly = {("butterfly", None), ("butterfly", 0), ("butterfly", 1)}
    assert set(pt.SOLVED_KEYS) == STORED_SIDES | {"q", "p", "theta"} | butterfly
    assert len(pt.SOLVED_KEYS) == len(STORED_SIDES) + 6
    pt._SOLVED.clear()
    rng = random.Random(7)
    longest = {}
    for _ in range(80):
        name, N = rng.choice(list(IDENTITIES)), rng.randint(0, 400)
        verify_identity(name, N)
        for key in reads[name]:
            longest[key] = max(longest.get(key, -1), N)
        assert {key: len(v) for key, v in pt._SOLVED.items()} == {
            key: N + 1 for key, N in longest.items()}
    _every_report(450)
    assert {key: len(v) for key, v in pt._SOLVED.items()} == {
        key: 451 for key in STORED_SIDES | {"q"}}


def test_a_side_build_that_raises_leaves_the_store(monkeypatch):
    """A kernel that raises (here MemoryError, once) while verify extends a
    side leaves every stored table as it was, and the next call answers."""
    from butterflyseq import partitions as pt

    want = _every_report(100)
    pt._SOLVED.clear()
    _every_report(50)
    pt.strict_pentagonal_table(100)  # so that the first build past 50 is a side
    stored = dict(pt._SOLVED)
    real = pt._packed_nested_sum

    def fail_once(*args):
        monkeypatch.setattr(pt, "_packed_nested_sum", real)
        raise MemoryError

    monkeypatch.setattr(pt, "_packed_nested_sum", fail_once)
    with pytest.raises(MemoryError):
        verify_all(100)
    assert pt._SOLVED == stored
    assert all(pt._SOLVED[key] is table for key, table in stored.items())
    assert _every_report(100) == want
    assert {len(v) for v in pt._SOLVED.values()} == {101}


def test_expand_product_and_filtered_series_keep_no_side():
    """The pure functions keep nothing: only the q table that "distinct" and
    "double" read is stored."""
    from butterflyseq import partitions as pt

    for N in (0, 30, 300):
        for kind, param in [(key[1], key[2]) for key in STORED_SIDES if key[0] == "product"]:
            expand_product(kind, N, param)
        expand_product("distinct", N)
        for kind, k_lo in (("strict", None), ("consec", None), ("butterfly_parts", None),
                           ("odd_ge5_full", None), ("odd_ge5_full", 2),
                           ("butterfly_full", None), ("butterfly_full", 2),
                           ("butterfly_alt", None), ("butterfly_alt", 3)):
            filtered_series(kind, N, k_lo)
        assert set(pt._SOLVED) == {"q"}, N
