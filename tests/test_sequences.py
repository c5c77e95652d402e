import collections

import pytest

import golden
from butterflyseq import families, sequences, splitmerge
from butterflyseq import partitions as pt
from butterflyseq.families import (
    BUTTERFLY,
    CONSEC_ISOLATED,
    CONSEC_NO_ONE,
    CONSEC_WITH_ONE,
    EQUAL_TRIPLE,
    STAIRCASE_321,
    STAIRCASE_33,
    Family,
    count_table,
    enumerate_family,
)
from butterflyseq.sequences import (
    SequenceTable,
    crosscheck_table,
    difference,
    exception_form_of,
    mod3_slices,
    named_sequence,
    parity_exception_inputs,
    to_bfile,
    to_json,
)


def check_against_printed(name, offset, printed):
    table = named_sequence(name, offset + len(printed) - 1)
    for i, printed_val in enumerate(printed):
        n = offset + i
        want = golden.expect(name, offset, printed, n)
        assert table[n] == want, (name, n, table[n], want)
        if (name, n) in golden.DEVIATIONS:
            assert table[n] != printed_val  # the deviation is real


def test_q_golden():
    check_against_printed("q", 0, golden.Q_PRINTED)


def test_r_golden():
    check_against_printed("r", 0, golden.R_PRINTED)


def test_s_golden():
    check_against_printed("s", 0, golden.S_PRINTED)


def test_t_golden():
    check_against_printed("t", 0, golden.T_PRINTED)


def test_se_so_golden():
    check_against_printed("s_e", 6, golden.SE_PRINTED)
    check_against_printed("s_o", 6, golden.SO_PRINTED)


def test_r1_r2_golden():
    check_against_printed("r1", 3, golden.R1_PRINTED)
    check_against_printed("r2", 3, golden.R2_PRINTED)


def test_r1_dprime_golden():
    check_against_printed("r1_dprime", 5, golden.R1_DPRIME_PRINTED)


def test_r1_prime_recomputed():
    """The printed isolated-pair table is unreliable; the oracle values are
    pinned here and shown consistent with the subtraction and shift routes."""
    table = named_sequence("r1_prime", 27)
    assert list(table.values) == golden.R1_PRIME_RECOMPUTED
    r1 = named_sequence("r1", 27)
    r1pp = named_sequence("r1_dprime", 27)
    r2 = named_sequence("r2", 27)
    for n in range(5, 28):
        assert table[n] == r1[n] - r1pp[n]
        if n >= 6:
            assert table[n] == r2[n - 1]
    # the two entries flagged in the published table, plus further slots,
    # disagree with the oracle (see DEVIATIONS.md)
    printed = dict(zip(range(5, 28), golden.R1_PRIME_PRINTED))
    assert printed[9] == 2 and table[9] == 1
    assert printed[19] == 2 and table[19] == 4


def test_difference_examples():
    q = named_sequence("q", 23)
    r = difference(q)
    assert r[9] == 2
    s = difference(r)
    assert s[18] == 2
    ones = SequenceTable("one", 0, [1] * 8)
    assert list(difference(ones).values) == [1, 0, 0, 0, 0, 0, 0, 0]


def test_named_sequence_examples():
    assert list(named_sequence("q", 23).values) == golden.Q_PRINTED
    assert named_sequence("t", 14)[14] == 2
    assert named_sequence("s_e", 12)[12] == 1
    assert named_sequence("s_o", 12)[12] == 0
    assert named_sequence("d2p", 4)[4] == 1
    with pytest.raises(ValueError):
        named_sequence("nope", 10)


def test_s_equals_both_definitions():
    # first difference of r and second difference of q agree everywhere
    q = named_sequence("q", 60)
    r = named_sequence("r", 60)
    s = named_sequence("s", 60)
    for n in range(61):
        assert s[n] == r[n] - r[n - 1]
        assert s[n] == q[n] - 2 * q[n - 1] + q[n - 2]


def test_mod3_slices():
    s = named_sequence("s", 51)
    r0 = mod3_slices(s, 0, 3)
    r1 = mod3_slices(s, 1, 3)
    r2 = mod3_slices(s, 2, 3)
    assert list(r0.values) == golden.S_MOD3_R0_PRINTED
    assert list(r1.values) == golden.S_MOD3_R1_PRINTED
    for i, printed_val in enumerate(golden.S_MOD3_R2_PRINTED):
        want = golden.expect("s_mod3_r2", 3, golden.S_MOD3_R2_PRINTED, 3 + i)
        assert r2.values[i] == want
    assert r2[3] == 0  # s(11)


def test_exception_count_is_the_listed_length():
    # the closed-form count that guards the listing, against the listing
    from butterflyseq.sequences import _exception_count
    for N in list(range(-1, 3001)) + [10 ** 5, 123457]:
        assert _exception_count(N) == len(parity_exception_inputs(N)), N


def test_exception_listing_refused_just_above_its_budget(monkeypatch):
    from butterflyseq import partitions, sequences
    listed = parity_exception_inputs(500)
    monkeypatch.setattr(partitions, "LISTING_BUDGET", len(listed))
    assert parity_exception_inputs(500) == listed
    nxt = next(N for N in range(501, 1000) if sequences._exception_count(N) > len(listed))
    with pytest.raises(ValueError, match="budget"):
        parity_exception_inputs(nxt)


def test_parity_exception_inputs():
    got = parity_exception_inputs(51)
    assert got == sorted(golden.EXCEPTIONS_PRINTED + golden.EXCEPTIONS_MISSING)
    assert parity_exception_inputs(8) == []
    got60 = parity_exception_inputs(60)
    assert got60 == got + [53, 57, 59]
    # the two missing entries really are exceptional: enumeration disagrees
    se = named_sequence("s_e", 51)
    so = named_sequence("s_o", 51)
    for n in golden.EXCEPTIONS_MISSING:
        assert se[n] != so[n]
    for n in range(6, 52):
        assert (se[n] != so[n]) == (n in got)


def test_exception_forms_are_disjoint():
    for n in range(6, 400):
        exception_form_of(n)  # raises if two forms collide


def test_parity_structure_of_s():
    # s(n) odd exactly at n = 5 and the closed-form inputs, for n >= 5, n != 7
    s = named_sequence("s", 120)
    exceptional = set(parity_exception_inputs(120)) | {5}
    for n in range(5, 121):
        if n == 7:
            continue
        assert (s[n] % 2 == 1) == (n in exceptional), n


def test_crosschecks_pass():
    for name in ("q", "r", "s", "t", "s_e", "s_o", "p", "dp", "d2p"):
        assert crosscheck_table(name, 50) == []
    for name in ("p", "dp", "d2p"):  # d2p's + x - x^2 in the shortest tables too
        for N in (0, 1, 2, 400):
            assert crosscheck_table(name, N) == []


@pytest.mark.parametrize("name, routes", [
    ("q", ("listing", "odd-parts", "strict-dp")),
    ("r", ("difference", "odd-ge-3")),
    ("s", ("difference", "butterfly")),
    ("t", ("odd-ge-5",)),
    ("s_e", ("butterfly-parity",)),
    ("s_o", ("butterfly-parity",)),
    ("p", ("counting-dp",)),
    ("dp", ("counting-dp",)),
    ("d2p", ("counting-dp",)),
])
def test_crosscheck_reports_an_altered_value(monkeypatch, name, routes):
    real = sequences.named_sequence

    def altered(seq_name, N):
        table = real(seq_name, N)
        if seq_name != name:
            return table
        vals = list(table.values)
        vals[20 - table.offset] += 1
        return SequenceTable(table.name, table.offset, vals, table.provenance)

    monkeypatch.setattr(sequences, "named_sequence", altered)
    found = crosscheck_table(name, 30)
    assert sorted((route, n) for _, n, route, _, _ in found) == sorted(
        (route, 20) for route in routes)


@pytest.mark.parametrize("name, moved", [("r", (20, 21)), ("s", (20, 21, 22))])
def test_difference_route_reports_an_altered_q(monkeypatch, name, moved):
    # r and s are built from the pentagonal q, so their difference route must
    # read q from elsewhere to see a fault in it
    real = sequences.pt.strict_pentagonal_table

    def altered(N):
        q = real(N)
        q[20] += 1
        return q

    monkeypatch.setattr(sequences.pt, "strict_pentagonal_table", altered)
    found = crosscheck_table(name, 30)
    assert sorted(n for _, n, route, _, _ in found if route == "difference") == list(moved)


@pytest.mark.parametrize("name, dp", [
    ("p", "count_partitions_table"),
    ("dp", "count_no_ones_table"),
    ("d2p", "count_no_ones_repeated_top_table"),
])
def test_p_tables_call_the_pentagonal_kernel_and_their_routes_the_dp(monkeypatch, name, dp):
    """The production table never runs its O(N^2) DP, and the cross-check
    route runs the DP and never the pentagonal kernel, so the two are
    independent."""
    real_dp, real_kernel = getattr(sequences.pt, dp), sequences.pt.pentagonal_solve
    calls = {"dp": 0, "kernel": 0}

    def refuse(*args):
        raise AssertionError("reached a function it must not call")

    def counted(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(sequences.pt, dp, refuse)
    monkeypatch.setattr(sequences.pt, "pentagonal_solve", counted("kernel", real_kernel))
    table = named_sequence(name, 80)
    assert calls["kernel"] == 1
    monkeypatch.setattr(sequences, "named_sequence", lambda seq_name, N: table)
    monkeypatch.setattr(sequences.pt, "pentagonal_solve", refuse)
    monkeypatch.setattr(sequences.pt, dp, counted("dp", real_dp))
    assert crosscheck_table(name, 80) == []
    assert calls["dp"] == 1


@pytest.mark.parametrize("name", ["s_e", "s_o"])
def test_butterfly_parity_route_reads_the_strict_dp_not_the_butterfly_counts(monkeypatch,
                                                                              name):
    """The s_e/s_o route is (s +- delta)/2 from the strict DP and the closed
    forms: it never reaches the counts the production table comes from."""
    table = named_sequence(name, 80)
    real_dp = sequences.pt.count_strict_table
    calls = {"dp": 0}

    def refuse(*args, **kwargs):
        raise AssertionError("reached a function it must not call")

    def counted(N):
        calls["dp"] += 1
        return real_dp(N)

    monkeypatch.setattr(sequences, "named_sequence", lambda seq_name, N: table)
    for fn in ("count_butterfly", "count_head_tail"):
        monkeypatch.setattr(sequences.pt, fn, refuse)
    monkeypatch.setattr(sequences, "count_family", refuse)
    monkeypatch.setattr(sequences.pt, "count_strict_table", counted)
    assert crosscheck_table(name, 80) == []
    assert calls["dp"] == 1

    def altered(N):  # q(20) + 1 moves s(20), s(21), s(22) by +1, -2, +1
        q = real_dp(N)
        q[20] += 1
        return q

    monkeypatch.setattr(sequences.pt, "count_strict_table", altered)
    found = crosscheck_table(name, 30)
    assert [(n, expected is None) for _, n, _, expected, _ in found] == [
        (20, True), (21, False), (22, True)]


def test_s_crosscheck_never_reaches_the_memo(monkeypatch):
    """The butterfly route of s is one packed head-and-tail table built
    apart from the store: neither count_butterfly's stored table nor the
    per-n memo, which recurses one part size per frame, is reached, so the
    check answers at any N."""
    def refuse(*args, **kwargs):
        raise AssertionError("reached the memo")

    for fn in ("count_butterfly", "count_head_tail", "_strict_bounded_count"):
        monkeypatch.setattr(sequences.pt, fn, refuse)
    for N in (50, 2000):
        assert crosscheck_table("s", N) == []


def test_exports():
    t = named_sequence("q", 5)
    assert to_bfile(t) == "0 1\n1 1\n2 1\n3 2\n4 2\n5 3\n"
    blob = to_json(t)
    assert blob["offset"] == 0 and blob["values"] == [1, 1, 1, 2, 2, 3]
    r1 = named_sequence("r1", 5)
    assert to_bfile(r1) == "3 0\n4 0\n5 1\n"


def test_table_indexing():
    t = named_sequence("r1", 10)
    assert t[2] == 0  # below offset reads as zero
    with pytest.raises(IndexError):
        t[11]
    # values are kept as a tuple; iteration runs through __getitem__ from
    # input 0, so the inputs below the offset come first as zeros
    t = SequenceTable("x", 2, iter([5, 6, 7]))
    assert t.values == (5, 6, 7) and t.last_n == 4
    assert t[0] == t[1] == 0 and t[2] == 5
    assert list(t) == [0, 0, 5, 6, 7]


# -- the tables counted from the head-and-tail kernel ---------------------------------

# name -> (family listed, parity of its split key) for the tables counted from
# a head-and-tail table: e, o split the equal triples by the repeated value,
# the primed tables the staircases by their number of parts
COUNTED = {
    "r1": (CONSEC_NO_ONE, None), "r2": (CONSEC_WITH_ONE, None),
    "r1_prime": (CONSEC_ISOLATED, None),
    "e": (EQUAL_TRIPLE, 0), "o": (EQUAL_TRIPLE, 1),
    "e_prime": (STAIRCASE_321, 0), "o_prime": (STAIRCASE_321, 1),
    "e_dprime": (STAIRCASE_33, 0), "o_dprime": (STAIRCASE_33, 1),
}
SPLIT_KEYS = {EQUAL_TRIPLE: lambda p: p[0], STAIRCASE_321: len, STAIRCASE_33: len}


def test_counted_tables_equal_their_listings():
    """Each of the nine counted tables equals the length of its family's
    listing, split by the parity of its key, for n <= 90; each family is
    listed once per n."""
    N = 90
    tables = {name: named_sequence(name, N) for name in COUNTED}
    for n in range(N + 1):
        listed = {kind: enumerate_family(n, Family(kind)) for kind, _ in COUNTED.values()}
        for name, (kind, parity) in COUNTED.items():
            members = listed[kind]
            want = len(members) if parity is None else sum(
                1 for p in members if SPLIT_KEYS[kind](p) % 2 == parity)
            assert tables[name][n] == want, (name, n)


def test_counted_tables_obey_the_relations_with_the_pentagonal_tables():
    """r1 + r2 = r, r1 - r1' = s and e + o = s against the r and s of the
    pentagonal q, to N = 2000 (s from n = 6, where it counts butterflies)."""
    N = 2000
    r, s = named_sequence("r", N), named_sequence("s", N)
    r1, r2, r1p, e, o = (named_sequence(name, N) for name in ("r1", "r2", "r1_prime", "e", "o"))
    assert all(r1[n] + r2[n] == r[n] for n in range(1, N + 1))
    assert all(r1[n] - r1p[n] == s[n] == e[n] + o[n] for n in range(6, N + 1))


def test_butterfly_shape_tables_equal_count_butterfly():
    """e' = s_o and o' = s_e, counted from the butterfly shape's table, equal
    the per-n memo count_head_tail for n <= 1000, and so do the whole table
    and count_butterfly, which reads the same kernel from the store."""
    N = 1000
    want = {parity: [pt.count_head_tail(n, pt.BUTTERFLY_SHAPE, parity) for n in range(N + 1)]
            for parity in (None, 0, 1)}
    assert count_table(N, Family(BUTTERFLY)) == want[None]
    for parity in (None, 0, 1):  # largest n first, so the stored table is built once
        assert [pt.count_butterfly(n, parity) for n in range(N, -1, -1)] == want[parity][::-1]
    assert list(named_sequence("e_prime", N).values) == want[1][6:]
    assert list(named_sequence("o_prime", N).values) == want[0][6:]


def test_counted_tables_list_nothing(monkeypatch):
    """named_sequence reaches no lister and not the memoised counts for the
    nine counted tables; every watched name exists in families or
    partitions, and the counters are live (s_e reaches count_butterfly)."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("enumerate_family", "iter_head_tail_tuples", "iter_strict_tuples",
                 "iter_partition_tuples", "iter_butterfly_tuples", "pool_tuples",
                 "_iter_staircase", "count_head_tail",
                 "count_butterfly"):
        assert hasattr(families, name) or hasattr(pt, name), name
        for module in (families, pt, splitmerge):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name in COUNTED:
        named_sequence(name, 120)
    assert calls == {}
    named_sequence("s_e", 20)
    assert calls["count_butterfly"] == 15
