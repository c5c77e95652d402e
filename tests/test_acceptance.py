"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact integer equality.  Printed-table entries that
disagree with exact recomputation are catalogued in tests/golden.py and
DEVIATIONS.md; the golden criterion asserts the computed value matches the
printed one away from the catalogued points and the recomputed one on them.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os

import golden
from butterflyseq.families import (
    EQUAL_TRIPLE, STAIRCASE_321, STAIRCASE_33,
    Family, count_family,
)
from butterflyseq.partitions import Partition, count_butterfly, iter_butterfly_tuples
from butterflyseq.pentagonal import parity_refined_counts, enumerate_bars, parity_relation_holds
from butterflyseq.recurrences import (
    CHECKSUM_NAMES, checksum, expected_checksum, recursive_solve, validate_route,
)
from butterflyseq.sequences import named_sequence, parity_exception_inputs
from butterflyseq.series import expand_product, filtered_series, poly, verify_identity
from butterflyseq.splitmerge import STANDARD, SWITCHED, count_capped, merge_odd, split

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(num, label, ok):
    print("ACCEPTANCE %02d %s: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, label)


def test_criterion_01_golden_sequences():
    specs = [
        ("q", 0, golden.Q_PRINTED),
        ("r", 0, golden.R_PRINTED),
        ("s", 0, golden.S_PRINTED),
        ("t", 0, golden.T_PRINTED),
        ("s_e", 6, golden.SE_PRINTED),
        ("s_o", 6, golden.SO_PRINTED),
        ("r1", 3, golden.R1_PRINTED),
        ("r2", 3, golden.R2_PRINTED),
        ("r1_dprime", 5, golden.R1_DPRIME_PRINTED),
    ]
    ok = True
    for name, offset, printed in specs:
        table = named_sequence(name, offset + len(printed) - 1)
        for i in range(len(printed)):
            n = offset + i
            if table[n] != golden.expect(name, offset, printed, n):
                ok = False
    report(1, "golden sequences against the printed tables", ok)


def test_criterion_02_butterfly_interpretation():
    s = named_sequence("s", 80)
    ok = all(s[n] == count_butterfly(n) for n in range(80, 5, -1))
    report(2, "second difference counts butterfly partitions (6..80)", ok)


def test_criterion_03_alternative_families():
    s = named_sequence("s", 60)
    ok = True
    for n in range(6, 61):
        if not (count_family(n, Family(EQUAL_TRIPLE)) == s[n]
                == count_family(n, Family(STAIRCASE_321))
                == count_family(n, Family(STAIRCASE_33))):
            ok = False
    report(3, "equal-triple and staircase counts equal the sequence (6..60)", ok)


def test_criterion_04_series_identities():
    restricted = verify_identity("oddge5-butterfly-tail", 80)
    full_a = verify_identity("oddge5-filtration", 80)
    full_b = verify_identity("butterfly-filtration", 80)
    ok = restricted.ok and full_a.ok and full_b.ok
    # the restriction on the first identity is genuine: it fails below 9
    lhs = expand_product("odd_reciprocal", 20, 5)
    rhs = poly(20, 1, 1, 1) * filtered_series("butterfly_parts", 20)
    ok = ok and bool(lhs.mismatches(rhs, 0, 8))
    # combinatorial form: odd parts >= 5 vs butterfly core plus up to two 1s
    from butterflyseq.families import BUTTERFLY_PLUS_ONES, ODD_GE
    for n in range(9, 81):
        if (count_family(n, Family(ODD_GE, 5))
                != count_family(n, Family(BUTTERFLY_PLUS_ONES))):
            ok = False
    report(4, "odd-ge-5 identities (restricted 9..80, filtrations 0..80)", ok)


def test_criterion_05_split_merge_round_trip():
    ok = True
    for n in range(6, 61):
        for tup in iter_butterfly_tuples(n):
            p = Partition(tup)
            for variant in (STANDARD, SWITCHED):
                if merge_odd(split(p, variant), variant) != p:
                    ok = False
    # the worked splitting/merging examples, inputs and outputs exact
    P = Partition
    pairs_standard = [
        (P([5, 4, 3]), P([3, 3, 3, 3])),
        (P([9, 8, 7, 6, 5, 4, 3, 2]), P([13, 7, 7, 5, 3, 3, 3, 3])),
        (P([10, 9, 8, 7, 6, 5, 4, 3]), P([15, 9, 7, 7, 5, 3, 3, 3])),
        (P([5, 4, 3, 2]), P([5, 3, 3, 3])),
        (P([13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2]),
         P([25, 11, 11, 9, 7, 5, 5, 5, 3, 3, 3, 3])),
        (P([7, 6, 5, 4, 3, 2]), P([11, 5, 5, 3, 3])),
        (P([10, 9, 8]), P([11, 9, 7])),
        (P([4, 3, 2]), P([3, 3, 3])),
    ]
    for p, q in pairs_standard:
        ok = ok and split(p, STANDARD) == q and merge_odd(q, STANDARD) == p
    pairs_switched = [
        (P([7, 6, 5, 4, 3, 2]), P([13, 5, 3, 3, 3])),
        (P([10, 9, 8]), P([9, 9, 9])),
        (P([5, 4, 3]), P([3, 3, 3, 3])),
    ]
    for p, q in pairs_switched:
        ok = ok and split(p, SWITCHED) == q and merge_odd(q, SWITCHED) == p
    report(5, "split/merge round trip (n <= 60) and worked examples", ok)


def test_criterion_06_capped_counts():
    ok = True
    for n in range(60, 5, -1):
        want = (count_butterfly(n, 0), count_butterfly(n, 1))
        if count_capped(n, STANDARD) != want or count_capped(n, SWITCHED) != want:
            ok = False
    report(6, "capped odd-form counts match both subsequences (6..60)", ok)


def test_criterion_07_parity_structure():
    ok = all(parity_relation_holds(n) for n in range(6, 121))
    got = parity_exception_inputs(51)
    want = sorted(golden.EXCEPTIONS_PRINTED + golden.EXCEPTIONS_MISSING)
    ok = ok and got == want
    for n in range(6, 61):
        for h in range(3, 7):
            ae, ao, be, bo = enumerate_bars(n, h)
            if len(ae) != len(bo) or len(ao) != len(be):
                ok = False
    report(7, "parity relation (6..120), exception inputs, bar cardinalities", ok)


def test_criterion_08_parity_refined_relations():
    ok = all(parity_refined_counts(n).relations_hold for n in range(6, 61))
    report(8, "parity-refined count relations with stated signs (6..60)", ok)


def test_criterion_09_recurrences():
    routes = [
        ("pentagonal", "q", "p"),
        ("pentagonal", "r", "dp"),
        ("pentagonal", "r", "p-with-poly"),
        ("pentagonal", "s", "p-with-poly"),
        ("triangular", "q", "p"),
        ("triangular", "r", "p-with-poly"),
        ("triangular", "s", "p-with-poly"),
    ]
    ok = all(validate_route(kind, name, basis, 120) == []
             for kind, name, basis in routes)
    # the second-difference-basis route is a documented misprint: it must
    # fail, starting at m = 1, exactly by the basis-table edge difference
    bad = validate_route("pentagonal", "s", "d2p", 120)
    ok = ok and bad and bad[0] == (1, 0, -1)
    report(9, "pentagonal/triangular recurrences (m <= 120; d2p route logged)", ok)


def test_criterion_10_checksums():
    ok = True
    tables = {name: named_sequence(name, 200) for name in CHECKSUM_NAMES}
    for name in CHECKSUM_NAMES:
        for m in range(201):
            if checksum(name, m, tables[name]) != expected_checksum(name, m):
                ok = False
    ok = ok and [checksum("s", m, tables["s"]) for m in range(6)] == [1, -1, -1, 2, -2, 1]
    ok = ok and checksum("t", 10, tables["t"]) == 2
    # the printed case table gives -2 at m = 11; the exact value is -1
    # (documented deviation), and the checksum relation must agree with it
    ok = ok and checksum("t", 11, tables["t"]) == expected_checksum("t", 11) == -1
    for name in CHECKSUM_NAMES:
        solved = recursive_solve(name, 120)
        if list(solved.values) != [tables[name][m] for m in range(121)]:
            ok = False
    report(10, "checksum case tables (m <= 200) and recursive rebuild (m <= 120)", ok)


def _load_bfile(fname):
    rows = {}
    with open(os.path.join(FIXTURES, fname)) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            n, v = line.split()
            rows[int(n)] = int(v)
    return rows


def test_criterion_11_oeis_fixtures():
    ok = True
    q = named_sequence("q", 50)
    for n, v in _load_bfile("a000009.txt").items():
        ok = ok and q[n] == v
    r = named_sequence("r", 40)
    for n, v in _load_bfile("a087897.txt").items():
        ok = ok and r[n] == v
    dp = named_sequence("dp", 30)
    for n, v in _load_bfile("a002865.txt").items():
        ok = ok and dp[n] == v
    d2p = named_sequence("d2p", 30)
    p = named_sequence("p", 30)
    for n, v in _load_bfile("a053445.txt").items():
        # the fixture is the raw second difference; the combinatorial count
        # agrees with it from n = 3 on (the n = 2 entry is the known edge)
        ok = ok and (p[n] - 2 * p[n - 1] + p[n - 2]) == v
        if n >= 3:
            ok = ok and d2p[n] == v
        else:
            ok = ok and v == 1 and d2p[n] == 0
    report(11, "vendored reference-sequence fixtures", ok)
