import pytest

import golden
from butterflyseq import partitions as pt
from butterflyseq.recurrences import (
    CHECKSUM_NAMES,
    checksum,
    expected_checksum,
    expected_checksum_series,
    recur_value,
    recursive_solve,
    triangular_value,
    validate_route,
)
from butterflyseq.sequences import counting_dp, named_sequence


def test_recur_value_examples():
    assert recur_value("q", 5) == 3           # p(5) - p(3) - p(1)
    assert recur_value("q", 0) == 1
    assert recur_value("s", 9, "p-with-poly") == 1


def test_triangular_value_examples():
    assert triangular_value("q", 5) == 3      # p(2) + p(1)
    assert triangular_value("q", 0) == 1
    assert triangular_value("s", 18) == 2


@pytest.mark.parametrize("kind,name,basis", [
    ("pentagonal", "q", "p"),
    ("pentagonal", "r", "dp"),
    ("pentagonal", "r", "p-with-poly"),
    ("pentagonal", "s", "p-with-poly"),
    ("triangular", "q", "p"),
    ("triangular", "r", "p-with-poly"),
    ("triangular", "s", "p-with-poly"),
])
def test_valid_routes_reproduce_tables(kind, name, basis):
    assert validate_route(kind, name, basis, 80) == []


def test_d2p_route_fails_where_documented():
    """The second-difference route over the no-ones-repeated-largest table
    cannot validate: that table differs from the raw second difference of the
    partition counts at arguments 1 and 2 (0 vs -1 and 0 vs 1), so every m
    hitting those arguments through a pentagonal offset drifts.  The route is
    therefore report-only; see DEVIATIONS.md."""
    bad = validate_route("pentagonal", "s", "d2p", 40)
    assert bad, "route unexpectedly validated"
    assert bad[0] == (1, 0, -1)
    bad_ms = [m for m, _, _ in bad]
    # failures sit exactly at offset+1 and offset+2 over the offsets 3k^2 -+ k
    assert bad_ms == [1, 2, 3, 4, 5, 6, 11, 12, 15, 16, 25, 26, 31, 32]
    # the drift is exactly the difference of the two basis tables
    p = named_sequence("p", 40)
    d2p = named_sequence("d2p", 40)
    delta = {m: (p[m] - 2 * p[m - 1] + p[m - 2]) - d2p[m] for m in range(41)}
    assert {m for m, v in delta.items() if v} == {1, 2}


def test_triangular_dp_routes_fail_where_documented():
    assert validate_route("triangular", "r", "dp", 30)[0] == (1, 1, 0)
    assert validate_route("triangular", "s", "d2p", 30)[0] == (1, 1, -1)


@pytest.mark.parametrize("kind,name,basis", [
    ("pentagonal", "q", "p"), ("pentagonal", "r", "dp"), ("pentagonal", "s", "d2p"),
    ("pentagonal", "s", "p-with-poly"), ("triangular", "q", "p"),
    ("triangular", "r", "dp"), ("triangular", "s", "d2p"),
    ("triangular", "s", "p-with-poly"),
])
def test_validate_route_builds_each_table_once(monkeypatch, kind, name, basis):
    import butterflyseq.recurrences as rec
    N = 60
    fn = {"pentagonal": recur_value, "triangular": triangular_value}[kind]
    table = named_sequence(name, N)
    # the reference evaluates every m on tables of its own
    want = [(m, fn(name, m, basis), table[m]) for m in range(N + 1)]
    want = [row for row in want if row[1] != row[2]]
    built = []

    def counting(build):
        def wrapper(key, n):
            built.append(key)
            return build(key, n)
        return wrapper

    monkeypatch.setattr(rec, "named_sequence", counting(named_sequence))
    monkeypatch.setattr(rec, "counting_dp", counting(counting_dp))
    assert validate_route(kind, name, basis, N) == want
    assert name in built and len(built) > 1
    assert sorted(built) == sorted(set(built))


@pytest.mark.parametrize("kind,name,basis", [
    ("pentagonal", "q", "p"), ("pentagonal", "r", "dp"), ("pentagonal", "s", "p-with-poly"),
    ("triangular", "q", "p"), ("triangular", "s", "p-with-poly"),
])
def test_recurrence_routes_read_the_counting_dps_not_the_pentagonal_kernel(
        monkeypatch, kind, name, basis):
    """The recurrence routes check tables that the pentagonal kernel builds,
    so their basis must come from elsewhere: with named_sequence answered
    from a table built beforehand, a route calls the counting DP and never
    pentagonal_solve (otherwise the q route would compare E(x^2)/E(x) with
    itself)."""
    import butterflyseq.partitions as pt
    import butterflyseq.recurrences as rec
    N = 60
    table = named_sequence(name, N)
    dps = []
    monkeypatch.setattr(rec, "named_sequence", lambda seq_name, n: (
        table if seq_name == name else named_sequence(seq_name, n)))
    monkeypatch.setattr(pt, "pentagonal_solve", lambda *args: pytest.fail("kernel called"))
    monkeypatch.setattr(rec, "counting_dp", lambda key, n: dps.append(key) or counting_dp(key, n))
    assert validate_route(kind, name, basis, N) == []
    assert dps == [rec.PENT_BASES["q"] if basis == "p-with-poly" else basis]


def test_basis_mismatch_raises():
    with pytest.raises(ValueError):
        recur_value("q", 5, "dp")
    with pytest.raises(ValueError):
        triangular_value("r", 5, "p")


@pytest.mark.parametrize("name", CHECKSUM_NAMES)
def test_expected_checksum_series_equals_the_per_m_values(name):
    for N in list(range(61)) + [10 ** 4]:
        assert expected_checksum_series(name, N) == [
            expected_checksum(name, m) for m in range(N + 1)], (name, N)


def test_checksum_examples():
    assert checksum("q", 6) == 1
    assert checksum("q", 5) == 0
    assert checksum("s", 2) == -1


def test_expected_checksum_examples():
    assert expected_checksum("s", 7) == -2
    assert expected_checksum("t", 10) == 2
    assert expected_checksum("q", 1) == 1
    assert expected_checksum("t", 11) == -1  # printed case table says -2


def test_checksum_equals_expected():
    for name in CHECKSUM_NAMES:
        table = named_sequence(name, 120)
        for m in range(121):
            assert checksum(name, m, table) == expected_checksum(name, m), (name, m)


def test_wrinkled_prefix_values():
    assert [checksum("s", m) for m in range(6)] == [1, -1, -1, 2, -2, 1]
    assert checksum("t", 10) == 2
    assert checksum("t", 11) == -1
    for seq_name, entries in golden.CHECKSUM_DEVIATIONS.items():
        for m, printed, recomputed in entries:
            assert checksum(seq_name, m) == recomputed != printed


def test_recursive_solve_examples():
    s = recursive_solve("s", 51)
    for i, printed_val in enumerate(golden.S_PRINTED):
        assert s[i] == golden.expect("s", 0, golden.S_PRINTED, i)
    q = recursive_solve("q", 23)
    assert list(q.values) == golden.Q_PRINTED
    t = recursive_solve("t", 20)
    assert list(t.values) == golden.T_PRINTED[:21]
    assert s.provenance == "recurrence"


def test_recursive_solve_rebuilds_tables():
    for name in CHECKSUM_NAMES:
        solved = recursive_solve(name, 90)
        table = named_sequence(name, 90)
        assert list(solved.values) == [table[m] for m in range(91)]


def _solve_term_by_term(name, N):
    # the checksum relation solved for one m at a time, with the offsets
    # 3k^2 - k and 3k^2 + k written out
    vals = []

    def at(j):
        return vals[j] if 0 <= j < len(vals) else 0

    for m in range(N + 1):
        total, k = 0, 1
        while 3 * k * k - k <= m:
            total += (-1) ** k * (at(m - 3 * k * k + k) + at(m - 3 * k * k - k))
            k += 1
        vals.append(expected_checksum(name, m) - total)
    return vals


@pytest.mark.parametrize("name", CHECKSUM_NAMES)
def test_recursive_solve_equals_the_term_by_term_loop(name):
    assert list(recursive_solve(name, 800).values) == _solve_term_by_term(name, 800)


def test_checksum_route_and_production_tables_keep_separate_stored_tables(monkeypatch):
    """By the theorem theta / E(x^2) = q, so the checksum base and the
    production q table hold the same numbers; the solve route must still
    never read the stored q or p table, nor named_sequence the stored base,
    so that each route checks the other."""
    real = pt.solved_prefix

    def refusing(*keys):
        def solved(key, *args):
            if key in keys:
                pytest.fail("read the stored %r table" % key)
            return real(key, *args)
        return solved

    monkeypatch.setattr(pt, "solved_prefix", refusing("q", "p"))
    solved = {name: recursive_solve(name, 200).values for name in CHECKSUM_NAMES}
    assert set(pt._SOLVED) == {"theta"}
    pt._SOLVED.clear()
    monkeypatch.setattr(pt, "solved_prefix", refusing("theta"))
    for name in CHECKSUM_NAMES + ("p", "dp", "d2p"):
        table = named_sequence(name, 200)
        assert table.values == solved.get(name, table.values), name
    assert set(pt._SOLVED) == {"q", "p"}
