import os
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from butterflyseq.partitions import (
    EnumerationLimitError,
    Partition,
    count_butterfly,
    count_distinct_with_parts,
    count_head_tail,
    count_no_ones_repeated_top_table,
    count_no_ones_table,
    count_odd_ge_table,
    count_partitions_table,
    count_strict_table,
    euler_product,
    is_strict_tuple,
    iter_butterfly_tuples,
    iter_head_tail_tuples,
    iter_partition_tuples,
    iter_strict_tuples,
    pentagonal_offsets,
    pentagonal_solve,
    pool_tuples,
    strict_pentagonal_table,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_partition_validation():
    assert Partition([4, 3, 2]).n == 9
    assert Partition([]).n == 0
    assert len(Partition([])) == 0
    with pytest.raises(ValueError):
        Partition([3, 4])
    with pytest.raises(ValueError):
        Partition([2, 0])


@pytest.mark.parametrize("parts, message", [
    ((3, 4), "parts must be non-increasing: (3, 4)"),
    ((2, 0), "parts must be positive integers: (2, 0)"),
    ((0,), "parts must be positive integers: (0,)"),
    ((5, -1, -2), "parts must be positive integers: (5, -1, -2)"),
    # both rules broken: the first violation in reading order is reported
    ((2, 3, 0), "parts must be non-increasing: (2, 3, 0)"),
    ((2, 0, 3), "parts must be positive integers: (2, 0, 3)"),
])
def test_partition_rejection_names_the_first_violation(parts, message):
    with pytest.raises(ValueError) as exc:
        Partition(parts)
    assert str(exc.value) == message


def test_partition_is_immutable_and_hashable():
    p = Partition([5, 3])
    with pytest.raises(AttributeError):
        p.parts = (1,)
    assert p == Partition([5, 3])
    assert hash(p) == hash(Partition([5, 3]))


def test_parse_and_str_round_trip():
    assert str(Partition([7, 6, 5])) == "7+6+5"
    assert Partition.parse("7+6+5") == Partition([7, 6, 5])
    assert Partition.parse("5+6+7") == Partition([7, 6, 5])
    assert Partition.parse("") == Partition([])
    assert str(Partition([])) == ""


@given(st.lists(st.integers(min_value=1, max_value=60), max_size=12))
def test_parse_inverts_str(parts):
    p = Partition(sorted(parts, reverse=True))
    assert Partition.parse(str(p)) == p


def test_private_constructor_is_partition():
    """Partition._of, the constructor for tuples the library built, gives the
    Partition that __init__ gives and refuses what __init__ refuses, with the
    same message."""
    for t in ((), (1,), (5, 3), (7, 6, 5, 2), (3, 3, 1)):
        p = Partition._of(t)
        assert type(p) is Partition
        assert p == Partition(t) and hash(p) == hash(Partition(t))
        assert str(p) == str(Partition(t)) and repr(p) == repr(Partition(t))
    for bad in ((0,), (2, 3), (3, -1), (3, 3, 0)):
        with pytest.raises(ValueError) as want:
            Partition(bad)
        with pytest.raises(ValueError) as got:
            Partition._of(bad)
        assert str(got.value) == str(want.value)


def test_strict_lister_equals_the_strict_partitions():
    """iter_strict_tuples(n, max_part, min_part) lists the strict members of
    the unrestricted lister iter_partition_tuples(n, max_part, min_part), in
    its order and without repeats, for n <= 40, every max_part and min_part
    1..4.  The unrestricted listing is made once per (n, min_part) and cut at
    max_part by its first part, which is what max_part does to it (asserted
    outright for n <= 20)."""
    for n in range(41):
        for low in range(1, 5):
            strict = [t for t in iter_partition_tuples(n, None, low) if is_strict_tuple(t)]
            assert list(iter_strict_tuples(n, None, low)) == strict, (n, low)
            for top in range(1, n + 1):
                want = [t for t in strict if not t or t[0] <= top]
                if n <= 20:
                    assert want == [t for t in iter_partition_tuples(n, top, low)
                                    if is_strict_tuple(t)]
                got = list(iter_strict_tuples(n, top, low))
                assert got == want, (n, top, low)
                assert len(set(got)) == len(got)


def test_pool_lister_equals_the_filtered_partitions():
    """pool_tuples lists, for each job (n, stop, prefix) in turn, prefix + each
    partition of n whose parts form a sub-multiset of pool[:stop], in the
    order of the unrestricted lister iter_partition_tuples, for n <= 30.  The
    pools are the strict-tail, odd-part, pow2-free and capped-tail shapes,
    pools whose two smallest parts sum high (the last-part step), and seeded
    random values with random caps; each is listed whole, and cut at stops
    below its length under a prefix."""
    N = 30
    pools = [list(range(low, top + 1)) for low, top in ((1, N), (2, 17), (4, 9))]
    pools += [[x for x in range(b, N + 1, 2) for _ in range(N // x)] for b in (1, 3, 5)]
    pools.append([x for x in range(1, N + 1) if x & (x - 1)])
    pools += [[x for x in range(3, min(top, bound) + 1, 2)
               for _ in range(2 * (1 << (bound // x).bit_length() - 1) - 1)]
              for top, bound in ((13, 13), (21, 9), (9, 20))]
    # the two smallest parts sum high, so a rest below their sum is one part
    # or none: a rest above the part, equal to it with and without a second
    # copy below, below it, and in the pool or not
    pools += [[7, 9, 9, 11, 13], [5, 5, 8], [4, 6, 6, 6, 15], [9, 10], [12]]
    rng = random.Random(14)
    for _ in range(12):
        values = sorted(rng.sample(range(1, 13), rng.randint(1, 8)))
        pools.append([x for x in values for _ in range(rng.randint(1, 4))])
    listed = [[(t, Counter(t).items()) for t in iter_partition_tuples(n)] for n in range(N + 1)]
    for pool in pools:
        for stop, prefix in ((None, ()), (len(pool) // 2, (40, 35)), (1, (31,))):
            avail = Counter(pool[:stop])
            want = [prefix + t for n in range(N + 1) for t, counts in listed[n]
                    if all(c <= avail[x] for x, c in counts)]
            got = pool_tuples(pool, [(n, stop, prefix) for n in range(N + 1)])
            assert got == want, (pool, stop)


def test_consecutive_run():
    assert Partition([7, 6, 5, 3]).consecutive_run() == 3
    assert Partition([5, 4, 3, 2]).consecutive_run() == 4
    assert Partition([9, 7]).consecutive_run() == 1
    assert Partition([]).consecutive_run() == 0


def test_enumerators_are_lex_decreasing():
    strict5 = list(iter_strict_tuples(5))
    assert strict5 == [(5,), (4, 1), (3, 2)]
    assert list(iter_partition_tuples(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@given(st.integers(min_value=0, max_value=26))
def test_strict_enumerator_properties(n):
    seen = set()
    for parts in iter_strict_tuples(n):
        assert sum(parts) == n
        assert all(a > b for a, b in zip(parts, parts[1:]))
        assert parts not in seen
        seen.add(parts)
    assert len(seen) == count_strict_table(n)[n]


@given(st.integers(min_value=0, max_value=22))
def test_partition_count_matches_listing(n):
    assert sum(1 for _ in iter_partition_tuples(n)) == count_partitions_table(n)[n]


@given(st.integers(min_value=6, max_value=40))
def test_butterfly_enumerator_properties(n):
    shapes = list(iter_butterfly_tuples(n))
    for parts in shapes:
        assert sum(parts) == n
        assert len(parts) >= 3
        assert parts[0] == parts[1] + 1 == parts[2] + 2
        assert parts[-1] >= 2
        assert all(a > b for a, b in zip(parts, parts[1:]))
    assert len(shapes) == count_butterfly(n)
    assert len(set(shapes)) == len(shapes)
    even = sum(1 for t in iter_butterfly_tuples(n, second_parity=0))
    odd = sum(1 for t in iter_butterfly_tuples(n, second_parity=1))
    assert even == count_butterfly(n, 0)
    assert odd == count_butterfly(n, 1)
    assert even + odd == len(shapes)


def test_count_head_tail_equals_the_listing():
    from butterflyseq.families import CATALOGUE
    for shape in {row.head_tail[0] for row in CATALOGUE.values()
                  if isinstance(row.head_tail, tuple)}:
        for parity in (None, 0, 1):
            for n in range(71):
                assert count_head_tail(n, shape, parity) == sum(
                    1 for _ in iter_head_tail_tuples(n, shape, parity)), (shape, parity, n)


def test_counting_tables_against_brute_force():
    for n in range(25):
        no_ones = [t for t in iter_partition_tuples(n) if 1 not in t]
        assert count_no_ones_table(n)[n] == len(no_ones)
        repeated_top = [t for t in no_ones if len(t) >= 2 and t[0] == t[1]] if n else [()]
        assert count_no_ones_repeated_top_table(n)[n] == len(repeated_top)
        odd3 = [t for t in iter_partition_tuples(n) if all(x % 2 and x >= 3 for x in t)]
        assert count_odd_ge_table(n, 3)[n] == len(odd3)


def test_distinct_with_parts_counter():
    # distinct parts from {3, 5, 6, 7} making 15: {7,5,3}, {6,... 6+... none}, {15}? no
    assert count_distinct_with_parts(15, [3, 5, 6, 7])[15] == 1


def test_enumeration_limit():
    """A listing is refused by its count, not by n: up to LISTING_BUDGET items
    pass, one more is refused with the count and the budget named."""
    from butterflyseq.partitions import LISTING_BUDGET, check_budget
    check_budget(LISTING_BUDGET, "a listing")
    check_budget(0, "a listing")
    with pytest.raises(EnumerationLimitError,
                       match="a listing: %d to list, above the listing budget of %d"
                       % (LISTING_BUDGET + 1, LISTING_BUDGET)):
        check_budget(LISTING_BUDGET + 1, "a listing")
    assert issubclass(EnumerationLimitError, ValueError)  # exit 2 at the CLI


def test_no_family_of_n_up_to_the_skip_bound_exceeds_the_budget():
    """family_tuples lists an n <= FITS_BUDGET_N without counting it first:
    p(n) bounds every family of n, and the bound is the largest such n."""
    from butterflyseq.partitions import FITS_BUDGET_N, LISTING_BUDGET
    p = count_partitions_table(FITS_BUDGET_N + 1)
    assert p[FITS_BUDGET_N] <= LISTING_BUDGET < p[FITS_BUDGET_N + 1]


def _expand_euler_product(N, step):
    # prod_{j>=1} (1 - x^{step j}) through degree N, one factor at a time
    c = [1] + [0] * N
    for part in range(step, N + 1, step):
        for i in range(N, part - 1, -1):
            c[i] -= c[i - part]
    return c


@pytest.mark.parametrize("step", [1, 2, 3])
def test_pentagonal_offsets_expand_the_euler_product(step):
    N = 150
    offsets = [o for o, _ in pentagonal_offsets(N, step)]
    assert offsets == sorted(set(offsets)) and offsets[-1] <= N
    assert euler_product(N, step) == _expand_euler_product(N, step)


def test_pentagonal_q_equals_the_strict_dp():
    for N in range(301):
        assert strict_pentagonal_table(N) == count_strict_table(N), N
    assert strict_pentagonal_table(3000) == count_strict_table(3000)


def test_pentagonal_q_matches_the_oeis_fixture():
    q = strict_pentagonal_table(50)
    with open(os.path.join(FIXTURES, "a000009.txt")) as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    assert rows and all(q[int(n)] == int(v) for n, v in rows)


def test_pentagonal_solve_with_unit_rhs_gives_p():
    N = 2000
    assert pentagonal_solve([1] + [0] * N, 1) == count_partitions_table(N)
    assert pentagonal_solve([1], 1) == [1]


def test_strict_count_cache_is_bounded():
    # driven through count_head_tail, the memo's one caller: no request
    # reaches it any more
    from butterflyseq import partitions
    from butterflyseq.sequences import named_sequence

    cache = partitions._strict_bounded_count
    cache.cache_clear()
    tables = [[count_head_tail(n, partitions.BUTTERFLY_SHAPE, parity) for n in range(251)]
              for parity in (0, 1)]
    info = cache.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
    s = named_sequence("s", 250)
    assert all(tables[0][n] + tables[1][n] == s[n] for n in range(6, 251))
    # the bound holds a whole table's working set: no entry is computed twice
    cache.cache_clear()
    for n in range(600, 5, -1):
        count_head_tail(n, partitions.BUTTERFLY_SHAPE, 0)
    info = cache.cache_info()
    assert 0 < info.misses == info.currsize <= info.maxsize


def _repeated_top_by_recursion(N):
    """The O(N^3) recursion count_no_ones_repeated_top_table replaced: for each
    doubled largest part j, the partitions of the rest into parts 2..j."""

    @lru_cache(maxsize=None)
    def bounded(m, cap):
        if m == 0:
            return 1
        if cap < 2 or m < 2:
            return 0
        return sum(bounded(m - part, part) for part in range(2, min(m, cap) + 1))

    return [1] + [sum(bounded(n - 2 * j, j) for j in range(2, n // 2 + 1)) if n >= 4 else 0
                  for n in range(1, N + 1)]


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5, 10, 60, 160])
def test_repeated_top_table_matches_the_recursion(N):
    assert count_no_ones_repeated_top_table(N) == _repeated_top_by_recursion(N)
