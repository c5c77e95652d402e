"""The packed counting kernels and the whole-list passes against the
per-cell loops they replaced.

The references below are the old DPs, one big-integer addition per table
cell, the old "double" product, one subtraction per cell for each factor
(1 - x^m), and the old series multiply over nonzero pairs; the library's
DPs, filtration sums and series multiply hold a whole series as one integer
and must give the same lists.  The old difference polynomials, pentagonal
sums and b-file rows, one Python expression per coefficient, are the
references of _weighted, pentagonal_solve and to_bfile, which work on whole
lists, and the old per-cell ascending division that of series.div_exact,
which divides through partitions.sparse_solve.
"""

import random
from collections import Counter

import pytest

from butterflyseq import partitions as pt
from butterflyseq import series
from butterflyseq.families import CATALOGUE, pow2_free_parts
from butterflyseq.recurrences import recursive_solve
from butterflyseq.sequences import (
    _P_WEIGHTS, DIFF_WEIGHTS, SequenceTable, _weighted, counting_dp, difference, named_sequence,
    to_bfile)
from butterflyseq.series import TruncSeries

# kind -> (shape, parity, ends) of every catalogue kind with a fixed
# head-and-tail row (a bar set's row is built from h)
HEAD_TAIL_ROWS = {kind: row.head_tail for kind, row in CATALOGUE.items()
                  if isinstance(row.head_tail, tuple)}


# -- refusals -------------------------------------------------------------------

@pytest.mark.parametrize("count", [pt.count_with_parts, pt.count_distinct_with_parts])
@pytest.mark.parametrize("parts, message", [
    ([0], "positive"), ([3, 0, 5], "positive"), ([-2], "positive"),
    ([2, 3, 2], "repeat"), ([7, 7], "repeat"), ([20, 20], "repeat")])
def test_counting_dps_refuse_bad_part_sizes(count, parts, message):
    # part 0 would never end the doubling steps of 1/(1 - x^m); a repeated
    # size would count partitions beyond the slot width's bound
    with pytest.raises(ValueError, match=message):
        count(10, parts)


# -- the per-cell loops the packed kernels replaced --------------------------------

def _with_parts_by_cells(N, parts):
    c = [1] + [0] * N
    for part in parts:
        if part > N:
            continue
        for j in range(part, N + 1):
            c[j] += c[j - part]
    return c


def _distinct_with_parts_by_cells(N, parts):
    c = [1] + [0] * N
    for part in parts:
        if part > N:
            continue
        for j in range(N, part - 1, -1):
            c[j] += c[j - part]
    return c


def _repeated_top_by_cells(N):
    out = [1] + [0] * N
    below = [1] + [0] * N  # partitions into parts 2..j, valid through N - 2j
    for j in range(2, N // 2 + 1):
        for m in range(j, N - 2 * j + 1):
            below[m] += below[m - j]
        for m in range(N - 2 * j + 1):
            out[2 * j + m] += below[m]
    return out


def _sum_filtration_by_cells(kind, N, k_lo):
    # sum over k >= k_lo of x^{e(k)} / prod_{j=j0..k} (1 - x^j), term by term
    j0 = series._FILTRATION[kind][2]
    total = [0] * (N + 1)
    k = k_lo
    while series._exponent(kind, k) <= N:
        e = series._exponent(kind, k)
        for i, c in enumerate(_with_parts_by_cells(N - e, range(j0, k + 1))):
            total[e + i] += c
        k += 1
    return total


def _nested_sum_by_cells(N, j0, k_lo, exponent, repeated=True):
    # the terms x^{exponent(k)} prod_{j=j0..k} of 1/(1 - x^j) (repeated) or
    # 1 + x^j, summed apart for even and odd k: one running table, cell by
    # cell, valid through degree N - exponent(k) at term k
    totals = ([0] * (N + 1), [0] * (N + 1))
    run = [1] + [0] * N
    k, new = k_lo, j0
    while (e := exponent(k)) <= N:
        for j in range(new, k + 1):
            if repeated:
                for n in range(j, N - e + 1):
                    run[n] += run[n - j]
            else:
                for n in range(N - e, j - 1, -1):
                    run[n] += run[n - j]
        new = max(new, k + 1)
        total = totals[k % 2]
        total[e:] = map(int.__add__, total[e:], run[:N - e + 1])
        k += 1
    return totals


def _head_tail_by_cells(N, shape):
    # count_head_tail_table's sum over k = a - gap, cell by cell: the table of
    # each second-part parity (None for both)
    offsets, smallest, gap, low = shape
    width, lift = len(offsets), len(offsets) * gap + sum(offsets)
    by_k = _nested_sum_by_cells(N, low, smallest - gap, lambda k: width * k + lift,
                                repeated=False)
    # the second part a + offsets[1] has the parity of k + gap + offsets[1]
    tables = {parity: by_k[(parity + gap + offsets[1]) % 2] for parity in (0, 1)}
    tables[None] = list(map(int.__add__, *by_k))
    return tables


def _double_by_cells(N):
    # prod (1 + x^n)(1 - x^{2n}): the strict counts times each (1 - x^m), m even
    c = pt.strict_pentagonal_table(N)
    for m in range(2, N + 1, 2):  # in place from the top
        for i in range(N, m - 1, -1):
            c[i] -= c[i - m]
    return c


def _mul_by_pairs(a, b):
    # TruncSeries.__mul__ as one loop over the nonzero pairs of the factors
    if isinstance(b, int):
        return a.scale(b)
    N = min(a.order, b.order)
    sparse, dense = ([(i, x) for i, x in enumerate(s.coeffs[:N + 1]) if x] for s in (a, b))
    if len(sparse) > len(dense):
        sparse, dense = dense, sparse
    out = [0] * (N + 1)
    for i, x in sparse:
        for j, y in dense:
            if i + j > N:
                break
            out[i + j] += x * y
    return TruncSeries(N, out)


def _part_sets(N):
    # ranges and lists of every shape _packed_product tells apart: ranges
    # whose octaves run to their top (an octave's last factors then add as
    # one run), ranges that stop short of an octave's top (a run summed on
    # to degree N would count parts the range lacks) or start at an octave's
    # bottom (which belongs to the octave below), strides, and lists,
    # which always take one shift-add per factor
    return {
        "all": range(1, N + 1),
        "odd>=1": range(1, N + 1, 2),
        "odd>=3": range(3, N + 1, 2),
        "odd>=5": range(5, N + 1, 2),
        "even": range(2, N + 1, 2),
        "pow2-free": pow2_free_parts(N),
        "unsorted": [7, 2, 11, 3, 5, 1, 13],
        "above N": [N + 2, N // 2 + 1, N + 9],
        "empty": [],
        "short of N/2": range(1, N // 3),
        "to N/2": range(4, N // 2 + 1),
        "from N/4": range(max(N // 4, 1), N + 1),
        "small": range(3, 9),
        "stride 5": range(1, N + 1, 5),
        "stride 5 from 7": range(7, 2 * N, 5),
        "reversed": list(range(N, 0, -1)),
    }


def _check_part_sets(N):
    for label, parts in _part_sets(N).items():
        assert pt.count_with_parts(N, parts) == _with_parts_by_cells(N, parts), (label, N)
        assert (pt.count_distinct_with_parts(N, parts)
                == _distinct_with_parts_by_cells(N, parts)), (label, N)


def test_packed_dps_equal_the_cell_loops():
    for N in range(151):
        _check_part_sets(N)
        assert pt.count_partitions_table(N) == _with_parts_by_cells(N, range(1, N + 1)), N
        assert pt.count_strict_table(N) == _distinct_with_parts_by_cells(N, range(1, N + 1))
        for bound in (1, 3, 5):
            assert (pt.count_odd_ge_table(N, bound)
                    == _with_parts_by_cells(N, range(bound, N + 1, 2))), (bound, N)
        assert pt.count_no_ones_table(N) == _with_parts_by_cells(N, range(2, N + 1)), N


def test_packed_dps_equal_the_cell_loops_where_octaves_run():
    # most ranges above need orders past 150 before an octave holds enough
    # parts to run (1..N from N = 48, stride 5 from N = 240): at these the
    # top octaves of every range run, or stop just short of their top
    for N in (300, 389):
        _check_part_sets(N)


@pytest.mark.parametrize("N", [300, 700, 2000])
def test_packed_p_and_q_equal_the_pentagonal_kernel(N):
    assert pt.count_partitions_table(N) == pt.pentagonal_solve([1] + [0] * N, 1)
    assert pt.count_strict_table(N) == pt.strict_pentagonal_table(N)


def test_repeated_top_table_equals_the_cell_loop():
    for N in range(201):
        assert pt.count_no_ones_repeated_top_table(N) == _repeated_top_by_cells(N), N


# every kind at its smallest k, and the lower indices of the -printed identities
FILTRATION_SUMS = [(kind, k_min) for kind, (k_min, _, _) in series._FILTRATION.items()] + [
    ("tail", 2), ("tail", 3), ("alt_tail", 3)]


@pytest.mark.parametrize("kind, k_lo", FILTRATION_SUMS)
def test_packed_filtration_sum_equals_the_terms(kind, k_lo):
    for N in list(range(121)) + [400]:
        got = series._sum_filtration(kind, N, k_lo)
        assert list(got.coeffs) == _sum_filtration_by_cells(kind, N, k_lo), (kind, k_lo, N)


@pytest.mark.parametrize("kind", sorted(HEAD_TAIL_ROWS))
def test_head_tail_table_equals_the_per_n_count(kind):
    """The nested sum with factors 1 + x^j and a parity filter on its term
    index equals count_head_tail, which counts each n apart through its memo,
    for n <= 300, at every order N <= 30 and at N = 300, for each kind's
    parity or, on a kind without one, for none and both."""
    shape, fixed, _ = HEAD_TAIL_ROWS[kind]
    for parity in (None, 0, 1) if fixed is None else (fixed,):
        want = [pt.count_head_tail(n, shape, parity) for n in range(301)]
        for N in list(range(31)) + [300]:
            assert pt.count_head_tail_table(N, shape, parity) == want[:N + 1], (parity, N)


# -- slot width and independence ------------------------------------------------------

def test_slot_width_holds_every_partition_count():
    """p(n) <= p(N) bounds every coefficient a packed table holds at order N,
    so each slot must hold p(0..N) with a bit to spare."""
    p = pt.pentagonal_solve([1] + [0] * 3000, 1)
    widest = 0
    for N, value in enumerate(p):
        widest = max(widest, value.bit_length())
        assert widest < 8 * pt._slot_bytes(N), N


def test_narrow_slot_width_holds_every_strict_and_half_partition_count():
    """The strict-type tables count at most q(n) or p(n/2) at each n <= N, so
    the narrow slots, _slot_bytes((N + 1) // 2), must hold q(0..N) and
    p(0..N // 2) with a bit to spare."""
    q = pt.strict_pentagonal_table(3000)
    p = pt.pentagonal_solve([1] + [0] * 1500, 1)
    widest = 0
    for N, value in enumerate(q):
        widest = max(widest, value.bit_length(), p[N // 2].bit_length())
        assert widest < 8 * pt._slot_bytes((N + 1) // 2), N


NARROW_ORDERS = list(range(151)) + [400, 700, 2000]


def _narrowed_sites():
    # (label, the library call at order N, its cell-loop reference through
    # the largest order): a table through N is the prefix of the table
    # through any larger order, so one reference serves every order
    sites = [("odd_reciprocal %d" % b, lambda N, b=b: series.expand_product(
                  "odd_reciprocal", N, b).coeffs,
              lambda N, b=b: _with_parts_by_cells(N, range(b, N + 1, 2))) for b in (1, 3, 5)]
    sites += [
        ("even_reciprocal", lambda N: series.expand_product("even_reciprocal", N).coeffs,
         lambda N: _with_parts_by_cells(N, range(2, N + 1, 2))),
        ("distinct_not_pow2", lambda N: series.expand_product("distinct_not_pow2", N).coeffs,
         lambda N: _distinct_with_parts_by_cells(N, pow2_free_parts(N))),
        ("count_strict_table", pt.count_strict_table,
         lambda N: _distinct_with_parts_by_cells(N, range(1, N + 1))),
    ]
    for kind, k_lo in dict.fromkeys(FILTRATION_SUMS):
        _, c, j0 = series._FILTRATION[kind]
        sites.append(("%s sum from k=%d" % (kind, k_lo),
                      lambda N, kind=kind, k_lo=k_lo: series._sum_filtration(kind, N, k_lo).coeffs,
                      lambda N, c=c, j0=j0, k_lo=k_lo: list(map(int.__add__, *_nested_sum_by_cells(
                          N, j0, k_lo, lambda k: k * (k + c) // 2)))))
    return sites


@pytest.mark.parametrize("label, packed, by_cells", _narrowed_sites(),
                         ids=[site[0] for site in _narrowed_sites()])
def test_narrowed_kernels_equal_the_cell_loops(label, packed, by_cells):
    want = by_cells(NARROW_ORDERS[-1])
    for N in NARROW_ORDERS:
        assert list(packed(N)) == want[:N + 1], (label, N)


@pytest.mark.parametrize("kind", sorted(HEAD_TAIL_ROWS))
def test_narrowed_head_tail_tables_equal_the_cell_loops(kind):
    """Every shape and parity through N = 700, and at N = 2000 the
    consecutive pairs, the head-and-tail table with the largest counts."""
    shape, fixed, _ = HEAD_TAIL_ROWS[kind]
    top = 2000 if kind == "consec" else 700
    tables = _head_tail_by_cells(top, shape)
    for parity in (None, 0, 1) if fixed is None else (fixed,):
        want = tables[parity]
        for N in [N for N in NARROW_ORDERS if N <= top]:
            assert pt.count_head_tail_table(N, shape, parity) == want[:N + 1], (parity, N)


def test_wide_tables_keep_the_partition_width():
    """At N = 2000, p, dp and d2p exceed the narrow slots (p(2000) has 152
    bits, a narrow slot 120), so their counting DPs equal the pentagonal
    kernel's tables only if they keep the p width."""
    N = 2000
    assert pt.pentagonal_solve([1] + [0] * N, 1)[N].bit_length() > 8 * pt._slot_bytes((N + 1) // 2)
    for name in ("p", "dp", "d2p"):
        assert counting_dp(name, N) == list(named_sequence(name, N).values), name


def test_packed_kernels_do_not_reach_the_pentagonal_kernel(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = pt.pentagonal_solve
    monkeypatch.setattr(pt, "pentagonal_solve", counted)
    N = 300
    pt.count_partitions_table(N)
    pt.count_strict_table(N)
    pt.count_odd_ge_table(N, 3)
    pt.count_no_ones_table(N)
    pt.count_no_ones_repeated_top_table(N)
    pt.count_with_parts(N, range(2, N + 1, 2))
    pt.count_distinct_with_parts(N, pow2_free_parts(N))
    pt.count_head_tail_table(N, pt.BUTTERFLY_SHAPE, 0)
    for kind, k_lo in FILTRATION_SUMS:
        series._sum_filtration(kind, N, k_lo)
    assert calls == []
    pt.strict_pentagonal_table(10)  # the counter is live
    assert len(calls) == 1


# -- "double" and the series multiply ------------------------------------------------

def test_double_product_equals_the_cell_loop():
    for N in list(range(151)) + [700, 2000]:
        assert list(series.expand_product("double", N).coeffs) == _double_by_cells(N), N


def test_double_product_does_not_read_the_triangular_series(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = series.theta_triangular
    monkeypatch.setattr(series, "theta_triangular", counted)
    for N in (0, 1, 40, 300):
        series.expand_product("double", N)
    assert calls == []
    series.theta_triangular(10)  # the counter is live
    assert len(calls) == 1


def test_double_product_multiplies_each_even_factor_itself(monkeypatch):
    """Given the strict counts, "double" never reads E(x^2) off the
    pentagonal theorem (that is theta_pentagonal, the factor of
    strict-checksum-series), so triangular-double-product checks a route of
    its own."""
    strict = {N: pt.strict_pentagonal_table(N) for N in (0, 1, 40, 300)}
    calls = []

    def counted(name):
        real = getattr(pt, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(pt, name, call)

    monkeypatch.setattr(pt, "strict_pentagonal_table", lambda N: list(strict[N]))
    for name in ("euler_product", "pentagonal_offsets", "pentagonal_solve"):
        counted(name)
    for N in strict:
        assert list(series.expand_product("double", N).coeffs) == _double_by_cells(N), N
    assert calls == []
    series.theta_pentagonal(10)  # the counter is live
    assert calls == ["euler_product", "pentagonal_offsets"]


def test_verify_all_equals_the_pair_loop_and_cell_loop_reports(monkeypatch):
    orders = list(range(121)) + [700, 2000]
    packed = [series.verify_all(N) for N in orders]
    # verify_all builds "double" from its own strict counts
    cells = []
    monkeypatch.setattr(series, "_double_product",
                        lambda q: cells.append(len(q)) or _double_by_cells(len(q) - 1))
    monkeypatch.setattr(TruncSeries, "__mul__", _mul_by_pairs)
    monkeypatch.setattr(TruncSeries, "__rmul__", _mul_by_pairs)
    pt._SOLVED.clear()  # or the stored packed "double" answers every order
    for N, reports in zip(orders, packed):
        assert series.verify_all(N) == reports, N
    assert cells == [N + 1 for N in orders]  # the cell loop built every order


def test_verify_all_solves_q_once_and_builds_each_nested_sum_once(monkeypatch):
    """One pentagonal solve per call serves "distinct", "double" and the
    tables q, r, s and t, and each nested sum, keyed by its first factor,
    lower index and exponents, is built once: the k >= 3 sum of the
    butterfly and tail kinds serves three filtered series."""
    solves, sums = [], Counter()

    def solve(rhs, step, head=()):
        solves.append(len(rhs))
        return real_solve(rhs, step, head)

    def nested(N, j0, k_lo, exponent, *rest):
        sums[(N, j0, k_lo, tuple(map(exponent, range(k_lo, k_lo + 50))))] += 1
        return real_sum(N, j0, k_lo, exponent, *rest)

    real_solve, real_sum = pt.pentagonal_solve, pt._packed_nested_sum
    monkeypatch.setattr(pt, "pentagonal_solve", solve)
    monkeypatch.setattr(pt, "_packed_nested_sum", nested)
    for N in (0, 9, 300):
        series.verify_all(N)
        assert solves == [N + 1], N
        assert len(sums) == 4 and set(sums.values()) == {1}, (N, sums)
        solves.clear()
        sums.clear()


@pytest.mark.parametrize("N", [0, 1, 2, 5, 60, 700])
def test_verify_sides_from_one_q_equal_their_own_builds(N):
    """The sides verify builds from its one q table are what named_sequence
    and expand_product return."""
    built = series._Sides(N)
    for name in DIFF_WEIGHTS:
        assert built.table(name).coeffs == named_sequence(name, N).values, name
    for kind in ("distinct", "double"):
        assert built.product(kind) == series.expand_product(kind, N), kind


# -- difference polynomials, the pentagonal kernel and b-file rows -------------------

def _weighted_by_cells(weights, values):
    return [sum(w * values[n - d] for d, w in enumerate(weights) if d <= n)
            for n in range(len(values))]


def _pentagonal_solve_by_sums(rhs, step):
    offsets = pt.pentagonal_offsets(len(rhs) - 1, step)
    pending = next(offsets, None)
    plus, minus = [], []
    v = []
    at = v.__getitem__
    for m, r in enumerate(rhs):
        while pending is not None and pending[0] <= m:
            (plus if pending[1] > 0 else minus).append(-pending[0])
            pending = next(offsets, None)
        v.append(r - sum(map(at, plus)) + sum(map(at, minus)))
    return v


def _div_exact_by_cells(coeffs, divisor):
    d = list(divisor)
    while d and d[-1] == 0:
        d.pop()
    N = len(coeffs) - 1
    out = [0] * (N + 1)
    rem = list(coeffs)
    for i in range(N + 1):
        coef = rem[i] * d[0]  # d[0] is +-1
        out[i] = coef
        for j, dj in enumerate(d):
            if i + j <= N:
                rem[i + j] -= coef * dj
    assert not any(rem)
    return out


def _bfile_by_rows(table):
    return "".join("%d %d\n" % (n, table[n]) for n in range(table.offset, table.last_n + 1))


def _signed(rng, length, bits):
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]


def test_weighted_equals_the_per_coefficient_sum():
    """Every difference polynomial of the library, 1 + x + x^2, and random
    signed weights with zero entries (leading, inner and trailing), on
    series of every length 0..300, shorter than the weights too.  The
    product through the length of a series is a prefix of the product
    through a longer one, so one reference at length 300 serves every
    length."""
    rng = random.Random(13)
    weight_sets = list(DIFF_WEIGHTS.values()) + list(_P_WEIGHTS.values()) + [
        (1, 1, 1), (0,), (-1,), (3,), (0, 1), (1, 0, 0, -1), (2, 0, -3, 0, 0),
        (0, 0, 0, 0, 0, 0, 5)]
    weight_sets += [tuple(rng.choice((0, 0, 1, -1, 2, -2, 7, -40)) for _ in range(rng.randint(1, 9)))
                    for _ in range(12)]
    values = _signed(rng, 300, 80)
    for weights in weight_sets:
        want = _weighted_by_cells(weights, values)
        for n in range(301):
            got = _weighted(weights, values[:n])
            assert got == want[:n], (weights, n)
            assert _weighted(weights, tuple(values[:n])) == got, (weights, n)
    assert _weighted((1,), values) is not values  # a copy, not the caller's list


def test_difference_equals_the_per_input_loop():
    rng = random.Random(7)
    tables = [named_sequence(name, 40) for name in ("q", "r1", "s_e", "e_prime")]
    tables += [SequenceTable("x", rng.randint(0, 9), _signed(rng, n, 40)) for n in (0, 1, 2, 50)]
    for t in tables:
        d = difference(t)
        assert list(d.values) == [t[n] - t[n - 1] for n in range(t.offset, t.last_n + 1)], t
        assert (d.name, d.offset, d.provenance) == ("d" + t.name, t.offset, t.provenance)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_pentagonal_solve_equals_the_per_coefficient_sums(step):
    """Unit, sparse and random signed right-hand sides of every length
    0..400: the solution through a prefix is the prefix of the solution."""
    rng = random.Random(step)
    sides = [[1] + [0] * 400, pt.euler_product(400, 2), _signed(rng, 401, 8),
             _signed(rng, 401, 200), [rng.choice((0, 0, 0, 1, -1)) for _ in range(401)]]
    for rhs in sides:
        want = _pentagonal_solve_by_sums(rhs, step)
        for n in range(402):
            assert pt.pentagonal_solve(rhs[:n], step) == want[:n], (step, n)


class _ReadLog(list):
    """A right-hand side that logs the index each read of it starts at."""

    def __init__(self, values):
        super().__init__(values)
        self.starts = []

    def __getitem__(self, i):
        self.starts.append(i.indices(len(self))[0] if isinstance(i, slice) else i)
        return super().__getitem__(i)

    def __iter__(self):
        self.starts.append(0)
        return super().__iter__()


def test_sparse_solve_resumes_from_every_prefix():
    """With the first k coefficients of the solution as its head, the kernel
    returns the whole solution, for every k, and reads rhs from k on only
    (none of it for a whole head).  The pentagonal terms at steps 1 and 2
    (c = +-1) and div_exact-style terms with c = +-1, |c| > 1 and repeated
    offsets, so that each of the three getters resumes."""
    rng = random.Random(29)
    rhs = _signed(rng, 201, 40)
    term_lists = [list(pt.pentagonal_offsets(200, 1)), list(pt.pentagonal_offsets(200, 2)),
                  [(1, -1), (2, 3), (2, 1), (5, 1), (7, -2), (40, -1), (40, 2), (150, 1)]]
    for terms in term_lists:
        full = pt.sparse_solve(rhs, terms)
        for k in range(len(full) + 1):
            read = _ReadLog(rhs)
            assert pt.sparse_solve(read, terms, head=full[:k]) == full, (terms[:3], k)
            assert min(read.starts, default=k) >= k, (terms[:3], k)
        assert read.starts == []  # the whole solution as head: rhs is not read


# -- the stored pentagonal tables ----------------------------------------------------

# key -> (the table of N through the store, its step, its part-by-part reference)
STORED = {
    "q": (pt.strict_pentagonal_table, 1, pt.count_strict_table),
    "p": (lambda N: list(named_sequence("p", N).values), 1, pt.count_partitions_table),
    "theta": (lambda N: list(recursive_solve("q", N).values), 2, pt.count_strict_table),
}


def _counted_kernel(monkeypatch):
    calls = []
    real = pt.pentagonal_solve

    def counted(rhs, step, head=()):
        calls.append((len(rhs), step, list(head)))
        return real(rhs, step, head)
    monkeypatch.setattr(pt, "pentagonal_solve", counted)
    return calls


@pytest.mark.parametrize("key", sorted(STORED))
def test_stored_table_is_solved_once_and_extended_from_its_head(monkeypatch, key):
    """A call at or below the stored length never reaches the kernel; a
    longer one reaches it once, with the stored table as its head."""
    table, step, reference = STORED[key]
    want = reference(400)
    calls = _counted_kernel(monkeypatch)
    assert table(300) == want[:301]
    assert calls == [(301, step, [])]
    for N in (300, 0, 17, 299, 300):
        assert table(N) == want[:N + 1], N
    assert len(calls) == 1
    assert table(400) == want
    assert calls[1:] == [(401, step, want[:301])]
    assert list(pt._SOLVED) == [key] and pt._SOLVED[key] == want


def test_store_holds_one_table_per_key_as_long_as_the_longest_call():
    """Whatever the calls, the store holds at most the three pentagonal keys,
    each exactly one longer than the largest N asked of it, and refuses
    others."""
    rng = random.Random(31)
    longest = {}
    calls = [("q", pt.strict_pentagonal_table)] + [
        ("q", lambda N, name=name: named_sequence(name, N)) for name in DIFF_WEIGHTS] + [
        ("p", lambda N, name=name: named_sequence(name, N)) for name in _P_WEIGHTS] + [
        ("theta", lambda N, name=name: recursive_solve(name, N)) for name in DIFF_WEIGHTS]
    for _ in range(60):
        key, call = rng.choice(calls)
        N = rng.randint(0, 500)
        call(N)
        longest[key] = max(longest.get(key, -1), N)
        assert set(pt._SOLVED) <= {"q", "p", "theta"} < set(pt.SOLVED_KEYS)
        assert {k: len(v) for k, v in pt._SOLVED.items()} == {
            k: N + 1 for k, N in longest.items()}
    with pytest.raises(ValueError, match="no stored table 'r'"):
        pt.solved_prefix("r", 10, lambda head: pt.pentagonal_solve([1] + [0] * 10, 1, head))


def test_a_mutated_table_does_not_change_the_next_answer():
    want = pt.count_strict_table(60)
    q = pt.strict_pentagonal_table(60)
    q[20] += 1
    q.append(7)
    del q[:3]
    assert pt.strict_pentagonal_table(60) == want
    assert pt.strict_pentagonal_table(30) == want[:31]
    vals = pt.solved_prefix("p", 40, lambda head: pt.pentagonal_solve([1] + [0] * 40, 1, head))
    vals[1:3] = [0, 0]  # as d2p's correction would, on the store's own list
    assert list(named_sequence("p", 40).values) == pt.count_partitions_table(40)


def test_a_failed_extension_leaves_the_stored_table(monkeypatch):
    """A kernel that raises (here MemoryError, once) leaves the stored table
    as it was, and the next call answers from it."""
    want = pt.count_strict_table(500)
    assert pt.strict_pentagonal_table(100) == want[:101]
    stored = pt._SOLVED["q"]
    real = pt.pentagonal_solve

    def fail_once(*args):
        monkeypatch.setattr(pt, "pentagonal_solve", real)
        raise MemoryError

    monkeypatch.setattr(pt, "pentagonal_solve", fail_once)
    with pytest.raises(MemoryError):
        pt.strict_pentagonal_table(500)
    assert pt._SOLVED == {"q": want[:101]} and pt._SOLVED["q"] is stored
    assert pt.strict_pentagonal_table(500) == want


def test_div_exact_equals_the_per_cell_loop():
    """The divisors verify uses, divisors with a -1 constant term, inner and
    trailing zeros and coefficients +-2 and +-3, and random ones, on random
    signed series of every order 0..300: the quotient through a prefix is
    the prefix of the quotient.  Coefficients in the thousands, each one
    weighted term, at order 40.  A non-unit or zero constant term
    is still refused."""
    rng = random.Random(19)
    divisors = [(1, 1), (1, 1, 1), (1, -1), (1, -2, 1), (1,), (-1,), (-1, 1), (1, 0, 0, 1),
                (-1, 0, 2, 0, 0), (1, 0, -3, 0, 2, 0), (-1, -3, 0, 2), (1, 2, 3, 0, 0, -2, -3)]
    divisors += [(rng.choice((1, -1)),) + tuple(rng.choice((0, 0, 1, -1, 2, -2, 3, -3))
                                                for _ in range(rng.randint(1, 12)))
                 for _ in range(8)]
    values = _signed(rng, 301, 60)
    for divisor in divisors:
        want = _div_exact_by_cells(values, divisor)
        for n in range(301):
            got = series.div_exact(TruncSeries(n, values[:n + 1]), divisor)
            assert list(got.coeffs) == want[:n + 1], (divisor, n)
    for divisor in ((1, 10 ** 4), (-1, 0, -5000, 7)):  # large weights
        got = series.div_exact(TruncSeries(40, values[:41]), divisor)
        assert list(got.coeffs) == _div_exact_by_cells(values[:41], divisor), divisor
    for divisor in ((2, 1), (-3, 1), (0, 1), (0,), ()):
        with pytest.raises(ValueError, match="constant term"):
            series.div_exact(TruncSeries(3, values[:4]), divisor)


def test_bfile_equals_the_row_loop():
    rng = random.Random(5)
    tables = [named_sequence("q", 30), named_sequence("r1", 20), named_sequence("o_prime", 6),
              SequenceTable("one", 4, (17,)), SequenceTable("none", 3, ()),
              SequenceTable("neg", 2, (-3, 0, -(10 ** 30), 5)),
              SequenceTable("wide", 1000, _signed(rng, 200, 300))]
    for t in tables:
        assert to_bfile(t) == _bfile_by_rows(t), t.name
    assert to_bfile(SequenceTable("one", 4, (17,))) == "4 17\n"


def test_butterfly_counts_at_shuffled_sizes_equal_a_fresh_store():
    """s_e, s_o and r1'' tables and count_family of the butterfly and
    odd-step kinds, asked in a shuffled order of sizes, equal the answers
    of a fresh store (which equal count_table's, built apart from it), and
    each butterfly key then holds one table through the largest n read."""
    from butterflyseq import families as fam
    from butterflyseq.families import BUTTERFLY, Family, count_family, count_table

    kinds = {BUTTERFLY: None, fam.BUTTERFLY_EVEN: 0, fam.BUTTERFLY_ODD: 1, fam.ODD_STEP1: 0,
             fam.ODD_STEP2: 1, fam.ODD_STEP1_SWITCHED: 0, fam.ODD_STEP2_SWITCHED: 1}
    seqs = {"r1_dprime": None, "s_e": 0, "s_o": 1}
    requests = [(name, N) for name in seqs for N in (6, 7, 40, 300, 1000)] + [
        (kind, n) for kind in kinds for n in (0, 5, 6, 77, 500, 1200)]

    def answer(name, N):
        if name in seqs:
            return named_sequence(name, N).values
        return count_family(N, Family(name))

    want = {parity: count_table(1200, Family(BUTTERFLY), parity) for parity in (None, 0, 1)}
    fresh = {}
    for name, N in requests:
        pt._SOLVED.clear()
        fresh[name, N] = answer(name, N)
        parity = seqs[name] if name in seqs else kinds[name]
        assert (fresh[name, N][-1] if name in seqs else fresh[name, N]) == want[parity][N]
    pt._SOLVED.clear()
    random.Random(26).shuffle(requests)
    for name, N in requests:
        assert answer(name, N) == fresh[name, N], (name, N)
    assert {key: len(v) for key, v in pt._SOLVED.items()} == {
        ("butterfly", None): 1201, ("butterfly", 0): 1201, ("butterfly", 1): 1201}
