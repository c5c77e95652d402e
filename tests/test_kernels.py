"""The packed counting kernels against the per-cell loops they replaced.

The references below are the old DPs, one big-integer addition per table
cell; the library's DPs and filtration sums hold the whole table as one
integer and must give the same lists.
"""

import pytest

from butterflyseq import partitions as pt
from butterflyseq import series
from butterflyseq.families import pow2_free_parts


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


def _part_sets(N):
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
    }


def test_packed_dps_equal_the_cell_loops():
    for N in range(151):
        for label, parts in _part_sets(N).items():
            assert pt.count_with_parts(N, parts) == _with_parts_by_cells(N, parts), (label, N)
            assert (pt.count_distinct_with_parts(N, parts)
                    == _distinct_with_parts_by_cells(N, parts)), (label, N)
        assert pt.count_partitions_table(N) == _with_parts_by_cells(N, range(1, N + 1)), N
        assert pt.count_strict_table(N) == _distinct_with_parts_by_cells(N, range(1, N + 1))
        for bound in (1, 3, 5):
            assert (pt.count_odd_ge_table(N, bound)
                    == _with_parts_by_cells(N, range(bound, N + 1, 2))), (bound, N)
        assert pt.count_no_ones_table(N) == _with_parts_by_cells(N, range(2, N + 1)), N


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


# -- slot width and independence ------------------------------------------------------

def test_slot_width_holds_every_partition_count():
    """p(n) <= p(N) bounds every coefficient a packed table holds at order N,
    so each slot must hold p(0..N) with a bit to spare."""
    p = pt.pentagonal_solve([1] + [0] * 3000, 1)
    widest = 0
    for N, value in enumerate(p):
        widest = max(widest, value.bit_length())
        assert widest < 8 * pt._slot_bytes(N), N


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
    for kind, k_lo in FILTRATION_SUMS:
        series._sum_filtration(kind, N, k_lo)
    assert calls == []
    pt.strict_pentagonal_table(10)  # the counter is live
    assert len(calls) == 1
