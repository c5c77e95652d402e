"""The closed catalogue of partition families.

Each kind has one row in CATALOGUE, and in_family, family_tuples and
count_family are lookups in it.  A row holds the kind's membership test;
its head-and-tail row if it has one, else its lister; its counter where
count_table does not count it; a staircase's conjugate kind; whether each
listed member is checked again; and its CLI aliases.

A head-and-tail row is a shape of consecutive or equal largest parts over a
strict tail, the parity of the second part, and the fixed ends, one of
which closes each member (a bar set's row is built from h, and has no ends
up to an n below its least member).  It is listed by
partitions.iter_head_tail_tuples once per end, and counted by count_table
from one packed table per end.  Every other listing but the two staircases
(_iter_staircase) comes from the filler partitions.pool_tuples: the strict
partitions, the odd parts >= b, the pow2-free parts and the capped odd-step
forms (splitmerge.iter_form_tuples), so none lists a larger family to
filter it.  The odd-step forms are counted by the merging-and-splitting
theorem: the butterflies with an even second part go to the step-1 forms
and those with an odd one to the step-2 forms, in both variants, so they
number s_e(n) and s_o(n); splitmerge.count_capped, which lists them, is the
oracle of those counts.  Every listed member of r2, of a bar set and of an
odd-step form is checked against in_family, which stays the oracle, as the
listings stay the oracle of the counts.  family_tuples returns a listing, of
at most partitions.LISTING_BUDGET members, as checked part tuples, which the
CLI prints; enumerate_family wraps them as Partitions.
"""

import operator
from typing import NamedTuple

from . import partitions as pt
from . import splitmerge
from .partitions import (
    Partition,
    initial_run,
    is_butterfly_tuple,
    is_strict_tuple,
    iter_head_tail_tuples,
    iter_strict_tuples,
)

STRICT = "strict"                     # distinct parts
CONSEC = "consec"                     # distinct, >= 2 parts, two largest consecutive
CONSEC_NO_ONE = "consec_no_one"       # ... and smallest part >= 2
CONSEC_WITH_ONE = "consec_with_one"   # ... and smallest part exactly 1
CONSEC_ISOLATED = "consec_isolated"   # no-one variant whose top pair sits >= 2 above the rest
BUTTERFLY = "butterfly"               # >= 3 parts, three largest consecutive, smallest >= 2
BUTTERFLY_EVEN = "butterfly_even"     # butterfly, second part even
BUTTERFLY_ODD = "butterfly_odd"       # butterfly, second part odd
EQUAL_TRIPLE = "equal_triple"         # three equal largest parts, distinct rest two below
STAIRCASE_321 = "staircase_321"       # steps <= 1 down to 3 > 2 > 1, top pair equal
STAIRCASE_33 = "staircase_33"         # steps <= 1 down to 3, 3, top pair equal
ODD_GE = "odd_ge"                     # odd parts >= b (param b in {1, 3, 5})
ODD_STEP1 = "odd_step1"               # capped odd forms of the split routes
ODD_STEP2 = "odd_step2"
ODD_STEP1_SWITCHED = "odd_step1_switched"
ODD_STEP2_SWITCHED = "odd_step2_switched"
BAR_AE = "bar_ae"                     # horizontal-bar sets (param h)
BAR_AO = "bar_ao"
BAR_BE = "bar_be"                     # vertical-bar sets (param h)
BAR_BO = "bar_bo"
BUTTERFLY_PLUS_ONES = "butterfly_plus_ones"  # butterfly core plus zero, one or two 1-parts
DISTINCT_NOT_POW2 = "distinct_not_pow2"      # distinct parts, none a power of two
BAR_KINDS = (BAR_AE, BAR_AO, BAR_BE, BAR_BO)  # the bar sets A_e, A_o, B_e, B_o


class Family(NamedTuple):
    kind: str
    param: int | None = None

    def __str__(self):
        return self.kind if self.param is None else "%s(%d)" % (self.kind, self.param)


def _in_consec(parts):
    return len(parts) >= 2 and is_strict_tuple(parts) and parts[0] == parts[1] + 1


def _in_consec_with_one(parts, _=None):
    return _in_consec(parts) and parts[-1] == 1


def _in_consec_isolated(parts, _=None):
    # no part 1, and the pair sits at least 2 above the rest
    return _in_consec(parts) and parts[-1] >= 2 and (len(parts) < 3 or parts[1] >= parts[2] + 2)


def _in_bar_a(parts, h):
    # smallest part other than 2 equals h; h largest consecutive; at least
    # h parts greater than h
    if h < 3 or not is_butterfly_tuple(parts):
        return False
    non2 = [x for x in parts if x != 2]
    return (bool(non2) and non2[-1] == h and initial_run(parts) >= h
            and len(non2) >= h + 1)


def _in_bar_b(parts, h):
    # exactly h consecutive largest parts, all greater than h + 1, and every
    # part other than 2 greater than h
    if h < 3 or not is_butterfly_tuple(parts):
        return False
    non2 = [x for x in parts if x != 2]
    return (initial_run(parts) == h and parts[0] > 2 * h
            and bool(non2) and non2[-1] > h)


def _in_equal_triple(parts, _=None):
    # the triple value must be >= 3: it mirrors the middle part of a
    # butterfly head, whose smallest admissible value is 3
    if len(parts) < 3 or parts[0] != parts[1] or parts[1] != parts[2]:
        return False
    if parts[0] < 3 or parts[-1] < 2:
        return False
    rest = parts[2:]
    if not is_strict_tuple(rest):
        return False
    return len(parts) == 3 or parts[3] <= parts[2] - 2


def _in_staircase(parts, end):
    # steps <= 1 down to the smallest parts ``end`` (3, 3 or 3, 2, 1), top pair equal
    return (len(parts) > len(end) and parts[0] == parts[1] and parts[-len(end):] == end
            and all(a - b <= 1 for a, b in zip(parts, parts[1:])))


def _in_butterfly_plus_ones(parts):
    ones = sum(1 for x in parts if x == 1)
    if ones > 2:
        return False
    return is_butterfly_tuple(parts[:len(parts) - ones])


def pow2_free_parts(n):
    """The parts 1..n that are not powers of two, ascending (3, 5, 6, 7, 9...)."""
    return [x for x in range(1, n + 1) if x & (x - 1)]


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

BY_H = object()  # the param of a bar set's alias: the size h, which enum reads from --h


class _Row(NamedTuple):
    """One kind of the catalogue.  The callables take (part tuple, param) or
    (n, param), and reach every function the benchmark traces through its
    module's namespace at call time, never hold it."""
    test: object              # membership of a part tuple
    head_tail: object = None  # (shape, parity of the second part, ends), or (h, n) -> that
    lister: object = None     # the part tuples of n, for a kind with no head_tail
    counter: object = None    # the count at n, for a kind count_table does not count
    conjugate: tuple = None   # a staircase's (conjugate kind, parity flip)
    retest: bool = False      # each listed member is checked against in_family
    aliases: dict = {}        # CLI alias -> param


def _butterfly_row(parity, alias):
    # counted by count_butterfly, one value of the butterfly shape's packed
    # table kept in the store, which named_sequence's s_e, s_o and r1''
    # tables, the odd-step rows and parity also read
    return _Row(lambda parts, _: (is_butterfly_tuple(parts)
                                  and (parity is None or parts[1] % 2 == parity)),
                (pt.BUTTERFLY_SHAPE, parity, ((),)),
                counter=lambda n, _: pt.count_butterfly(n, parity), aliases={alias: None})


def _odd_step_row(form, parity, alias):
    # merging and splitting: the butterflies whose second part has this
    # parity are in bijection with the form's members
    return _Row(lambda parts, _: splitmerge.matches_form(Partition._wrap(parts), form),
                lister=lambda n, _: splitmerge.iter_form_tuples(n, form),
                counter=lambda n, _: pt.count_butterfly(n, parity),
                retest=True, aliases={alias: None})


def _bar_row(vertical, parity, alias):
    # a bar set of size h is a head (a+h-1, ..., a) over a strict tail, then
    # an optional 2: A with a >= h + 1, the tail within [h + 1, a - 1], then
    # the part h; B with a >= h + 2, the tail within [h + 1, a - 2].  h < 3
    # has no ends, and neither has any h up to an n below 3h(h+1)/2, the
    # least member's sum (A's least head over h, B's least head), so no
    # shape of size h is built where it could hold nothing
    def head_tail(h, n):
        if h < 3 or 2 * n < 3 * h * (h + 1):
            return None, parity, ()
        shape = (tuple(range(h - 1, -1, -1)), h + 1 + vertical, 1 + vertical, h + 1)
        return shape, parity, ((), (2,)) if vertical else ((h,), (h, 2))

    test = _in_bar_b if vertical else _in_bar_a
    return _Row(lambda parts, h: test(parts, h) and parts[1] % 2 == parity, head_tail,
                retest=True, aliases={alias: BY_H})


# A head-and-tail shape is a consecutive pair over a strict tail below it (of
# parts >= 2 for r1 and r2, and two below the pair for r1'), a butterfly
# head, or an equal triple over a strict tail of parts >= 2 two below it.
# r2 ends in a 1, the butterflies of Prop. 21 in zero, one or two 1s.  A
# staircase's number of parts is its conjugate's largest part, the repeated
# value of an equal triple and one more than the second part of a butterfly
_R1_SHAPE = ((1, 0), 2, 1, 2)
CATALOGUE = {
    STRICT: _Row(lambda parts, _: is_strict_tuple(parts), lister=lambda n, _: iter_strict_tuples(n),
                 counter=lambda n, _: pt.strict_pentagonal_table(n)[n], aliases={"strict": None}),
    CONSEC: _Row(lambda parts, _: _in_consec(parts), (((1, 0), 1, 1, 1), None, ((),)),
                 aliases={"consec": None}),
    CONSEC_NO_ONE: _Row(lambda parts, _: _in_consec(parts) and parts[-1] >= 2,
                        (_R1_SHAPE, None, ((),)), aliases={"r1": None}),
    CONSEC_WITH_ONE: _Row(_in_consec_with_one, (_R1_SHAPE, None, ((1,),)), retest=True,
                          aliases={"r2": None}),
    CONSEC_ISOLATED: _Row(_in_consec_isolated, (((1, 0), 2, 2, 2), None, ((),)),
                          aliases={"r1-prime": None}),
    BUTTERFLY: _butterfly_row(None, "butterfly"),
    BUTTERFLY_EVEN: _butterfly_row(0, "butterfly-even"),
    BUTTERFLY_ODD: _butterfly_row(1, "butterfly-odd"),
    EQUAL_TRIPLE: _Row(_in_equal_triple, (((0, 0, 0), 3, 2, 2), None, ((),)),
                       aliases={"equal-triple": None}),
    STAIRCASE_321: _Row(lambda parts, _: _in_staircase(parts, (3, 2, 1)),
                        lister=lambda n, _: _iter_staircase(n, 1, (2, 1)),
                        conjugate=(BUTTERFLY, 1), aliases={"staircase-321": None}),
    STAIRCASE_33: _Row(lambda parts, _: _in_staircase(parts, (3, 3)),
                       lister=lambda n, _: _iter_staircase(n, 2, ()),
                       conjugate=(EQUAL_TRIPLE, 0), aliases={"staircase-33": None}),
    ODD_GE: _Row(lambda parts, b: all(x % 2 == 1 and x >= b for x in parts),
                 lister=lambda n, b: _iter_odd_parts(n, b),
                 counter=lambda n, b: pt.count_odd_ge_table(n, b)[n],
                 aliases={"odd-ge-%d" % b: b for b in (1, 3, 5)}),
    ODD_STEP1: _odd_step_row(splitmerge.STEP1, 0, "odd-step1"),
    ODD_STEP2: _odd_step_row(splitmerge.STEP2, 1, "odd-step2"),
    ODD_STEP1_SWITCHED: _odd_step_row(splitmerge.STEP1_SWITCHED, 0, "odd-step1-switched"),
    ODD_STEP2_SWITCHED: _odd_step_row(splitmerge.STEP2_SWITCHED, 1, "odd-step2-switched"),
    BAR_AE: _bar_row(False, 0, "bar-ae"),
    BAR_AO: _bar_row(False, 1, "bar-ao"),
    BAR_BE: _bar_row(True, 0, "bar-be"),
    BAR_BO: _bar_row(True, 1, "bar-bo"),
    BUTTERFLY_PLUS_ONES: _Row(lambda parts, _: _in_butterfly_plus_ones(parts),
                              (pt.BUTTERFLY_SHAPE, None, ((), (1,), (1, 1))),
                              aliases={"butterfly-plus-ones": None}),
    DISTINCT_NOT_POW2: _Row(lambda parts, _: (is_strict_tuple(parts)
                                              and all(x & (x - 1) for x in parts)),
                            lister=lambda n, _: pt.pool_tuples(pow2_free_parts(n), [(n, None, ())]),
                            counter=lambda n, _: pt.count_distinct_with_parts(
                                n, pow2_free_parts(n))[n],
                            aliases={"distinct-not-pow2": None}),
}


def _row(f):
    row = CATALOGUE.get(f.kind)
    if row is None:
        raise ValueError("unknown family %r" % (f,))
    return row


def _head_tail_row(row, param, n):
    """The row's (shape, parity, ends) for the members up to n, built from h
    for a bar set; None for a kind with a lister."""
    head_tail = row.head_tail
    return head_tail(param, n) if callable(head_tail) else head_tail


def in_family(p: Partition, f: Family) -> bool:
    """Total membership predicate: the row's test of the part tuple."""
    return _row(f).test(p.parts, f.param)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _iter_staircase(n, threes, tail):
    # above the fixed smallest parts ``tail``, a staircase with steps <= 1
    # from a top value v >= 3 (at least twice) down to 3, with every value in
    # [3, v] present and the value 3 at least ``threes`` times (once more for
    # v = 3, whose 3s include the top pair)
    out = []
    append = out.append
    core = n - sum(tail)

    def rec(j, remaining, prefix, lo):
        # below prefix: j at least lo times, then each value j - 1, ..., 3
        if j == 4:
            # m 4s and (remaining - 4m)/3 >= threes 3s: m = remaining (mod 3)
            m = lo + (remaining - lo) % 3
            while 4 * m + 3 * threes <= remaining:
                append(prefix + (4,) * m + (3,) * ((remaining - 4 * m) // 3) + tail)
                m += 3
            return
        min_below = sum(range(4, j)) + 3 * threes  # one of each value below
        for m in range(lo, (remaining - min_below) // j + 1):
            rec(j - 1, remaining - m * j, prefix + (j,) * m, 1)

    if core % 3 == 0 and core // 3 >= threes + 1:  # v = 3
        append((3,) * (core // 3) + tail)
    v = 4
    while 2 * v + sum(range(4, v)) + 3 * threes <= core:  # v twice, one of each below
        rec(v, core, (), 2)
        v += 1
    del rec  # rec's cell refers to rec: clear it, or the cycle keeps ``out`` alive
    return out


def family_tuples(n, f: Family):
    """The part tuples of enumerate_family(n, f), in its order; refused above
    partitions.LISTING_BUDGET.  Each passes Partition's check once
    (partitions.checked_tuples), and each member of a retest kind in_family."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = _row(f)
    if n > pt.FITS_BUDGET_N:
        pt.check_budget(count_family(n, f), "%s at n=%d" % (f, n))
    head_tail = _head_tail_row(row, f.param, n)
    if head_tail is None:
        tuples = row.lister(n, f.param)
    else:
        shape, parity, ends = head_tail
        if ends == ((),):  # nothing to append
            tuples = iter_head_tail_tuples(n, shape, parity)
        else:
            tuples = [t + end for end in ends
                      for t in iter_head_tail_tuples(n - sum(end), shape, parity)]
            if f.kind == CONSEC_WITH_ONE and n == 3:
                tuples.append((2, 1))  # its 1 is the pair's, not an end
    result = pt.checked_tuples(sorted(tuples, reverse=True))
    if row.retest:
        # generated from shape: the predicate stays the oracle of every member
        for p in map(Partition._wrap, result):
            if not in_family(p, f):
                raise AssertionError("generated %s outside %s" % (p, f))
    return result


def enumerate_family(n, f: Family):
    """All partitions of n in the family, lexicographically decreasing: the
    Partitions of family_tuples(n, f)."""
    return list(map(Partition._wrap, family_tuples(n, f)))


def _iter_odd_parts(n, bound):
    """The partitions of n into odd parts >= bound, largest first part first:
    the pool holds each odd x as often as it fits in n."""
    yield from pt.pool_tuples((x for x in range(max(bound, 1) | 1, n + 1, 2)
                               for _ in range(n // x)), [(n, None, ())])


def count_table(N, f: Family, parity=None):
    """[count_family(n, f) for n in 0..N] with no listing, for a kind with a
    head-and-tail row or a staircase: per end of the row, one packed table of
    its shape (partitions.count_head_tail_table) shifted by the end's sum.  A
    parity keeps the members whose second part (staircase: length) has it."""
    kind, flip = _row(f).conjugate or (f.kind, 0)
    if CATALOGUE[kind].head_tail is None:
        raise ValueError("count_table counts no %s: it has no head-and-tail row" % kind)
    shape, fixed, ends = _head_tail_row(CATALOGUE[kind], f.param, N)
    fixed = fixed if parity is None else parity ^ flip
    table = [0] * (N + 1)
    for end in ends:  # an end above N adds nothing
        s = sum(end)
        table[s:] = map(operator.add, table[s:],
                        pt.count_head_tail_table(max(N - s, 0), shape, fixed))
    if kind == CONSEC_WITH_ONE and N >= 3 and fixed != 0:
        table[3] += 1  # (2, 1), whose second part is odd
    return table


def count_family(n, f: Family) -> int:
    """len(family_tuples(n, f)) with no listing and no budget: the row's
    counter, or count_table."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    counter = _row(f).counter
    return count_table(n, f)[n] if counter is None else counter(n, f.param)
