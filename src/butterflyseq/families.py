"""The closed catalogue of partition families.

Each family has a decidable membership predicate and a deterministic
enumerator returning partitions in lexicographically decreasing order.
Every listing but the two staircases (_iter_staircase) comes from one
filler, partitions.pool_tuples, over a pool of the parts a family may use:
the strict partitions from 1..n, the odd-part ones from each odd x >= b
repeated as often as it fits in n, the pow2-free ones from pow2_free_parts(n)
once each.  Each head-and-tail family has one row (_head_tail_row): a shape
of consecutive or equal largest parts over a strict tail, the parity of the
second part, and the fixed ends, one of which closes each member.  A row is
listed by partitions.iter_head_tail_tuples once per end, and counted by
count_table from one packed table per end; the capped odd-step forms are
listed by splitmerge.iter_form_tuples, so none lists a larger family to
filter it, and counted by listing.  Every listed member of r2, of a bar set
and of an odd-step form is checked against its predicate (_in_bar_a,
_in_bar_b, in_family, splitmerge.matches_form), which stays the oracle, as
the listings stay the oracle of the counts.  family_tuples returns a listing
as checked part tuples, which the CLI prints; enumerate_family wraps them as
Partitions.
"""

import operator
from typing import NamedTuple

from . import partitions as pt
from . import splitmerge
from .partitions import (
    DEFAULT_ENUM_LIMIT,
    Partition,
    check_limit,
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


class Family(NamedTuple):
    kind: str
    param: int | None = None

    def __str__(self):
        return self.kind if self.param is None else "%s(%d)" % (self.kind, self.param)


# odd-step kind -> its splitmerge form
_ODD_STEP_FORMS = {ODD_STEP1: splitmerge.STEP1, ODD_STEP2: splitmerge.STEP2,
                   ODD_STEP1_SWITCHED: splitmerge.STEP1_SWITCHED,
                   ODD_STEP2_SWITCHED: splitmerge.STEP2_SWITCHED}

# bar kind -> (vertical, parity of the second part)
_BAR_KINDS = {BAR_AE: (False, 0), BAR_AO: (False, 1), BAR_BE: (True, 0), BAR_BO: (True, 1)}


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


def _in_equal_triple(parts):
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


def _in_staircase_33(parts):
    if len(parts) < 3 or parts[0] != parts[1]:
        return False
    if parts[-1] != 3 or parts[-2] != 3:
        return False
    return all(a - b <= 1 for a, b in zip(parts, parts[1:]))


def _in_staircase_321(parts):
    if len(parts) < 4 or parts[0] != parts[1]:
        return False
    if parts[-1] != 1 or parts[-2] != 2 or parts[-3] != 3:
        return False
    return all(a - b <= 1 for a, b in zip(parts, parts[1:]))


def _in_butterfly_plus_ones(parts):
    ones = sum(1 for x in parts if x == 1)
    if ones > 2:
        return False
    return is_butterfly_tuple(parts[:len(parts) - ones])


def pow2_free_parts(n):
    """The parts 1..n that are not powers of two, ascending (3, 5, 6, 7, 9...)."""
    return [x for x in range(1, n + 1) if x & (x - 1)]


def in_family(p: Partition, f: Family) -> bool:
    """Total membership predicate."""
    parts = p.parts
    kind = f.kind
    if kind == STRICT:
        return is_strict_tuple(parts)
    if kind in (CONSEC, CONSEC_NO_ONE, CONSEC_WITH_ONE, CONSEC_ISOLATED):
        if len(parts) < 2 or not is_strict_tuple(parts) or parts[0] != parts[1] + 1:
            return False
        if kind == CONSEC:
            return True
        if kind == CONSEC_WITH_ONE:
            return parts[-1] == 1
        isolated = len(parts) < 3 or parts[1] >= parts[2] + 2
        return parts[-1] >= 2 and (kind == CONSEC_NO_ONE or isolated)
    if kind == BUTTERFLY:
        return is_butterfly_tuple(parts)
    if kind == BUTTERFLY_EVEN:
        return is_butterfly_tuple(parts) and parts[1] % 2 == 0
    if kind == BUTTERFLY_ODD:
        return is_butterfly_tuple(parts) and parts[1] % 2 == 1
    if kind == EQUAL_TRIPLE:
        return _in_equal_triple(parts)
    if kind == STAIRCASE_321:
        return _in_staircase_321(parts)
    if kind == STAIRCASE_33:
        return _in_staircase_33(parts)
    if kind == ODD_GE:
        return all(x % 2 == 1 and x >= f.param for x in parts)
    if kind in _ODD_STEP_FORMS:
        return splitmerge.matches_form(p, _ODD_STEP_FORMS[kind])
    if kind in _BAR_KINDS:
        vertical, parity = _BAR_KINDS[kind]
        return (_in_bar_b if vertical else _in_bar_a)(parts, f.param) and parts[1] % 2 == parity
    if kind == BUTTERFLY_PLUS_ONES:
        return _in_butterfly_plus_ones(parts)
    if kind == DISTINCT_NOT_POW2:
        return is_strict_tuple(parts) and all(x & (x - 1) for x in parts)
    raise ValueError("unknown family %r" % (f,))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# kind -> (head-and-tail shape, parity of the second part, ends) of the
# families listed by partitions.iter_head_tail_tuples, each member a partition
# of the shape with one of the ends appended: a consecutive pair over a strict
# tail below it (of parts >= 2 for r1 and r2, and two below the pair for r1'),
# a butterfly head, or an equal triple over a strict tail of parts >= 2 two
# below it.  r2 ends in a 1, the butterflies of Prop. 21 in zero, one or two 1s
_R1_SHAPE = ((1, 0), 2, 1, 2)
_HEAD_TAIL = {
    CONSEC: (((1, 0), 1, 1, 1), None, ((),)),
    CONSEC_NO_ONE: (_R1_SHAPE, None, ((),)),
    CONSEC_WITH_ONE: (_R1_SHAPE, None, ((1,),)),
    CONSEC_ISOLATED: (((1, 0), 2, 2, 2), None, ((),)),
    BUTTERFLY: (pt.BUTTERFLY_SHAPE, None, ((),)),
    BUTTERFLY_EVEN: (pt.BUTTERFLY_SHAPE, 0, ((),)),
    BUTTERFLY_ODD: (pt.BUTTERFLY_SHAPE, 1, ((),)),
    EQUAL_TRIPLE: (((0, 0, 0), 3, 2, 2), None, ((),)),
    BUTTERFLY_PLUS_ONES: (pt.BUTTERFLY_SHAPE, None, ((), (1,), (1, 1))),
}


def _head_tail_row(f):
    """The _HEAD_TAIL row of f, None for a family of no row, or for a bar set
    of size h a head (a+h-1, ..., a) over a strict tail, then an optional 2:
    A with a >= h + 1, the tail within [h + 1, a - 1], then the part h; B with
    a >= h + 2, the tail within [h + 1, a - 2].  h < 3 has no ends."""
    if f.kind not in _BAR_KINDS:
        return _HEAD_TAIL.get(f.kind)
    vertical, parity = _BAR_KINDS[f.kind]
    h = f.param
    shape = (tuple(range(h - 1, -1, -1)), h + 1 + vertical, 1 + vertical, h + 1)
    return shape, parity, () if h < 3 else ((), (2,)) if vertical else ((h,), (h, 2))


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


def family_tuples(n, f: Family, limit=DEFAULT_ENUM_LIMIT):
    """The part tuples of enumerate_family(n, f, limit), in its order.  Each
    passes Partition's check once (partitions.checked_tuples), and each member
    of a kind generated from its shape also its predicate."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_limit(n, limit)
    kind = f.kind
    row = _head_tail_row(f)
    if kind == STRICT:
        tuples = iter_strict_tuples(n)
    elif row is not None:
        shape, parity, ends = row
        if ends == ((),):  # nothing to append
            tuples = iter_head_tail_tuples(n, shape, parity)
        else:
            tuples = [t + end for end in ends
                      for t in iter_head_tail_tuples(n - sum(end), shape, parity)]
            if kind == CONSEC_WITH_ONE and n == 3:
                tuples.append((2, 1))  # its 1 is the pair's, not an end
    elif kind == STAIRCASE_321:
        tuples = _iter_staircase(n, 1, (2, 1))
    elif kind == STAIRCASE_33:
        tuples = _iter_staircase(n, 2, ())
    elif kind == ODD_GE:
        tuples = _iter_odd_parts(n, f.param)
    elif kind in _ODD_STEP_FORMS:
        tuples = splitmerge.iter_form_tuples(n, _ODD_STEP_FORMS[kind])
    elif kind == DISTINCT_NOT_POW2:
        tuples = pt.pool_tuples(pow2_free_parts(n), [(n, None, ())])
    else:
        raise ValueError("unknown family %r" % (f,))
    result = pt.checked_tuples(sorted(tuples, reverse=True))
    if kind == CONSEC_WITH_ONE or kind in _ODD_STEP_FORMS or kind in _BAR_KINDS:
        # generated from shape: the predicate stays the oracle of every member
        for p in map(Partition._wrap, result):
            if not in_family(p, f):
                raise AssertionError("generated %s outside %s" % (p, f))
    return result


def enumerate_family(n, f: Family, limit=DEFAULT_ENUM_LIMIT):
    """All partitions of n in the family, lexicographically decreasing: the
    Partitions of family_tuples(n, f, limit)."""
    return list(map(Partition._wrap, family_tuples(n, f, limit)))


def _iter_odd_parts(n, bound):
    """The partitions of n into odd parts >= bound, largest first part first:
    the pool holds each odd x as often as it fits in n."""
    yield from pt.pool_tuples((x for x in range(max(bound, 1) | 1, n + 1, 2)
                               for _ in range(n // x)), [(n, None, ())])


def _bar_sets(n, h):
    """The four bar sets at (n, h) as (A_e, A_o, B_e, B_o), each listed from
    its row (_head_tail_row) and checked member by member against _in_bar_a
    or _in_bar_b."""
    return tuple(enumerate_family(n, Family(kind, h))
                 for kind in (BAR_AE, BAR_AO, BAR_BE, BAR_BO))


# staircase kind -> (the kind of its conjugates, whether conjugation flips the
# parity of the split key): a staircase's number of parts is its conjugate's
# largest part, the repeated value of an equal triple and one more than the
# second part of a butterfly
_CONJUGATES = {STAIRCASE_33: (EQUAL_TRIPLE, 0), STAIRCASE_321: (BUTTERFLY, 1)}


def count_table(N, f: Family, parity=None):
    """[count_family(n, f) for n in 0..N] with no listing, for a family with a
    row or a staircase: per end of the row, one packed table of its shape
    (partitions.count_head_tail_table) shifted by the end's sum.  A parity
    keeps the members whose second part (staircase: length) has it."""
    kind, flip = _CONJUGATES.get(f.kind, (f.kind, 0))
    shape, fixed, ends = _head_tail_row(Family(kind, f.param))
    fixed = fixed if parity is None else parity ^ flip
    table = [0] * (N + 1)
    for end in ends:  # an end above N adds nothing
        s = sum(end)
        table[s:] = map(operator.add, table[s:],
                        pt.count_head_tail_table(max(N - s, 0), shape, fixed))
    if kind == CONSEC_WITH_ONE and N >= 3 and fixed != 0:
        table[3] += 1  # (2, 1), whose second part is odd
    return table


def count_family(n, f: Family, limit=DEFAULT_ENUM_LIMIT) -> int:
    """len(family_tuples(n, f)), via exact counting where available.

    The limit guards listing only, so it applies to families counted by
    enumeration."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    kind = f.kind
    if kind == STRICT:
        return pt.strict_pentagonal_table(n)[n]
    if kind == ODD_GE:
        return pt.count_odd_ge_table(n, f.param)[n]
    if kind in (BUTTERFLY, BUTTERFLY_EVEN, BUTTERFLY_ODD):
        return pt.count_butterfly(n, _HEAD_TAIL[kind][1])
    if kind == DISTINCT_NOT_POW2:
        return pt.count_distinct_with_parts(n, pow2_free_parts(n))[n]
    if kind in _HEAD_TAIL or kind in _CONJUGATES or kind in _BAR_KINDS:
        return count_table(n, f)[n]
    return len(family_tuples(n, f, limit))
