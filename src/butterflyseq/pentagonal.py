"""Pentagonal structure of butterfly partitions.

Every butterfly partition is exactly one of: a pentagonal staircase, a
generalized pentagonal staircase, either of those with a domino (an extra
part 2), or non-pentagonal.  Non-pentagonal partitions carry a removable
horizontal bar (a smallest non-2 part equal to h, with the h largest parts
consecutive) or a removable vertical bar (exactly h consecutive largest
parts, everything but an optional 2 above h); the bar bijections pair these
across the parity of the second-largest part, which is what forces the
even/odd butterfly counts to agree away from the four closed-form inputs.
"""

from typing import NamedTuple

from . import partitions as pt
from .families import (
    BAR_KINDS, BUTTERFLY, Family, _in_bar_a, _in_bar_b, enumerate_family, in_family)
from .partitions import Partition
from .sequences import EXCEPTION_SIGNS, exception_form_of, named_sequence

PENTAGONAL = "pentagonal"
GEN_PENTAGONAL = "gen_pentagonal"
PENTAGONAL_DOMINO = "pentagonal_domino"
GEN_PENTAGONAL_DOMINO = "gen_pentagonal_domino"
NONPENT_HBAR = "nonpent_hbar"
NONPENT_VBAR = "nonpent_vbar"

class PentClass(NamedTuple):
    kind: str
    h: int


def make_pentagonal(kind, h) -> Partition:
    """The canonical partition of each pentagonal kind.

    Sums: h(3h-1)/2 for the pentagonal staircase, h(3h+1)/2 for the
    generalized one, plus 2 for the domino kinds.  The domino on the
    generalized staircase exists from h = 2 (its bare staircase would only
    have two parts); all other kinds need h >= 3.
    """
    min_h = 2 if kind == GEN_PENTAGONAL_DOMINO else 3
    if h < min_h:
        raise ValueError("%s requires h >= %d" % (kind, min_h))
    if kind == PENTAGONAL:
        return Partition(range(2 * h - 1, h - 1, -1))
    if kind == GEN_PENTAGONAL:
        return Partition(range(2 * h, h, -1))
    if kind == PENTAGONAL_DOMINO:
        return Partition(tuple(range(2 * h - 1, h - 1, -1)) + (2,))
    if kind == GEN_PENTAGONAL_DOMINO:
        return Partition(tuple(range(2 * h, h, -1)) + (2,))
    raise ValueError("unknown pentagonal kind %r" % kind)


def classify(p: Partition) -> PentClass:
    """The five-way classification, total and exclusive on butterfly partitions.

    Non-pentagonal partitions get the smallest h >= 3 admitting them into a
    bar set, horizontal before vertical at equal h.
    """
    if not in_family(p, Family(BUTTERFLY)):
        raise ValueError("not a butterfly partition: %s" % p)
    h = len(p)
    if h >= 3 and p[0] in (2 * h - 1, 2 * h):
        kind = PENTAGONAL if p[0] == 2 * h - 1 else GEN_PENTAGONAL
        if p == make_pentagonal(kind, h):
            return PentClass(kind, h)
    h = len(p) - 1
    if h >= 3 and p[0] == 2 * h - 1 and p == make_pentagonal(PENTAGONAL_DOMINO, h):
        return PentClass(PENTAGONAL_DOMINO, h)
    if h >= 2 and p[0] == 2 * h and p == make_pentagonal(GEN_PENTAGONAL_DOMINO, h):
        return PentClass(GEN_PENTAGONAL_DOMINO, h)
    for h in range(3, p[0] + 1):
        if _in_bar_a(p.parts, h):
            return PentClass(NONPENT_HBAR, h)
        if _in_bar_b(p.parts, h):
            return PentClass(NONPENT_VBAR, h)
    raise AssertionError("unclassifiable butterfly partition: %s" % p)


def enumerate_bars(n, h):
    """The four bar sets at (n, h) as (A_e, A_o, B_e, B_o), generated from
    their shapes; every member is checked against _in_bar_a or _in_bar_b,
    which stay the oracle."""
    if n < 6 or h < 3:
        raise ValueError("need n >= 6 and h >= 3")
    return tuple(enumerate_family(n, Family(kind, h)) for kind in BAR_KINDS)


EQUAL = "equal"
EVEN_MINUS_ONE = "even_minus_one"   # even-second-part count trails by one
EVEN_PLUS_ONE = "even_plus_one"     # even-second-part count leads by one


class ParityWitness(NamedTuple):
    relation: str
    form: str | None   # which closed form matched, if any
    t: int | None


def parity_relation(n) -> ParityWitness:
    """Predicted relation between the even/odd butterfly counts at n,
    from the four closed forms with t >= 2."""
    if n < 6:
        raise ValueError("defined for n >= 6")
    hit = exception_form_of(n)
    if hit is None:
        return ParityWitness(EQUAL, None, None)
    form, t = hit
    relation = EVEN_MINUS_ONE if EXCEPTION_SIGNS[form] < 0 else EVEN_PLUS_ONE
    return ParityWitness(relation, form, t)


def _butterfly_counts(n):
    """(s_e(n), s_o(n)) from partitions.count_butterfly, each a value of the
    butterfly shape's packed head-and-tail table, built once per process
    through the largest n asked for: they count the shapes, not the parity
    theorem they check, and no recursion bounds n."""
    return tuple(pt.count_butterfly(n, parity) for parity in (0, 1))


def parity_relation_holds(n) -> bool:
    """Does the predicted relation hold at n?  It predicts s_e - s_o: 0, or
    the sign of the closed form n matches.  s_e and s_o are counted
    (_butterfly_counts); no partition is listed.  ``parity --json`` reports
    the result under the key ``agrees_with_enumeration``, kept for its
    callers: the counts equal the lengths of the enumerated families, which
    the tests check."""
    delta = EXCEPTION_SIGNS.get(parity_relation(n).form, 0)
    s_e, s_o = _butterfly_counts(n)
    return s_e - s_o == delta


class ParityRefinedCounts(NamedTuple):
    n: int
    s: int
    s_e: int
    s_o: int
    e: int
    o: int
    e_prime: int
    o_prime: int
    e_dprime: int
    o_dprime: int
    relation: str
    relations_hold: bool


def parity_refined_counts(n) -> ParityRefinedCounts:
    """All parity-refined counts at n, with the sign relations evaluated.

    The equal-triple counts split by the parity of the repeated value, the
    two staircase forms by the parity of the number of parts.  At the
    closed-form inputs one count leads its partner by one, with the lead
    on the staircase-to-3-2-1 side mirrored relative to the other two.
    """
    if n < 6:
        raise ValueError("defined for n >= 6")
    s_e, s_o = _butterfly_counts(n)
    e, o, e_p, o_p, e_pp, o_pp = (named_sequence(name, n)[n] for name in (
        "e", "o", "e_prime", "o_prime", "e_dprime", "o_dprime"))

    w = parity_relation(n)
    delta = EXCEPTION_SIGNS.get(w.form, 0)
    ok = s_e - s_o == e - o == e_pp - o_pp == delta and e_p - o_p == -delta
    return ParityRefinedCounts(n, s_e + s_o, s_e, s_o, e, o, e_p, o_p, e_pp, o_pp,
                               w.relation, ok)
