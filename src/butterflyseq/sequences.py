"""Named integer sequences, difference operators, slices and exports.

Tables carry an explicit offset (the first meaningful input) because most of
the sequences here start late: the consecutive-pair refinements at n = 3, the
isolated/butterfly refinements at n = 5, the even/odd butterfly subsequences
at n = 6.

Each of the 19 named sequences has one row in ROUTES: its offset, its
production route, which named_sequence runs, and its check routes, which
crosscheck_table compares the table against and counting_dp reads for p,
dp and d2p.  q, r, s, t, p, dp and d2p come from the pentagonal kernel,
and the twelve family tables from the catalogue of families, counted, not
listed.  SEQUENCE_NAMES, and the CLI's seq choices, are the table's names.

The parity-exception inputs, where s_e(n) - s_o(n) = delta(n) is not 0,
are the sizes of the four pentagonal shapes, one row each of
PENTAGONAL_SHAPES: a shape is h consecutive parts from 2h + lift down and
then its ends, () or (2,); its closed form in t is its size at h = t +
h_minus_t, and its sign, delta at those inputs, is +1 exactly when its
second part is even.  EXCEPTION_FORMS and EXCEPTION_SIGNS are read off
the rows, and pentagonal.make_pentagonal and classify build and match the
same rows.
"""

import math
from operator import add, sub
from typing import NamedTuple

from . import partitions as pt
from .families import (
    BUTTERFLY,
    BUTTERFLY_EVEN,
    BUTTERFLY_ODD,
    CONSEC_ISOLATED,
    CONSEC_NO_ONE,
    CONSEC_WITH_ONE,
    EQUAL_TRIPLE,
    STAIRCASE_321,
    STAIRCASE_33,
    CATALOGUE,
    Family,
    count_family,
    count_table,
)

ENUMERATED = "enumerated"
RECURRENCE = "recurrence"

# r, s and t are q times the difference polynomials (1 - x), (1 - x)^2 and
# (1 + x + x^2)(1 - x)^2: name -> coefficients of x^0, x^1, ...
DIFF_WEIGHTS = {"q": (1,), "r": (1, -1), "s": (1, -2, 1), "t": (1, -1, 0, -1, 1)}


class SequenceTable(pt.Record):
    """Values of sequence ``name`` for inputs offset, offset + 1, ...
    Immutable, compared and hashed by all four fields."""

    __slots__ = ("name", "offset", "values", "provenance")

    def __init__(self, name, offset, values, provenance=ENUMERATED):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "provenance", provenance)

    @property
    def last_n(self):
        return self.offset + len(self.values) - 1

    def __getitem__(self, n):
        """Value at input n; inputs below the offset read as 0."""
        if n < self.offset:
            return 0
        if n > self.last_n:
            raise IndexError("n=%d beyond table %s (last %d)" % (n, self.name, self.last_n))
        return self.values[n - self.offset]

    def slice(self, lo, hi):
        return [self[n] for n in range(lo, hi + 1)]


def difference(t: SequenceTable) -> SequenceTable:
    """First difference, with values below the offset treated as 0."""
    return SequenceTable("d" + t.name, t.offset, _weighted((1, -1), t.values), t.provenance)


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

# Each route reaches every function it runs through its module's namespace
# at call time, never holds it, so that a rebound function is the one called.

def _q_times(name):
    """The production route of q, r, s or t: the stored pentagonal q times
    the name's difference polynomial (DIFF_WEIGHTS)."""
    return lambda N, offset: _weighted(DIFF_WEIGHTS[name], pt.strict_pentagonal_table(N))


def _p_times(weights, plus=()):
    """The production route of p, dp or d2p: the stored pentagonal p times
    the polynomial ``weights``, plus x times the polynomial ``plus``."""
    def build(N, offset):
        vals = _weighted(weights, pt.solved_prefix(
            "p", N, lambda head: pt.pentagonal_solve([1] + [0] * N, 1, head)))
        vals[1:1 + len(plus)] = map(add, vals[1:1 + len(plus)], plus)
        return vals
    return build


def _counted(kind, parity=None):
    """The production route of a family table: a kind whose catalogue row
    has a counter is read n by n through count_family, largest n first (the
    first read builds its stored table through N once and every later one
    reads it, where smallest first would rebuild it whole at each n past its
    end); any other is one count_table, split by the parity of its key."""
    family = Family(kind)
    if CATALOGUE[kind].counter is None:
        return lambda N, offset: count_table(N, family, parity)[offset:]
    return lambda N, offset: [count_family(n, family) for n in range(N, offset - 1, -1)][::-1]


# name -> (offset, production route, check routes).  The production route
# gives the values at offset..N from (N, offset); each check route is (route,
# first n checked, N -> the route's values at 0..N), and none of them runs
# the production route.  q, r, s and t are the pentagonal q times their
# difference polynomials: q is checked against strict enumeration (through
# n = 45), the odd-parts counts and the strict DP; r and s against the
# differences of the DP's q, r against the odd-parts >= 3 counts and s
# against a packed butterfly table built apart from the store (count_table,
# not count_butterfly's); t against the odd-parts >= 5 counts.  p, dp and d2p
# are the pentagonal p times (1 - x)^i, checked against their part-by-part
# counting DPs; d2p adds x - x^2, since no partition of 1 or 2 is free of 1s
# with a repeated largest part, where the second difference of p reads -1
# and +1.  The twelve family tables come from the catalogue: r1, r2 and r1'
# count the consecutive pairs, e and o split the equal triples by their
# repeated value, the primed tables the staircases by their number of parts
# (so by conjugation e'' = e, o'' = o, e' = s_o and o' = s_e), and r1'', s_e
# and s_o count the butterflies, whose store also serves parity and the
# odd-step kinds; s_e and s_o are checked against (s +- delta)/2.  The other
# ten family tables have no check route yet.
ROUTES = {
    "q": (0, _q_times("q"), (
        ("listing", 0, lambda N: [len(list(pt.iter_strict_tuples(n)))
                                  for n in range(min(N, 45) + 1)]),
        ("odd-parts", 0, lambda N: pt.count_odd_ge_table(N, 1)),
        ("strict-dp", 0, lambda N: pt.count_strict_table(N)))),
    "r": (0, _q_times("r"), (("difference", 0, lambda N: _strict_dp_difference("r", N)),
                             ("odd-ge-3", 0, lambda N: pt.count_odd_ge_table(N, 3)))),
    "s": (0, _q_times("s"), (("difference", 0, lambda N: _strict_dp_difference("s", N)),
                             ("butterfly", 6, lambda N: count_table(N, Family(BUTTERFLY))))),
    "t": (0, _q_times("t"), (("odd-ge-5", 0, lambda N: pt.count_odd_ge_table(N, 5)),)),
    "p": (0, _p_times((1,)), (("counting-dp", 0, lambda N: pt.count_partitions_table(N)),)),
    "dp": (0, _p_times((1, -1)), (("counting-dp", 0, lambda N: pt.count_no_ones_table(N)),)),
    "d2p": (0, _p_times((1, -2, 1), (1, -1)),
            (("counting-dp", 0, lambda N: pt.count_no_ones_repeated_top_table(N)),)),
    "r1": (3, _counted(CONSEC_NO_ONE), ()), "r2": (3, _counted(CONSEC_WITH_ONE), ()),
    "r1_prime": (5, _counted(CONSEC_ISOLATED), ()), "r1_dprime": (5, _counted(BUTTERFLY), ()),
    "s_e": (6, _counted(BUTTERFLY_EVEN), (
        ("butterfly-parity", 6, lambda N: _butterfly_parity(1, N)),)),
    "s_o": (6, _counted(BUTTERFLY_ODD), (
        ("butterfly-parity", 6, lambda N: _butterfly_parity(-1, N)),)),
    "e": (6, _counted(EQUAL_TRIPLE, 0), ()), "o": (6, _counted(EQUAL_TRIPLE, 1), ()),
    "e_prime": (6, _counted(STAIRCASE_321, 0), ()), "o_prime": (6, _counted(STAIRCASE_321, 1), ()),
    "e_dprime": (6, _counted(STAIRCASE_33, 0), ()), "o_dprime": (6, _counted(STAIRCASE_33, 1), ()),
}

SEQUENCE_NAMES = tuple(ROUTES)


def named_sequence(name, N) -> SequenceTable:
    """Values of the named sequence for inputs offset..N, by the production
    route of its row in ROUTES.

    q and p come from the pentagonal kernel (partitions.pentagonal_solve,
    O(N^{3/2}) additions): q solves Q(x) E(x) = E(x^2) and p solves
    P(x) E(x) = 1, with E(x) = prod (1 - x^j).  Each is read off its table
    in the process's store (partitions.solved_prefix), so a call at or below
    the longest N asked for so far solves nothing.  r, s and t apply their
    difference polynomials to q, and dp and d2p theirs to p.  The O(N^2)
    counting DPs and the family enumerations they are cross-checked against
    live in the rows' check routes (crosscheck_table, counting_dp) and the
    test suite.  The twelve family tables are counted from the catalogue,
    not listed, so the listing budget spares them: each is one packed
    head-and-tail table (families.count_table), or, for the butterfly kinds,
    read n by n through count_family from count_butterfly's table of the
    butterfly shape, which the process's store keeps, so no recursion
    bounds N.
    """
    if name not in ROUTES:
        raise ValueError("unknown sequence %r" % name)
    offset, build, _ = ROUTES[name]
    if N < offset:
        raise ValueError("N=%d below the offset %d of %s" % (N, offset, name))
    return SequenceTable(name, offset, build(N, offset))


def _weighted(weights, series):
    """series times the polynomial with coefficients weights, through the
    length of series: one whole-list pass per nonzero weight after the
    first, adding series shifted by d times weights[d] into out[d:]."""
    w0 = weights[0]
    out = list(series) if w0 == 1 else [w0 * x for x in series]
    for d, w in enumerate(weights[1:], 1):
        if w:
            out[d:] = map(add if w > 0 else sub, out[d:],
                          series if abs(w) == 1 else map(abs(w).__mul__, series))
    return out


def counting_dp(name, N):
    """[name(0..N)] for p, dp or d2p from its O(N^2) part-by-part counting DP
    in partitions, the "counting-dp" check route of its row in ROUTES: the
    oracle of the pentagonal route of named_sequence; any other name is
    refused."""
    checks = {route: values for route, _, values in ROUTES.get(name, (0, None, ()))[2]}
    if "counting-dp" not in checks:
        raise ValueError("no counting DP for %r" % name)
    return checks["counting-dp"](N)


def mod3_slices(s: SequenceTable, residue, m0) -> SequenceTable:
    """The subsequence s(3m + residue) for m >= m0."""
    if residue not in (0, 1, 2):
        raise ValueError("residue must be 0, 1 or 2")
    vals = []
    m = m0
    while 3 * m + residue <= s.last_n:
        vals.append(s[3 * m + residue])
        m += 1
    return SequenceTable("%s_mod3_r%d" % (s.name, residue), m0, vals, s.provenance)


# ---------------------------------------------------------------------------
# Parity-exception inputs (the four closed forms, with t >= 2)
# ---------------------------------------------------------------------------

PENTAGONAL = "pentagonal"
GEN_PENTAGONAL = "gen_pentagonal"
PENTAGONAL_DOMINO = "pentagonal_domino"
GEN_PENTAGONAL_DOMINO = "gen_pentagonal_domino"


class PentagonalShape(NamedTuple):
    """One of the four pentagonal shapes: h consecutive parts from 2h + lift
    down, then the parts ``ends``.  Its closed form is its size at
    h = t + h_minus_t, and ``sign``, +1 when the second part 2h + lift - 1
    is even, is s_e - s_o at those sizes."""

    kind: str        # the pentagonal.classify kind
    lift: int
    ends: tuple
    h_minus_t: int
    sign: int

    def parts_at(self, h):
        return tuple(range(2 * h + self.lift, h + self.lift, -1)) + self.ends

    def size_at(self, t):
        h = t + self.h_minus_t
        return h * (3 * h + 1) // 2 + self.lift * h + sum(self.ends)


# closed-form name -> shape: (3t^2+t+4)/2, (3(t+1)^2-t-1)/2, (3(t+1)^2-t+3)/2
# and (3(t+1)^2+t+1)/2 in the paper's order
PENTAGONAL_SHAPES = {
    "gen_pentagonal_plus_two": PentagonalShape(GEN_PENTAGONAL_DOMINO, 0, (2,), 0, -1),
    "pentagonal": PentagonalShape(PENTAGONAL, -1, (), 1, 1),
    "pentagonal_plus_two": PentagonalShape(PENTAGONAL_DOMINO, -1, (2,), 1, 1),
    "gen_pentagonal": PentagonalShape(GEN_PENTAGONAL, 0, (), 1, -1),
}

# form name -> closed expression in t, and -> s_e - s_o at its inputs (e - o
# and e'' - o'' agree with it, e' - o' is its negative)
EXCEPTION_FORMS = {form: shape.size_at for form, shape in PENTAGONAL_SHAPES.items()}
EXCEPTION_SIGNS = {form: shape.sign for form, shape in PENTAGONAL_SHAPES.items()}


def _exception_values(N):
    """(value, form name, t) for each closed form with t >= 2 and value <= N."""
    for name, f in EXCEPTION_FORMS.items():
        t = 2
        while (v := f(t)) <= N:
            yield v, name, t
            t += 1


def _last_t(f, N):
    """The largest t >= 2 with f(t) <= N, or a t below 2 when there is none:
    each form exceeds 3t^2/2 at t, so that t is at most isqrt(2N/3), and a
    step or two down finds it."""
    t = math.isqrt(2 * max(N, 0) // 3)
    while t >= 2 and f(t) > N:
        t -= 1
    return t


def exception_form_of(n):
    """(form name, t) when n matches one of the four closed forms with t >= 2,
    else None.  The forms are pairwise disjoint on t >= 2."""
    hits = [(name, t) for name, f in EXCEPTION_FORMS.items()
            if (t := _last_t(f, n)) >= 2 and f(t) == n]
    if not hits:
        return None
    if len(hits) > 1:
        raise AssertionError("closed forms overlap at n=%d: %r" % (n, hits))
    return hits[0]


def _exception_count(N):
    """len(parity_exception_inputs(N)), without listing."""
    return sum(max(_last_t(f, N) - 1, 0) for f in EXCEPTION_FORMS.values())  # t = 2, ..., t


def parity_exception_inputs(N):
    """All inputs <= N of the four closed forms with t >= 2, ascending.
    Refused (partitions.EnumerationLimitError, a ValueError) when there are
    more than partitions.LISTING_BUDGET: about 4 sqrt(2N/3) of them lie below
    N, so every N up to about 9 * 10^10 is answered.

    Note: the published list of these inputs up to 51 omits two entries (26
    and 40); see DEVIATIONS.md.  The computed list is the authoritative one
    and agrees with enumeration of the even/odd butterfly counts.
    """
    pt.check_budget(_exception_count(N), "the exceptional inputs up to %d" % N)
    return sorted({v for v, _, _ in _exception_values(N)})


# ---------------------------------------------------------------------------
# Cross-checks and exports
# ---------------------------------------------------------------------------

def _strict_dp_difference(name, N):
    """r or s at 0..N from the strict counting DP, not the pentagonal q."""
    return _weighted(DIFF_WEIGHTS[name], pt.count_strict_table(N))


def _butterfly_parity(sign, N):
    """(s + sign delta)/2 at 0..N, with s from the strict DP and delta the
    parity theorem's sign (EXCEPTION_SIGNS at the closed-form inputs, 0
    elsewhere); None where s + sign delta is odd, which no count can match."""
    delta = {v: EXCEPTION_SIGNS[form] for v, form, _ in _exception_values(N)}
    twice = [v + sign * delta.get(n, 0) for n, v in enumerate(_strict_dp_difference("s", N))]
    return [t // 2 if t % 2 == 0 else None for t in twice]


def crosscheck_table(name, N) -> list:
    """Independent recomputation of a named table by each check route of its
    row in ROUTES; returns the mismatches (name, n, route, expected, got),
    route by route.  An odd s +- delta is a mismatch (expected None).  A
    name with no check route is refused before its table is built, after
    named_sequence's refusals of an unknown name and an N below the offset."""
    row = ROUTES.get(name)
    if row and N >= row[0] and not row[2]:
        raise ValueError("no cross-check route for %r" % name)
    table = named_sequence(name, N)
    mismatches = []
    for route, lo, build in row[2]:
        values = build(N)
        mismatches += [(name, n, route, values[n], table[n])
                       for n in range(lo, len(values)) if values[n] != table[n]]
    return mismatches


def to_bfile(table: SequenceTable) -> str:
    """OEIS b-file format: one "n value" pair per line."""
    return "".join(map("%d %d\n".__mod__,
                       zip(range(table.offset, table.last_n + 1), table.values)))


def to_json(table: SequenceTable) -> dict:
    return {
        "name": table.name,
        "offset": table.offset,
        "provenance": table.provenance,
        "values": list(table.values),
    }
