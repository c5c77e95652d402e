"""Named integer sequences, difference operators, slices and exports.

Tables carry an explicit offset (the first meaningful input) because most of
the sequences here start late: the consecutive-pair refinements at n = 3, the
isolated/butterfly refinements at n = 5, the even/odd butterfly subsequences
at n = 6.
"""

import math
from operator import add, sub

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
    Family,
    count_family,
    count_table,
)

ENUMERATED = "enumerated"
RECURRENCE = "recurrence"

# r, s and t are q times the difference polynomials (1 - x), (1 - x)^2 and
# (1 + x + x^2)(1 - x)^2: name -> coefficients of x^0, x^1, ...
DIFF_WEIGHTS = {"q": (1,), "r": (1, -1), "s": (1, -2, 1), "t": (1, -1, 0, -1, 1)}

# dp and d2p are p times (1 - x) and (1 - x)^2, and d2p adds x - x^2: no
# partition of 1 or 2 is free of 1s with a repeated largest part, where the
# second difference of p reads -1 and +1
_P_WEIGHTS = {"p": (1,), "dp": (1, -1), "d2p": (1, -2, 1)}

# the tables counted from one packed head-and-tail table (families.count_table):
# name -> (family, parity of its split key).  e, o split the equal triples by
# their repeated value, the primed tables the staircases by their number of
# parts, so by conjugation e'' = e, o'' = o, e' = s_o and o' = s_e
_COUNTED = {
    "r1": (Family(CONSEC_NO_ONE), None), "r2": (Family(CONSEC_WITH_ONE), None),
    "r1_prime": (Family(CONSEC_ISOLATED), None),
    "e": (Family(EQUAL_TRIPLE), 0), "o": (Family(EQUAL_TRIPLE), 1),
    "e_prime": (Family(STAIRCASE_321), 0), "o_prime": (Family(STAIRCASE_321), 1),
    "e_dprime": (Family(STAIRCASE_33), 0), "o_dprime": (Family(STAIRCASE_33), 1),
}

# p, dp and d2p -> the part-by-part counting DP in partitions that checks
# them, by name, so that a rebound partitions function is the one called
_COUNTING_DPS = {"p": "count_partitions_table", "dp": "count_no_ones_table",
                 "d2p": "count_no_ones_repeated_top_table"}


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

_OFFSETS = {
    "q": 0, "r": 0, "s": 0, "t": 0,
    "p": 0, "dp": 0, "d2p": 0,
    "r1": 3, "r2": 3, "r1_prime": 5, "r1_dprime": 5,
    "s_e": 6, "s_o": 6,
    "e": 6, "o": 6, "e_prime": 6, "o_prime": 6, "e_dprime": 6, "o_dprime": 6,
}

SEQUENCE_NAMES = tuple(_OFFSETS)


def named_sequence(name, N) -> SequenceTable:
    """Values of the named sequence for inputs offset..N.

    q and p come from the pentagonal kernel (partitions.pentagonal_solve,
    O(N^{3/2}) additions): q solves Q(x) E(x) = E(x^2) and p solves
    P(x) E(x) = 1, with E(x) = prod (1 - x^j).  Each is read off its table
    in the process's store (partitions.solved_prefix), so a call at or below
    the longest N asked for so far solves nothing.  r, s and t apply their
    difference polynomials (DIFF_WEIGHTS) to q, and dp and d2p theirs
    (_P_WEIGHTS) to p, by construction here.  The O(N^2) counting DPs and the
    family enumerations they are cross-checked against live in
    crosscheck_table, counting_dp and the test suite.  The _COUNTED tables are
    one packed head-and-tail table each, not listings, so the listing budget
    spares them; r1'', s_e and s_o are read n by n through count_family from
    count_butterfly's table of the butterfly shape, which the process's
    store keeps, so no recursion bounds N.
    """
    if name not in _OFFSETS:
        raise ValueError("unknown sequence %r" % name)
    offset = _OFFSETS[name]
    if N < offset:
        raise ValueError("N=%d below the offset %d of %s" % (N, offset, name))
    if name in DIFF_WEIGHTS:
        q = pt.strict_pentagonal_table(N)
        return SequenceTable(name, 0, _weighted(DIFF_WEIGHTS[name], q))
    if name in _P_WEIGHTS:
        p = pt.solved_prefix("p", N, lambda head: pt.pentagonal_solve([1] + [0] * N, 1, head))
        vals = _weighted(_P_WEIGHTS[name], p)
        if name == "d2p":  # + x - x^2
            vals[1:3] = [v + c for v, c in zip(vals[1:3], (1, -1))]
        return SequenceTable(name, 0, vals)

    if name in _COUNTED:
        return SequenceTable(name, offset, count_table(N, *_COUNTED[name])[offset:])
    family = Family({"r1_dprime": BUTTERFLY, "s_e": BUTTERFLY_EVEN, "s_o": BUTTERFLY_ODD}[name])
    # n by n through count_butterfly, largest n first: the first read builds
    # the stored table through N once and every later one reads it, where
    # smallest first would rebuild it whole at each n past its end
    vals = [count_family(n, family) for n in range(N, offset - 1, -1)]
    return SequenceTable(name, offset, vals[::-1])


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
    in partitions: the oracle of the pentagonal route of named_sequence."""
    return getattr(pt, _COUNTING_DPS[name])(N)


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

EXCEPTION_FORMS = {
    # form name -> closed expression in t
    "gen_pentagonal_plus_two": lambda t: (3 * t * t + t + 4) // 2,
    "pentagonal": lambda t: (3 * (t + 1) ** 2 - t - 1) // 2,
    "pentagonal_plus_two": lambda t: (3 * (t + 1) ** 2 - t + 3) // 2,
    "gen_pentagonal": lambda t: (3 * (t + 1) ** 2 + t + 1) // 2,
}

# form name -> s_e - s_o at its inputs: the even-second-part count trails by
# one or leads by one (and e - o, e'' - o'' agree with it, e' - o' is its negative)
EXCEPTION_SIGNS = {"gen_pentagonal_plus_two": -1, "pentagonal": 1,
                   "pentagonal_plus_two": 1, "gen_pentagonal": -1}


def _exception_values(N):
    """(value, form name, t) for each closed form with t >= 2 and value <= N."""
    for name, f in EXCEPTION_FORMS.items():
        t = 2
        while f(t) <= N:
            yield f(t), name, t
            t += 1


def exception_form_of(n):
    """(form name, t) when n matches one of the four closed forms with t >= 2,
    else None.  The forms are pairwise disjoint on t >= 2."""
    hits = [(name, t) for v, name, t in _exception_values(n) if v == n]
    if not hits:
        return None
    if len(hits) > 1:
        raise AssertionError("closed forms overlap at n=%d: %r" % (n, hits))
    return hits[0]


def _exception_count(N):
    """len(parity_exception_inputs(N)), without listing: each form exceeds
    3t^2/2 at t, so its largest t with a value <= N is at most isqrt(2N/3),
    and a step or two down finds it."""
    total = 0
    for f in EXCEPTION_FORMS.values():
        t = math.isqrt(2 * max(N, 0) // 3)
        while t >= 2 and f(t) > N:
            t -= 1
        total += max(t - 1, 0)  # t = 2, ..., t
    return total


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


# name -> its cross-check routes, each (route, first n checked, the route's
# values at 0..N from N), none of them the route of named_sequence: q against
# strict enumeration (through n = 45), the odd-parts counts and the strict DP;
# r and s against the differences of the DP's q, r against the odd-parts >= 3
# counts and s against a packed butterfly table built apart from the store
# (count_table, not count_butterfly's); t against the odd-parts >= 5 counts;
# s_e and s_o against (s +- delta)/2; p, dp and d2p against their counting DPs
_CROSSCHECKS = {
    "q": (("listing", 0, lambda N: [len(list(pt.iter_strict_tuples(n)))
                                    for n in range(min(N, 45) + 1)]),
          ("odd-parts", 0, lambda N: pt.count_odd_ge_table(N, 1)),
          ("strict-dp", 0, lambda N: pt.count_strict_table(N))),
    "r": (("difference", 0, lambda N: _strict_dp_difference("r", N)),
          ("odd-ge-3", 0, lambda N: pt.count_odd_ge_table(N, 3))),
    "s": (("difference", 0, lambda N: _strict_dp_difference("s", N)),
          ("butterfly", 6, lambda N: count_table(N, Family(BUTTERFLY)))),
    "t": (("odd-ge-5", 0, lambda N: pt.count_odd_ge_table(N, 5)),),
    "s_e": (("butterfly-parity", 6, lambda N: _butterfly_parity(1, N)),),
    "s_o": (("butterfly-parity", 6, lambda N: _butterfly_parity(-1, N)),),
    **{name: (("counting-dp", 0, lambda N, name=name: counting_dp(name, N)),)
       for name in _COUNTING_DPS},
}


def crosscheck_table(name, N) -> list:
    """Independent recomputation of a named table by each of its routes in
    _CROSSCHECKS; returns the mismatches (name, n, route, expected, got),
    route by route.  An odd s +- delta is a mismatch (expected None)."""
    table = named_sequence(name, N)
    if name not in _CROSSCHECKS:
        raise ValueError("no cross-check route for %r" % name)
    mismatches = []
    for route, lo, build in _CROSSCHECKS[name]:
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
