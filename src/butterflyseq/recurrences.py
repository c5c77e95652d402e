"""Pentagonal-offset and triangular-offset recurrences, and the checksum
algorithms that rebuild the sequences from triangular-supported case tables.

The pentagonal routes evaluate finite alternating sums of a basis table at
offsets 3k^2 -+ k; the triangular routes read the basis on the doubled-degree
lattice, so their offsets live on half-integers of the sequence argument.
The checksum of a table is

    name(m) + sum_{k>=1} (-1)^k [name(m - 3k^2 + k) + name(m - 3k^2 - k)]

and equals a constant supported on triangular numbers and small shifts of
them; solving that relation for name(m) rebuilds the whole table.
"""

from math import isqrt

from . import partitions as pt
from .partitions import pentagonal_offsets, triangular_series
from .sequences import (DIFF_WEIGHTS, RECURRENCE, SequenceTable, _weighted, counting_dp,
                        named_sequence)

PENT_BASES = {"q": "p", "r": "dp", "s": "d2p"}


def _pentagonal_sum(at, m):
    """at(m) + sum_{k>=1} (-1)^k [at(m - 3k^2 + k) + at(m - 3k^2 - k)]."""
    return at(m) + sum(sign * at(m - o) for o, sign in pentagonal_offsets(m, 2))


def _basis_reader(name, m, basis, tables, step):
    """Coefficient reader of a recurrence route for name at m.

    The basis table sits on the lattice step * Z (basis(h) at degree
    step * h) and is spread by the difference polynomial of name for basis
    "p-with-poly".  The basis comes from its counting DP (counting_dp), not
    from named_sequence, whose p, dp and d2p come from the pentagonal kernel
    the route is meant to check.  Tables are kept in ``tables`` and rebuilt
    only when shorter than m, so callers evaluating many m can share them.
    """
    if name not in PENT_BASES:
        raise ValueError("no recurrence route for %r" % name)
    if basis == "p-with-poly":
        key, weights = "p", DIFF_WEIGHTS[name]
    elif basis in ("p", "dp", "d2p"):
        if basis != PENT_BASES[name]:
            raise ValueError("basis %r does not produce %r" % (basis, name))
        key, weights = basis, (1,)
    else:
        raise ValueError("unknown basis %r" % basis)
    if tables is None:
        tables = {}
    if key not in tables or len(tables[key]) <= m:
        tables[key] = counting_dp(key, max(m, 0))
    table = tables[key]

    def at(j):
        return sum(w * table[(j - d) // step] for d, w in enumerate(weights)
                   if j >= d and (j - d) % step == 0)
    return at


def recur_value(name, m, basis=None, tables=None):
    """Pentagonal-offset evaluation of q, r or s at m.

    basis "p" (for q), "dp" (for r) and "d2p" (for s) use the matching
    combinatorial table directly; basis "p-with-poly" (for r and s) spreads
    the difference polynomial over the unrestricted-partition table.  The
    d2p route reproduces s only where the combinatorial table agrees with
    the raw second difference of p; see validate_route.
    """
    if basis is None:
        basis = PENT_BASES.get(name)
    return _pentagonal_sum(_basis_reader(name, m, basis, tables, 1), m)


def triangular_value(name, m, basis=None, tables=None):
    """Triangular-offset evaluation of q, r or s at m.

    The basis sits on even degrees (basis(h) contributes at degree 2h), so
    for q the term at triangular offset T is p((m - T)/2) when that argument
    is a nonnegative integer and 0 otherwise.  For r and s with basis
    "p-with-poly" the difference polynomial spreads across the lattice:
    odd residues pick up the odd-shift terms.  The "dp"/"d2p" bases evaluate
    the combinatorial tables at (m - T)/2 directly; they do not reproduce r
    and s (the spread terms are missing) and exist for validate_route.
    """
    if basis is None:
        basis = "p" if name == "q" else "p-with-poly"
    at = _basis_reader(name, m, basis, tables, 2)
    total = 0
    k = 0
    while k * (k + 1) // 2 <= m:
        total += at(m - k * (k + 1) // 2)
        k += 1
    return total


def validate_route(kind, name, basis, N):
    """Compare a recurrence route against the enumerated table on 0..N.

    Returns the list of (m, route value, table value) mismatches.  The
    pentagonal d2p route and the triangular dp/d2p routes are known not to
    validate (their printed forms rest on basis values that differ from the
    exact difference series at one or two small arguments); the mismatch
    lists document exactly where.
    """
    table = named_sequence(name, N)
    tables = {}
    fn = {"pentagonal": recur_value, "triangular": triangular_value}[kind]
    out = []
    for m in range(N, -1, -1):  # the first call sizes the shared tables for all m
        got = fn(name, m, basis, tables)
        if got != table[m]:
            out.append((m, got, table[m]))
    return out[::-1]


# ---------------------------------------------------------------------------
# Checksums
# ---------------------------------------------------------------------------

CHECKSUM_NAMES = ("q", "r", "s", "t")


def checksum(name, m, table=None):
    """name(m) + sum_{k>=1} (-1)^k [name(m-3k^2+k) + name(m-3k^2-k)]."""
    if table is None:
        table = named_sequence(name, max(m, 0))
    return _pentagonal_sum(lambda j: table[j] if 0 <= j <= table.last_n else 0, m)


def _is_triangular(m):
    return m >= 0 and isqrt(8 * m + 1) ** 2 == 8 * m + 1


def expected_checksum(name, m):
    """The predicted checksum value: the coefficient of x^m in the triangular
    theta series times the sequence's difference polynomial.

    Every value is a short signed sum of triangular-number indicators, which
    is the closed case analysis the recursive solver runs on.  (Two printed
    case tables disagree with this at single inputs; see DEVIATIONS.md.)
    """
    if name not in DIFF_WEIGHTS:
        raise ValueError("unknown checksum sequence %r" % name)
    return sum(w * _is_triangular(m - d) for d, w in enumerate(DIFF_WEIGHTS[name]))


def expected_checksum_series(name, N):
    """[expected_checksum(name, m) for m in 0..N]: the triangular theta
    series times the difference polynomial, written only at the triangular
    numbers and their small shifts (partitions.triangular_series)."""
    if name not in DIFF_WEIGHTS:
        raise ValueError("unknown checksum sequence %r" % name)
    return triangular_series(N, DIFF_WEIGHTS[name])


def recursive_solve(name, N) -> SequenceTable:
    """Rebuild the table from the checksum relation alone: the table times
    prod (1 - x^{2j}) is the expected checksum series, theta times the
    name's difference polynomial, so
    name(m) = expected_checksum(name, m) - alternating pentagonal sum.
    Dividing by prod (1 - x^{2j}) commutes with multiplying by the
    polynomial, so every name weights one base, theta / prod (1 - x^{2j}),
    which pentagonal_solve divides in O(N^{3/2}) from
    expected_checksum_series("q", N).  The base is kept in the process's
    store under "theta" (partitions.solved_prefix), apart from the
    production q and p tables, so the route never reads them."""
    if N < 0:
        raise ValueError("N=%d below the offset 0 of %s" % (N, name))
    if name not in DIFF_WEIGHTS:
        raise ValueError("unknown checksum sequence %r" % name)
    theta = pt.solved_prefix(
        "theta", N, lambda head: pt.pentagonal_solve(expected_checksum_series("q", N), 2, head))
    return SequenceTable(name, 0, _weighted(DIFF_WEIGHTS[name], theta), RECURRENCE)
