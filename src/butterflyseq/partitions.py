"""Integer partitions: the core value type, exhaustive enumerators, the
pentagonal-recurrence kernel and the counting DPs.

Everything downstream (families, sequences, bijections, splitting/merging)
works on the Partition type defined here; its base Record is the immutable
record of SequenceTable and TruncSeries too.  The unrestricted lister
iter_partition_tuples is a plain backtracking generator, the brute-force
oracle the other listers, the counting routines and the series algebra are
tested against.  Every other lister but the staircases' draws on one filler,
pool_tuples, over a pool: the ascending parts a family may use, each value
repeated as often as it may occur (a strict range once each; odd parts, the
pow2-free parts and the capped tails of splitmerge as the families module
and splitmerge build them).  It fills one list with the partitions of n into
a sub-multiset of the pool, a prefix put before each, and stops at the first
part below which the rest no longer fits; a rest of one part, or of copies
of the pool's smallest value, is placed in one step.  checked_tuples passes
each listed tuple through Partition's check with one sort and compare.
iter_strict_tuples lists from the pool low..top, and iter_head_tail_tuples,
from one pool per call, every family shaped as a head of consecutive or
equal largest parts over a strict tail (consecutive pairs, butterflies,
equal triples); count_head_tail_table counts over the same heads every
n <= N at once, and count_head_tail one n through a memo, the tests' per-n
oracle of the table.
The pentagonal kernel (pentagonal_solve) is the production route for the
strict-partition counts, the partition counts p and their differences, and
the checksum solver; the part-by-part DPs stay as the independent oracles it
is checked against, and as the product sides of the series identities.  They
hold a whole table as one packed integer, so a factor 1 + x^m, and each of
the doublings m, 2m, 4m, ... that make up a factor 1/(1 - x^m), is one
big-integer shift-add, in a product (_packed_product, which adds the
factors above degree N/2 of each octave of a range as one prefix sum) and
in a nested sum over k (_packed_nested_sum: the series filtration sums
and, with factors 1 + x^j, count_head_tail_table, which counts every
head-and-tail family and the staircases without listing, so the
listing budget does not bound them).  One store per process, solved_prefix,
keeps the tables built so far under a closed set of keys: the pentagonal
kernel's three (q, p and the checksum base), each extended on demand from
its stored head, and the product and filtration-sum sides of the series
identities and the butterfly counts of count_butterfly, each rebuilt whole
when a call asks past it.
Each kernel sizes its slots from its own arguments (_slot_bytes): every
table counts at most p(n) < exp(pi sqrt(2n/3)) at n, and the strict-type
ones (distinct, odd or even parts; the filtration sums and head-and-tail
tables) at most q(n) < exp(pi sqrt(n/3)) or p(n/2), so their slots are about
30 % narrower.  Both bounds follow from c(n) x^n <= C(x) at x = e^-t, with
log C(e^-t) below pi^2/(6t) for p and pi^2/(12t) for q (a sum below its
integral), at the best t.
"""

import math
import operator
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain

# A listing holds at most this many items; its size is counted before it
# starts (count before list), so a refusal costs a count, never a listing.
LISTING_BUDGET = 10 ** 6
# p(60) = 966,467 <= LISTING_BUDGET < p(61) = 1,121,505: no family of an
# n <= FITS_BUDGET_N can exceed the budget, so its listing needs no count.
FITS_BUDGET_N = 60


class EnumerationLimitError(ValueError):
    """Raised, before anything is listed, for a listing above LISTING_BUDGET."""


class Record:
    """An immutable record of the fields its class names in ``__slots__``,
    set once through object.__setattr__: equal to a record of its own class
    with equal fields, hashed by them, shown as Name(field=value, ...), and
    rebuilt by copy and pickle from the class called on its fields in slot
    order."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            map("%s=%r".__mod__, zip(self.__slots__, self._fields()))))

    def __reduce__(self):
        return type(self), self._fields()


class Partition(Record):
    """A partition of a nonnegative integer: a non-increasing tuple of positive parts.

    The empty partition (of 0) is valid.  Instances are immutable by
    convention, hashable, and ordered by their part tuples so that sorting a
    list of partitions with ``reverse=True`` yields lexicographically
    decreasing order.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(int, parts))
        if parts and not (parts[-1] >= 1 and all(map(operator.ge, parts, parts[1:]))):
            # report the first violation, in the order the parts are read
            for i, x in enumerate(parts):
                if x < 1:
                    raise ValueError("parts must be positive integers: %r" % (parts,))
                if i and parts[i - 1] < x:
                    raise ValueError("parts must be non-increasing: %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _wrap(cls, parts):
        """The Partition of a tuple of ints that already passed
        checked_parts, with no check."""
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        return p

    @property
    def n(self):
        """Sum of the parts."""
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % list(self.parts)

    def __str__(self):
        return "+".join(map(str, self.parts))

    @classmethod
    def parse(cls, text):
        """Parse the "+"-joined form, e.g. ``"7+6+5"``.  Empty string gives ()."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(sorted((int(tok) for tok in text.split("+")), reverse=True))

    def is_strict(self):
        """True when all parts are distinct."""
        return is_strict_tuple(self.parts)

    def min_part(self):
        return self.parts[-1] if self.parts else 0

    def max_part(self):
        return self.parts[0] if self.parts else 0

    def consecutive_run(self):
        """Length of the maximal initial run of consecutive decreasing parts."""
        return initial_run(self.parts)


# ---------------------------------------------------------------------------
# Shape predicates on non-increasing part tuples
# ---------------------------------------------------------------------------

def is_strict_tuple(parts):
    """True when all parts are distinct."""
    return all(map(operator.gt, parts, parts[1:]))


def initial_run(parts):
    """Length of the maximal initial run of consecutive decreasing parts."""
    if not parts:
        return 0
    run = 1
    while run < len(parts) and parts[run] == parts[run - 1] - 1:
        run += 1
    return run


def is_butterfly_tuple(parts):
    """Strict, at least three parts, the three largest consecutive, smallest >= 2."""
    return (len(parts) >= 3 and is_strict_tuple(parts) and parts[-1] >= 2
            and parts[0] == parts[1] + 1 == parts[2] + 2)


def checked_tuples(tuples):
    """The list ``tuples`` of part tuples the library built, each passed
    through Partition's check once (parts >= 1, non-increasing) without its
    per-part int(); at the first that fails, __init__'s own ValueError.
    A tuple is non-increasing when sorting it in decreasing order leaves it
    as it is: one C-level sort and compare, which beats a pairwise scan from
    three parts on (the sort of a sorted run is one pass)."""
    for parts in tuples:
        if parts and not (parts[-1] >= 1 and [*parts] == sorted(parts, reverse=True)):
            Partition(parts)
    return tuples


def checked_parts(parts):
    """One part tuple through checked_tuples: ``parts``, once it passes."""
    return checked_tuples((parts,))[0]


def check_budget(count, what):
    """Refuse to list ``what``, of ``count`` items, above LISTING_BUDGET."""
    if count > LISTING_BUDGET:
        raise EnumerationLimitError("%s: %d to list, above the listing budget of %d"
                                    % (what, count, LISTING_BUDGET))


# ---------------------------------------------------------------------------
# Backtracking enumerators.  All yield tuples in lexicographically decreasing
# order (largest first part first, then recursively on the remainder).
# ---------------------------------------------------------------------------

def iter_partition_tuples(n, max_part=None, min_part=1):
    """All partitions of n with parts in [min_part, max_part], largest first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), min_part - 1, -1):
        for rest in iter_partition_tuples(n - first, first, min_part):
            yield (first,) + rest


def pool_tuples(pool, jobs):
    """One list of prefix + t, for each (n, stop, prefix) of ``jobs`` in turn
    and each partition t of n into a sub-multiset of pool[:stop], largest
    first part first.

    The pool is ascending, each value repeated as often as a part may take
    it.  A value is taken at its top remaining copy, with the rest drawn from
    the pool below that copy (so further copies come first); then the filler
    jumps below the value's first copy, so no partition comes out twice.  The
    parts below index i sum to below[i], so once they cannot make up the
    rest, neither can those below a smaller index.  Two rests are placed at
    once, with no further call.  A rest below the sum of the two smallest
    parts can only be one part: it is placed when a copy of it lies below
    the value's copy.  Below a copy of the pool's smallest value lie only
    its copies, so a rest they divide is that many more copies (enough of
    them lie below, since their sum covers the rest), and any other rest
    has no partition.

    The filler calls itself through its closure cell, and holds the list it
    fills, so the cell is cleared before returning: the cycle would
    otherwise keep the whole listing alive until a full collection.
    """
    pool = list(pool)
    pair = pool[0] + pool[1] if len(pool) > 1 else math.inf  # a rest below it: one part
    below = list(accumulate(pool, initial=0))  # below[i]: sum(pool[:i])
    first = dict(zip(reversed(pool), range(len(pool) - 1, -1, -1)))  # x: its first copy
    out = []
    append = out.append

    def fill(n, stop, prefix):
        i = bisect_right(pool, n, 0, stop)
        while i and below[i] >= n:
            x = pool[i - 1]
            r = n - x
            if r >= pair:
                if x > pool[0]:
                    fill(r, i - 1, prefix + (x,))
                elif not r % x:  # below the least value's copy lie only its copies
                    append(prefix + (x,) * (n // x))
            elif not r:
                append(prefix + (x,))
            elif first.get(r, i) < i - 1:
                append(prefix + (x, r))
            i = first[x]

    for n, stop, prefix in jobs:
        if n:
            fill(n, len(pool) if stop is None else stop, prefix)
        else:
            append(prefix)
    del fill
    return out


def iter_strict_tuples(n, max_part=None, min_part=1):
    """All strict (distinct-part) partitions of n, parts in [min_part, max_part]."""
    top = n if max_part is None else min(n, max_part)
    yield from pool_tuples(range(min_part, top + 1), [(n, None, ())])


# A head-and-tail shape (offsets, smallest a, gap, low) lists the partitions
# head(a) + tail with head(a) = (a + d for d in offsets), a >= smallest a, and
# the tail strict within [low, a - gap].
BUTTERFLY_SHAPE = ((2, 1, 0), 2, 1, 2)


def _shape_heads(n, shape, second_parity):
    """(head, rest, top) for each head of the shape in a partition of n,
    largest first: the tail is strict within [low, top] and sums to rest.
    ``second_parity`` of 0 or 1 keeps the heads whose second part has it."""
    offsets, smallest, gap, low = shape
    width, lift = len(offsets), sum(offsets)
    for a in range((n - lift) // width, smallest - 1, -1):
        if second_parity is not None and (a + offsets[1]) % 2 != second_parity:
            continue
        rest, top = n - width * a - lift, a - gap
        if rest <= max(top - low + 1, 0) * (top + low) // 2:  # sum of low..top
            yield tuple(a + d for d in offsets), rest, top


def iter_head_tail_tuples(n, shape, second_parity=None):
    """The partitions of n of a head-and-tail shape, largest head first."""
    low = shape[3]  # each tail is strict within [low, top]
    jobs = [(rest, max(top - low + 1, 0), head)
            for head, rest, top in _shape_heads(n, shape, second_parity)]
    if jobs:  # the first head has the largest top, so its pool serves all
        yield from pool_tuples(range(low, low + jobs[0][1]), jobs)


def iter_butterfly_tuples(n, second_parity=None):
    """Strict partitions of n with >= 3 parts, the three largest consecutive,
    and smallest part >= 2.

    ``second_parity`` of 0 (even) or 1 (odd) filters on the parity of the
    second-largest part.
    """
    yield from iter_head_tail_tuples(n, BUTTERFLY_SHAPE, second_parity)


# ---------------------------------------------------------------------------
# Euler's pentagonal number theorem:
#   prod_{j>=1} (1 - x^j) = 1 + sum_{k>=1} (-1)^k (x^{k(3k-1)/2} + x^{k(3k+1)/2}),
# so dividing a series by such a product needs only the O(sqrt(N)) offsets
# below each degree (sparse_solve, which divides by any sparse polynomial
# with constant term 1).  The triangular theta series sum x^{k(k+1)/2} is as
# sparse (triangular_series).
# ---------------------------------------------------------------------------

def pentagonal_offsets(N, step):
    """(offset, sign) of the terms of prod_{j>=1} (1 - x^{step j}) of degree
    1..N, ascending: the offsets step * k(3k -+ 1)/2 with sign (-1)^k."""
    k = 1
    while True:
        sign = -1 if k % 2 else 1
        for o in (step * k * (3 * k - 1) // 2, step * k * (3 * k + 1) // 2):
            if o > N:
                return
            yield o, sign
        k += 1


def euler_product(N, step):
    """Coefficients 0..N of prod_{j>=1} (1 - x^{step j})."""
    c = [1] + [0] * N
    for o, sign in pentagonal_offsets(N, step):
        c[o] = sign
    return c


def triangular_series(N, weights):
    """Coefficients 0..N of sum_{k>=0} x^{k(k+1)/2} times the polynomial with
    coefficients ``weights``: weight d lands at T + d for each triangular
    number T <= N, so the series costs O(sqrt(N)) writes."""
    out = [0] * (N + 1)
    T, k = 0, 0
    while T <= N:
        for d, w in enumerate(weights):
            if T + d <= N:
                out[T + d] += w
        k += 1
        T += k
    return out


def sparse_solve(rhs, terms, head=()):
    """v with v * (1 + sum of c x^o over the terms (o, c)) = rhs through
    degree len(rhs) - 1: ascending division by a sparse polynomial with
    constant term 1.  The terms come in ascending order of their offsets
    1 <= o < len(rhs), each c an integer (terms at one offset add up).

    ``head``, at most len(rhs) long, is a known prefix of v: the stretches
    below len(head) are skipped and rhs is read only from len(head) on, so
    extending a solution from n to N costs the coefficients n + 1..N alone.

    v[m] is rhs[m] less the weighted v[m - o] over the offsets o <= m, which
    costs one addition per term and coefficient.  Between two offsets the
    terms to gather stay the same, so the terms of c = 1 and of c = -1 each
    have one itemgetter, rebuilt once per stretch of coefficients in which
    new terms of its sign came into range, however many.  Any other c is
    gathered by a third, rebuilt every stretch once it holds a term, whose
    items are multiplied by their c.
    """
    N = len(rhs) - 1
    # v[0] is a zero sentinel: with v[1..m] holding v[0..m-1] when v[m] is
    # due, v[m - o] is v[-o], and index 0 makes each getter name at least
    # two items, so that it always returns a tuple
    v = [0, *head]
    append = v.append
    # 0, then -o for the terms x^o, -x^o and c x^o with |c| > 1 (weights: c)
    plus, minus, other, weights = [0], [0], [0], [0]
    gather_plus = gather_minus = operator.itemgetter(0, 0)
    start = len(head)
    # (N + 1, 0) closes the last stretch and adds no term
    for o, c in chain(terms, ((N + 1, 0),)):
        if o > start:  # the coefficients before o share the terms so far
            if gather_plus is None:
                gather_plus = operator.itemgetter(*plus)
            if gather_minus is None:
                gather_minus = operator.itemgetter(*minus)
            if len(other) > 1:
                gather_other = operator.itemgetter(*other)
                for r in rhs[start:o]:
                    append(r - sum(gather_plus(v)) + sum(gather_minus(v))
                           - sum(map(operator.mul, weights, gather_other(v))))
            else:
                for r in rhs[start:o]:
                    append(r - sum(gather_plus(v)) + sum(gather_minus(v)))
            start = o
        if c == 1:  # None: rebuilt once before the next stretch
            plus.append(-o)
            gather_plus = None
        elif c == -1:
            minus.append(-o)
            gather_minus = None
        elif c:
            other.append(-o)
            weights.append(c)
    del v[0]
    return v


def pentagonal_solve(rhs, step, head=()):
    """v with v * prod_{j>=1} (1 - x^{step j}) = rhs through degree len(rhs) - 1:
    sparse_solve over the product's pentagonal terms, O(N^{3/2}) additions
    for N + 1 coefficients, or for the coefficients from len(head) on when
    ``head`` is a known prefix of v."""
    return sparse_solve(rhs, pentagonal_offsets(len(rhs) - 1, step), head)


# The tables this process has built, one per key of SOLVED_KEYS: the
# pentagonal solutions q (rhs E(x^2), step 1), p (rhs 1, step 1) and the
# checksum base theta / E(x^2) (step 2), and the sides of the series
# identities built from the packed kernels (series._Sides): the products
# ("product", kind, param) of series.expand_product but "distinct" (which
# is q), and the filtration sums ("sum", c, j0, k_lo) of
# x^{k(k+c)/2} / prod_{j=j0..k} (1 - x^j) over k >= k_lo, and the butterfly
# counts ("butterfly", parity of the second part or None) of
# count_butterfly.  Each is the longest table a single call asked for.
SOLVED_KEYS = ("q", "p", "theta") + tuple(
    ("product", kind, param) for kind, param in (
        ("partitions", None), ("odd_reciprocal", 1), ("odd_reciprocal", 3),
        ("odd_reciprocal", 5), ("even_reciprocal", None), ("distinct_not_pow2", None),
        ("double", None))) + tuple(
    ("sum", c, j0, k_lo) for c, j0, k_lo in (
        (1, 1, 1), (1, 2, 2), (3, 3, 3), (3, 3, 2), (1, 3, 2), (1, 3, 3))) + tuple(
    ("butterfly", parity) for parity in (None, 0, 1))
_SOLVED = {}


def _stored(key, N, build):
    """The table stored under ``key``, at least N + 1 long: the store's own
    list, which the caller must not change.

    A call past the stored table calls build(head), head the stored table
    (empty at first), for v(0..N), and stores the result in its place: the
    pentagonal tables resume from head (pentagonal_solve), the packed ones
    ignore it and are built whole.  A build that raises leaves the store as
    it was.  So the store holds at most one table per key of SOLVED_KEYS,
    none longer than the longest one asked for.
    """
    if key not in SOLVED_KEYS:
        raise ValueError("no stored table %r" % (key,))
    v = _SOLVED.get(key, [])
    if len(v) <= N:
        v = _SOLVED[key] = build(v)
    return v


def solved_prefix(key, N, build):
    """v(0..N), sliced from the table stored under ``key`` (_stored), so a
    caller that changes a list it gets changes nothing stored.  A call at or
    below the stored table is a copy of a prefix, the same coefficients
    through N as a build at N."""
    return _stored(key, N, build)[:N + 1]


def strict_pentagonal_table(N):
    """[q(0..N)]: distinct-part partition counts in O(N^{3/2}), a fresh list
    from the stored "q" table (solved_prefix), extended only past its end.

    prod (1 + x^j) = prod (1 - x^{2j}) / prod (1 - x^j), so q solves
    Q(x) E(x) = E(x^2) with E(x) = prod (1 - x^j); both products are read
    off the pentagonal theorem.
    """
    return solved_prefix("q", N, lambda head: pentagonal_solve(euler_product(N, 2), 1, head))


# ---------------------------------------------------------------------------
# Exact counting (dynamic programming).  These are independent of the series
# and recurrence machinery, so they can stand as oracles at sizes where
# listing every partition would be wasteful.
#
# A table c[0..N] is packed into one integer: c[n] sits in a slot of w bytes
# at bit 8w(N - n), so degree 0 is the top slot.  Times (1 + x^s) is then
# C += C >> 8ws: the right shift adds c[n - s] into c[n] for every n at once
# and drops the terms above degree N.  Times 1/(1 - x^m) is the same step for
# s = m, 2m, 4m, ... <= N, since 1/(1 - y) = prod_i (1 + y^(2^i)).
#
# A product defers each part's last factor.  Part m is in octave j when
# N/2^(j+1) < m <= N/2^j; its last factor is then 1 + x^(m 2^j), of degree
# above N/2 (for 1 + x^m, only octave 0 has one).  Any two such factors
# multiply past degree N, so through degree N their product is 1 + the sum
# of their x^(m 2^j): the table of the other factors, base, plus base shifted
# by each of those degrees.  When an octave's parts are a range of step t
# that runs to the octave's top, those degrees are s0, s0 + t 2^j, ... up to
# N, and the shifted copies sum as base x^s0 / (1 - x^(t 2^j)): log2 of the
# octave's size in doublings, not one shift-add per part.  So p makes about
# N shift-adds, not 2N, and the odd-part, even-part and strict products
# about half as many as one per factor.
#
# Every step adds a nonnegative shifted copy of a partial product (base, the
# runs and every factor have nonnegative coefficients and constant term 1),
# so each intermediate table is at most the final one, cell by cell: a width
# that holds the final table's bound holds every step, and no carry crosses
# a slot boundary.  Each kernel sizes its slots from its own arguments
# (_slot_bytes).
# ---------------------------------------------------------------------------

def _slot_bytes(N):
    """Bytes per slot of a packed table through degree N that counts at most
    p(n) at each n <= N, from p(N) < exp(pi sqrt(2N/3)) (Apostol,
    Introduction to Analytic Number Theory, Thm 14.5), with a guard bit and a
    bit for rounding.  Proof: p(n) x^n <= prod 1/(1 - x^j) at x = e^-t, and
    sum_j -log(1 - e^-jt) < integral_0^inf -log(1 - e^-ut) du = pi^2/(6t),
    so log p(n) < nt + pi^2/(6t), which is pi sqrt(2n/3) at t = pi/sqrt(6n).

    A table of at most q(n) or p(n/2) at each n, q the strict partition
    counts, takes _slot_bytes((N + 1) // 2), about 30 % narrower.  p(n/2) <=
    p(ceil(N/2)) is the bound above at ceil(N/2), and q(n) < exp(pi sqrt(n/3))
    <= exp(pi sqrt(2 ceil(N/2)/3)) by the same proof: q(n) x^n <= prod
    (1 + x^j), sum_j log(1 + e^-jt) < pi^2/(12t), and t = pi/sqrt(12n).
    _packed_product takes the narrow width for distinct parts, odd parts
    (the odd-part partitions number q(n)) and even parts (p(n/2));
    _packed_nested_sum for the strict-type sums (see there).  So the strict,
    odd-part, even-part and pow2-free products, the five filtration sums and
    the head-and-tail tables are narrow; p, the tables without 1s, the
    repeated-top sum and mixed-parity part sets keep the p width, and so do
    the signed tables of series, whose widths are their own.
    """
    return (int(math.pi * math.sqrt(2 * N / 3) / math.log(2)) + 10) // 8


def _unpack(C, N, w):
    """[c[0..N]] of a table packed with w-byte slots, top slot first."""
    b = C.to_bytes((N + 1) * w, "big")
    frm = int.from_bytes
    return [frm(b[i:i + w], "big") for i in range(0, len(b), w)]


def _checked_parts(parts):
    """The part sizes, checked: a range stays a range (its sizes never
    repeat), so that _packed_product can read its octaves; anything else
    becomes a list."""
    if isinstance(parts, range):
        if parts and min(parts[0], parts[-1]) < 1:
            raise ValueError("part sizes must be positive: %r" % (parts,))
        return parts
    parts = list(parts)
    if parts and min(parts) < 1:
        raise ValueError("part sizes must be positive: %r" % (parts,))
    if len(set(parts)) != len(parts):
        raise ValueError("part sizes must not repeat: %r" % (parts,))
    return parts


def _packed_one(N, narrow):
    """(w, 1 packed through degree N in w-byte slots): w is the narrow width
    of _slot_bytes if narrow() holds, else the p width.  The narrow table is
    made before narrow() is asked, so that an order no table can hold fails
    at once, not after a scan of the parts or terms."""
    w = _slot_bytes((N + 1) // 2)
    one = 1 << 8 * w * N
    if not narrow():
        w = _slot_bytes(N)
        one = 1 << 8 * w * N
    return w, one


# An octave's last factors are added as one run only when it holds at least
# this many parts: below that, the run's set-up costs more than the per-part
# shift-adds it saves.
_RUN_PARTS = 24


def _octave_runs(N, parts, repeated):
    """(segments, runs) for _packed_product: the range ``parts`` cut into
    pieces, each with the largest factor degree the per-part loop applies
    to it, and the runs that add the last factors the loop leaves out, each
    as (s0, stride), the degree of its first last factor and the step.

    An octave makes a run when it holds at least _RUN_PARTS parts of the
    range, of step t, and the range goes on past the octave's top N/2^j:
    its last factors are then x^(m 2^j) for every m of the range from the
    first one above N/2^(j+1) until the degree passes N, which through
    degree N is x^s0 / (1 - x^(t 2^j)).  The octaves are read off the
    range's ends, with no pass over its parts, and one unbroken band of
    them is taken; the per-part loop stops its parts at degree N/2."""
    runs = []
    if not (N >= 2 * _RUN_PARTS and parts.step > 0 and parts[0] <= N):
        return ((N, parts),), runs
    a, t = parts.start, parts.step
    after = parts[-1] + t  # the next size the range would hold
    j = (N // min(parts[-1], N)).bit_length() - 1  # the octave of the largest part <= N
    while repeated or j == 0:
        top, bottom = N >> j, N >> j + 1
        if top - bottom < _RUN_PARTS * t:  # too few parts here or below
            break
        first = a if a > bottom else a + ((bottom - a) // t + 1) * t
        if after > top and (top - first) // t + 1 >= _RUN_PARTS:
            if not runs:
                hi = top
            lo = bottom
            runs.append((first << j, t << j))
        elif runs:
            break
        j += 1
    if not runs:
        return ((N, parts),), runs
    i, k = max((lo - a) // t + 1, 0), (hi - a) // t + 1  # the parts <= lo and <= hi
    return ((N, parts[:i]), (N >> 1, parts[i:k]), (N, parts[k:])), runs


def _one_parity(parts):
    """True when the sizes are all odd or all even; read off a range's step."""
    if isinstance(parts, range):
        return len(parts) < 2 or parts.step % 2 == 0
    return len({m & 1 for m in parts}) < 2


def _packed_product(N, parts, repeated):
    """[c[0..N]] of prod over the part sizes m of 1/(1 - x^m) (``repeated``)
    or of (1 + x^m): partitions of 0..N into those sizes, with or without
    repetition.  Sizes above N are skipped.  The sizes must not repeat; the
    slots are narrow (_slot_bytes) when the parts are distinct, all odd or
    all even.

    The last factors of the octaves that _octave_runs finds are deferred
    (see the comment above _slot_bytes): their parts stop at degree N/2,
    and the table then, base, gains base x^s0 / (1 - x^stride) for each run,
    by doublings of the run's own copy.  The parts of any other octave, and
    any parts not given as a range, keep one shift-add per factor, applied
    in place, which multiplies the same factors in."""
    w, C = _packed_one(N, lambda: not repeated or _one_parity(parts))
    bits = 8 * w
    segments, runs = ((N, parts),), ()
    if isinstance(parts, range) and len(parts) >= _RUN_PARTS:
        segments, runs = _octave_runs(N, parts, repeated)
    for top, piece in segments:
        for m in piece:
            s = m
            while s <= top:
                C += C >> bits * s
                if not repeated:
                    break
                s += s
    base = C
    for s0, stride in runs:
        run = base >> bits * s0
        s = stride
        while s <= N - s0:
            run += run >> bits * s
            s += s
        C += run
    return _unpack(C, N, w)


def _exponents(N, k_lo, exponent):
    """(k, exponent(k)) for k = k_lo, k_lo + 1, ... while exponent(k) <= N."""
    k = k_lo
    while (e := exponent(k)) <= N:
        yield k, e
        k += 1


def _packed_nested_sum(N, j0, k_lo, exponent, repeated=True, keep=None):
    """[c[0..N]] of sum over the k >= k_lo with keep(k) (all k if keep is None)
    of x^{exponent(k)} prod_{j=j0..k} 1/(1 - x^j) (``repeated``) or (1 + x^j),
    for an increasing ``exponent``; the sum must count partitions.

    One running product serves every term.  It is packed with its top slot at
    degree N - exponent(k), so that it lines up with the total for the term
    x^{exponent(k)}: moving to the next k drops its high degrees with one
    right shift, multiplies in the factor of k, and adds it in if kept.

    The slots are narrow (_slot_bytes) when j0 >= 1 and every term, kept or
    not, maps its partitions of degree n one-to-one into the strict
    partitions of n, apart from the other terms, so that no slot exceeds
    q(N).  For 1/(1 - x^j) that needs exponent(k) >= k(k+1)/2: conjugate a
    partition of n - exponent(k) into parts <= k, add k, k-1, ..., 1 to its k
    (possibly zero) parts and the rest of exponent(k) to the largest, and it
    is strict with exactly k parts.  For 1 + x^j it needs exponent(k) > k: the
    part exponent(k) over a strict tail of parts <= k is strict and gives k
    back.
    """
    w, run = _packed_one(N, lambda: j0 >= 1 and all(
        e >= k * (k + 1) // 2 if repeated else e > k for k, e in _exponents(N, k_lo, exponent)))
    bits = 8 * w
    total, shift, new = 0, 0, j0
    for k, e in _exponents(N, k_lo, exponent):
        run >>= bits * (e - shift)
        shift = e
        for j in range(new, k + 1):  # times the factor of j, through degree N - e
            s = j
            while s <= N - e:
                run += run >> bits * s
                if not repeated:
                    break
                s += s
        new = max(new, k + 1)
        if keep is None or keep(k):
            total += run
    return _unpack(total, N, w)


def count_partitions_table(N):
    """[p(0..N)]: unrestricted partition counts."""
    return _packed_product(N, range(1, N + 1), True)


def count_with_parts(N, parts):
    """Counts of partitions of 0..N with parts drawn (with repetition) from
    ``parts``, which must be distinct positive sizes."""
    return _packed_product(N, _checked_parts(parts), True)


def count_distinct_with_parts(N, parts):
    """Counts of partitions of 0..N into distinct parts drawn from ``parts``,
    which must be distinct positive sizes."""
    return _packed_product(N, _checked_parts(parts), False)


def count_strict_table(N):
    """[q(0..N)]: distinct-part partition counts, by the part-by-part DP (the
    oracle of strict_pentagonal_table)."""
    return count_distinct_with_parts(N, range(1, N + 1))


def count_odd_ge_table(N, bound):
    """Counts of partitions of 0..N into odd parts >= bound (any integer)."""
    return count_with_parts(N, range(max(bound, 1) | 1, N + 1, 2))


def count_no_ones_table(N):
    """Counts of partitions of 0..N with no part equal to 1."""
    return count_with_parts(N, range(2, N + 1))


def count_no_ones_repeated_top_table(N):
    """Counts of partitions with no part 1 and the largest part occurring at
    least twice (the empty partition counts for n = 0): the coefficients of
    1 + sum_{j>=2} x^{2j} / prod_{i=2}^{j} (1 - x^i), one nested sum."""
    out = _packed_nested_sum(N, 2, 2, lambda j: 2 * j)
    out[0] += 1
    return out


# No request reaches this memo: count_butterfly reads the packed table.  It
# stays as count_head_tail's recursion, the tests' per-n oracle of
# count_head_tail_table, and because the benchmark's tracer binds it by name
# (perfbench/tracing.py reads its cache size).  Bounded, so that a process
# does not keep every count it ever made, but above the 416,385 entries that
# counting n = 1500 down to 6 fills (from an empty cache, n above about 1500
# hits the recursion limit first).  A bound below one call's working set
# evicts entries the recursion still needs, and recomputing them grows
# exponentially: at 1 << 15, counting n = 600 down to 6 makes 3.8 million
# misses instead of 62,060.
@lru_cache(maxsize=1 << 19)
def _strict_bounded_count(m, top, low):
    """Number of strict partitions of m with parts in [low, top]."""
    if m == 0:
        return 1
    if top < low or m < low:
        return 0
    reachable = (top + low) * (top - low + 1) // 2
    if m > reachable:
        return 0
    # largest part is 'top' or everything fits below it
    return _strict_bounded_count(m - top, top - 1, low) + _strict_bounded_count(m, top - 1, low)


def count_head_tail(n, shape, second_parity=None):
    """len(list(iter_head_tail_tuples(n, shape, second_parity))), without
    listing: the strict tails of each head are counted, not built, one n
    through the memo (the oracle of count_head_tail_table)."""
    return sum(_strict_bounded_count(rest, top, shape[3])
               for _, rest, top in _shape_heads(n, shape, second_parity))


def count_head_tail_table(N, shape, second_parity=None):
    """[count_head_tail(n, shape, second_parity) for n in 0..N] with no memo
    and no recursion: sum over a of x^{|head(a)|} prod_{j=low}^{a-gap}
    (1 + x^j), over k = a - gap."""
    offsets, smallest, gap, low = shape
    # |head(a)| = width a + sum(offsets), with a = k + gap
    width, lift = len(offsets), len(offsets) * gap + sum(offsets)
    keep = None if second_parity is None else lambda k: (k + gap + offsets[1]) % 2 == second_parity
    return _packed_nested_sum(N, low, smallest - gap, lambda k: width * k + lift,
                              repeated=False, keep=keep)


def count_butterfly(n, second_parity=None):
    """Number of butterfly partitions of n (optionally filtered by the parity
    of the second-largest part), without listing them: one value of the
    butterfly shape's count_head_tail_table, kept in the store under
    ("butterfly", second_parity) and rebuilt whole only past its end.  The
    value is read in place, so n by n over a stored table costs O(1) each."""
    if n < 0:
        return 0
    return _stored(("butterfly", second_parity), n, lambda head: count_head_tail_table(
        n, BUTTERFLY_SHAPE, second_parity))[n]
