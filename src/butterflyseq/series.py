"""Exact truncated formal power series over the integers, and the
coefficient-level verification of the generating-function identities.

All arithmetic is exact (Python integers); truncation only discards degrees
above the order.  Infinite products touch just the factors that can affect
degrees up to the order.

A multiply packs the denser factor into one signed integer, coefficient n
in a slot of w bytes at bit 8wn, degree 0 lowest, and adds one shifted copy
per nonzero term of the sparser factor, so a product with a theta series or
E(x^2) (O(sqrt(N)) terms) costs O(sqrt(N)) big-integer additions.  w comes
from the factors alone: no product coefficient exceeds min(nonzero terms)
max|a| max|b| in magnitude, and a slot holds that bound and a sign bit.
The identity checker multiplies by a small polynomial (a difference
polynomial, 1 + x + x^2) with the tables' whole-list pass
(sequences._weighted), and writes theta_triangular times one at its own
terms (partitions.triangular_series); the packed multiply is left for the
products with a theta series, E(x^2) or a product expansion.
"""

from itertools import repeat
from typing import NamedTuple

from . import partitions as pt
from . import sequences as seq
from .families import pow2_free_parts


class TruncSeries(pt.Record):
    """A series truncated at degree ``order``: ``coeffs`` holds the
    coefficients of degrees 0..order.  Immutable, compared and hashed by
    (order, coeffs)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        c = tuple(coeffs)
        if len(c) != order + 1:
            raise ValueError("need %d coefficients, got %d" % (order + 1, len(c)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, order):
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order):
        return cls(order, (1,) + (0,) * order)

    @classmethod
    def from_coeffs(cls, order, coeffs):
        c = list(coeffs)[:order + 1]
        c += [0] * (order + 1 - len(c))
        return cls(order, c)

    def __getitem__(self, n):
        if not 0 <= n <= self.order:
            raise IndexError("degree %d outside order %d" % (n, self.order))
        return self.coeffs[n]

    def _common_order(self, other):
        return min(self.order, other.order)

    def __add__(self, other):
        N = self._common_order(other)
        return TruncSeries(N, [self.coeffs[i] + other.coeffs[i] for i in range(N + 1)])

    def __sub__(self, other):
        N = self._common_order(other)
        return TruncSeries(N, [self.coeffs[i] - other.coeffs[i] for i in range(N + 1)])

    def __mul__(self, other):
        """Product truncated at the common order N: the factor with more
        nonzero terms through degree N is packed once, and one signed copy
        of it is shifted to each nonzero term of the other (_mul_shifted),
        so a product with a theta series or E(x^2) costs O(sqrt(N))
        big-integer additions and one with a difference polynomial a few."""
        if isinstance(other, int):
            return self.scale(other)
        N = self._common_order(other)
        sparse, dense = self.coeffs[:N + 1], other.coeffs[:N + 1]
        if sparse.count(0) < dense.count(0):
            sparse, dense = dense, sparse
        return TruncSeries(N, _mul_shifted(sparse, dense))

    __rmul__ = __mul__

    def scale(self, k):
        return TruncSeries(self.order, [k * a for a in self.coeffs])

    def shift(self, k):
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncSeries(self.order, ((0,) * k + self.coeffs)[:self.order + 1])

    def mismatches(self, other, lo=0, hi=None):
        """[(n, left coeff, right coeff)] where the two sides differ."""
        N = self._common_order(other)
        hi = N if hi is None else min(hi, N)
        return [(n, self.coeffs[n], other.coeffs[n])
                for n in range(lo, hi + 1) if self.coeffs[n] != other.coeffs[n]]

    def to_json(self):
        """The coefficient list as a JSON array string."""
        import json
        return json.dumps(list(self.coeffs))


# ---------------------------------------------------------------------------
# The series multiply.  A packed series holds coefficient n in a slot of w
# bytes at bit 8wn, degree 0 in the lowest slot, as the signed sum
# sum_n c[n] 2^{8wn}; times x^i is a left shift by 8wi.  Reading back adds
# 2^{8w-1} to every slot, keeps the N + 1 lowest slots and takes the offset
# off again: every coefficient of degree <= N is then exact if it lies in
# [-2^{8w-1}, 2^{8w-1}), whatever the degrees above N hold, since those are
# multiples of 2^{8w(N+1)}.  (A right shift, as in the packed counting DPs,
# would floor the signed slots below the cut and borrow across them.)
# ---------------------------------------------------------------------------

def _offset(n, w):
    """2^{8w-1} in each of n slots of w bytes."""
    return int.from_bytes((1 << 8 * w - 1).to_bytes(w, "little") * n, "little")


def _pack(coeffs, w):
    """The signed packed integer of coeffs, w bytes a slot."""
    half = 1 << 8 * w - 1
    raw = b"".join(map(int.to_bytes, [c + half for c in coeffs], repeat(w), repeat("little")))
    return int.from_bytes(raw, "little") - _offset(len(coeffs), w)


def _unpack(P, N, w):
    """Coefficients 0..N of the packed series P (or of any integer equal to
    P modulo 2^{8w(N+1)})."""
    n = N + 1
    half = 1 << 8 * w - 1
    b = ((P + _offset(n, w)) & (1 << 8 * w * n) - 1).to_bytes(w * n, "little")
    frm = int.from_bytes
    return [frm(b[i:i + w], "little") - half for i in range(0, w * n, w)]


def _mul_shifted(sparse, dense):
    """The product through degree N of the coefficient lists sparse and
    dense, both of length N + 1: dense packed once, plus a * D << 8wi for
    each nonzero term a x^i of sparse.  Each product coefficient is a sum of at most k
    products, k the nonzero terms of sparse, so its magnitude is at most
    k max|sparse| max|dense|; a slot holds that bound and a sign bit, in
    whole bytes, and so each coefficient of dense when k >= 1."""
    terms = [(i, a) for i, a in enumerate(sparse) if a]
    if not terms:
        return [0] * len(dense)
    bound = len(terms) * max(map(abs, sparse)) * max(map(abs, dense))
    w = (bound.bit_length() + 8) // 8
    D = _pack(dense, w)
    bits = 8 * w
    acc = 0
    for i, a in terms:
        acc += a * D << bits * i
    return _unpack(acc, len(dense) - 1, w)


def div_exact(a: TruncSeries, divisor) -> TruncSeries:
    """Divide by a low-degree integer polynomial, exactly through the order.

    Ascending division: coefficient i of the quotient is determined by
    coefficients 0..i of the input, so with a unit constant term the quotient
    is exact through the full order and multiplying back reproduces the input
    coefficient for coefficient.  A non-unit constant term would force
    non-integer quotient coefficients and raises instead.  The division is
    partitions.sparse_solve over the divisor's nonzero terms, each once with
    its coefficient; a constant term of -1 negates both sides.
    """
    d = list(divisor)
    while d and d[-1] == 0:
        d.pop()
    if not d or d[0] == 0:
        raise ValueError("divisor must have a nonzero constant term")
    if d[0] not in (1, -1):
        raise ValueError("constant term must be a unit for exact integer division")
    N = a.order
    rhs = a.coeffs
    if d[0] < 0:
        d, rhs = [-c for c in d], [-c for c in rhs]
    terms = [(j, c) for j, c in enumerate(d[1:N + 1], 1) if c]
    return TruncSeries(N, pt.sparse_solve(rhs, terms))


# ---------------------------------------------------------------------------
# Product expansions and theta-style series
# ---------------------------------------------------------------------------

def expand_product(kind, N, param=None) -> TruncSeries:
    """Exact expansion of a named infinite product through degree N.

    kinds: "distinct" for prod (1+x^n); "partitions" for prod 1/(1-x^n);
    "odd_reciprocal" for prod over odd n >= param of 1/(1-x^n);
    "even_reciprocal" for prod 1/(1-x^{2n}); "double" for
    prod (1+x^n)(1-x^{2n}); "distinct_not_pow2" for the power-of-two-free
    strict product.  Each is the packed counting DP of its partitions
    (partitions._packed_product: one shift-add per factor 1 + x^m, one per
    doubling of m for 1/(1 - x^m), except that the factors above degree N/2
    of each octave of a range of parts are one prefix sum of about log2 N
    shift-adds: about N shift-adds for "partitions", N/2 for the odd and
    even parts; the pow2-free parts, a list, take one per part), except
    that the strict counts are the q table of sequences.named_sequence,
    from the pentagonal kernel.  "double" is those counts times each factor
    1 - x^m, m even, one shift-subtract apiece on the signed packed form
    (never E(x^2) from the pentagonal theorem, which is theta_pentagonal):
    its coefficient of x^n is, up to sign, at most the number of pairs of a
    strict partition and one into distinct even parts of total n, the
    coefficient of prod (1 + x^j)(1 + x^{2j}) = prod (1 + x^j + x^{2j} +
    x^{3j}), so at most p(n), and the packed counting DPs' slots hold p(N)
    with two bits to spare.  A pure function: every call builds its
    expansion anew and keeps nothing but the q table it reads.  verify
    keeps each expansion but "distinct" in the process's store and builds
    "double" from the strict counts of its "distinct" (_Sides).
    """
    if kind in ("distinct", "double"):
        q = seq.named_sequence("q", N).values
        c = q if kind == "distinct" else _double_product(q)
    elif kind == "partitions":
        c = pt.count_partitions_table(N)
    elif kind == "odd_reciprocal":
        if param not in (1, 3, 5):
            raise ValueError("odd_reciprocal wants the smallest part (1, 3 or 5)")
        c = pt.count_odd_ge_table(N, param)
    elif kind == "even_reciprocal":
        c = pt.count_with_parts(N, range(2, N + 1, 2))
    elif kind == "distinct_not_pow2":
        c = pt.count_distinct_with_parts(N, pow2_free_parts(N))
    else:
        raise ValueError("unknown product kind %r" % kind)
    return TruncSeries(N, c)


def _double_product(q):
    """Coefficients 0..N of prod (1 + x^n)(1 - x^{2n}), from the strict
    counts q[0..N]: C -= C x^m for each even m on the signed packed form,
    right modulo 2^K, which is all _unpack reads; only the low K - 8wm bits
    of C are shifted, so C stays within a few bits of K."""
    N = len(q) - 1
    w = pt._slot_bytes(N)
    bits = 8 * w
    K = bits * (N + 1)
    C = _pack(q, w)
    for m in range(2, N + 1, 2):
        C -= (C & (1 << K - bits * m) - 1) << bits * m
    return _unpack(C, N, w)


def theta_pentagonal(N) -> TruncSeries:
    """1 + sum over k >= 1 of (-1)^k (x^{3k^2-k} + x^{3k^2+k})."""
    return TruncSeries(N, pt.euler_product(N, 2))


def theta_triangular(N) -> TruncSeries:
    """sum over k >= 0 of x^{k(k+1)/2}."""
    return TruncSeries(N, pt.triangular_series(N, (1,)))


def poly(N, *coeffs) -> TruncSeries:
    return TruncSeries.from_coeffs(N, coeffs)


# ---------------------------------------------------------------------------
# Filtered series (filtration by the number of parts)
# ---------------------------------------------------------------------------

# kind -> (smallest k, c, first denominator factor j0): the k-parts term is
# x^{k(k+c)/2} / prod_{j=j0..k} (1 - x^j)
_FILTRATION = {"strict": (1, 1, 1), "consec": (2, 1, 2), "butterfly": (3, 3, 3),
               "tail": (2, 3, 3), "alt_tail": (2, 1, 3)}


def _exponent(kind, k):
    return k * (k + _FILTRATION[kind][1]) // 2


def _term_shape(kind, k):
    """(e, parts): the k-parts term is x^e / prod over j in parts of (1 - x^j).
    Refuses k below the kind's smallest k."""
    k_min, _, denom_lo = _FILTRATION[kind]
    if k < k_min:
        raise ValueError("k too small for %s" % kind)
    return _exponent(kind, k), range(denom_lo, k + 1)


def filtration_term(kind, k, N) -> TruncSeries:
    """The k-parts term of a filtered series.

    "strict": x^{k(k+1)/2} / prod_{j=1..k} (1-x^j), generating strict
    partitions with exactly k parts.  "consec": denominator from j=2,
    generating consecutive-top-pair partitions with exactly k parts (k >= 2).
    "butterfly": exponent k(k+3)/2, denominator from j=3 (k >= 3), generating
    butterfly partitions with exactly k parts.  "tail": the same term shape
    as "butterfly" but admitting k = 2 with an empty denominator.  "alt_tail":
    exponent k(k+1)/2 with denominator from j=3 (k >= 2), the term shape of
    the alternating butterfly filtration.
    """
    if kind not in _FILTRATION:
        raise ValueError("unknown filtration kind %r" % kind)
    exp, parts = _term_shape(kind, k)
    if exp > N:
        return TruncSeries.zero(N)
    return TruncSeries(N, [0] * exp + pt.count_with_parts(N - exp, parts))


def _sum_filtration(kind, N, k_lo):
    """sum over k >= k_lo of the k-parts terms.

    The denominators are nested, so one running 1/prod_{j=j0..k} (1 - x^j)
    serves every term (partitions._packed_nested_sum): each k multiplies in
    just 1 - x^k after the first term, in one packed shift-add per doubling
    of k, and adds the running table into the total: about sqrt(2N) terms,
    so O(sqrt(N) log N) shift-adds of the whole table.
    """
    _term_shape(kind, k_lo)  # refuses k_lo below the kind's smallest k
    return TruncSeries(N, pt._packed_nested_sum(N, _FILTRATION[kind][2], k_lo,
                                                lambda k: _exponent(kind, k)))


def filtered_series(kind, N, k_lo=None) -> TruncSeries:
    """Named filtered series.

    "strict": 1 + sum_{k>=1} strict terms (the strict-partition filtration).
    "consec": 1 + sum_{k>=2} consec terms.
    "butterfly_parts": sum_{k>=3} butterfly terms (valid from degree 9).
    "odd_ge5_full": 1 + x^5 + x^7 + (1+x+x^2) * sum_{k>=3} butterfly terms.
    "butterfly_full": 1 - x + x^3 - x^4 + x^5 + sum_{k>=3} butterfly terms.
    "butterfly_alt": 1 - x + (1/(1+x)) * sum_{k>=2} tail terms.

    ``k_lo`` overrides the lower index of the sum, which lets the identity
    checker compare the two printed readings of the last three kinds.
    """
    return _filtered(kind, N, k_lo, lambda fkind, k: _sum_filtration(fkind, N, k))


# filtered series -> (filtration kind of its sum, the sum's default lower index)
_FILTERED = {"strict": ("strict", 1), "consec": ("consec", 2),
             "butterfly_parts": ("butterfly", 3), "odd_ge5_full": ("tail", 3),
             "butterfly_full": ("tail", 3), "butterfly_alt": ("alt_tail", 2)}


def _filtered(kind, N, k_lo, sum_terms):
    """filtered_series(kind, N, k_lo), with the sum over k >= k_lo of the
    terms of its filtration kind read from sum_terms(filtration kind, k_lo);
    k_lo None is the default lower index."""
    if kind not in _FILTERED:
        raise ValueError("unknown filtered series %r" % kind)
    fkind, k_default = _FILTERED[kind]
    tail = sum_terms(fkind, k_default if k_lo is None else k_lo)
    if kind in ("strict", "consec"):
        return TruncSeries.one(N) + tail
    if kind == "odd_ge5_full":
        return poly(N, 1, 0, 0, 0, 0, 1, 0, 1) + _weighted((1, 1, 1), tail)
    if kind == "butterfly_full":
        return poly(N, 1, -1, 0, 1, -1, 1) + tail
    if kind == "butterfly_alt":
        return poly(N, 1, -1) + div_exact(tail, (1, 1))
    return tail


def _weighted(weights, side):
    """side times the small polynomial with coefficients weights (a
    difference polynomial of DIFF_WEIGHTS, or 1 + x + x^2), by the tables'
    whole-list pass (sequences._weighted), not the packed multiply."""
    return TruncSeries(side.order, seq._weighted(weights, side.coeffs))



def _triangular(N, name):
    """theta_triangular times the difference polynomial of the table name,
    written at the triangular numbers (partitions.triangular_series)."""
    return TruncSeries(N, pt.triangular_series(N, seq.DIFF_WEIGHTS[name]))


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

class _Sides:
    """The series one verify call builds at order N, each once: the product
    expansions, filtered series and sequence tables its identities name.
    "distinct" is the table q, and q, r, s and t are read from
    sequences.named_sequence (the stored q table times each difference
    polynomial); the strict counts of "distinct" also give "double", and
    "butterfly" and "tail" share their terms, so one filtration sum serves
    both.  The products and the filtration sums come from the process's
    store (partitions.solved_prefix): each is built once, at the longest
    order asked for so far, by expand_product, _double_product or
    _sum_filtration, and a call at or below that order reads a prefix of
    it.  The filtered series, tables and everything else live as long as
    the call."""

    def __init__(self, N):
        self.N = N
        self._built = {}

    def _get(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def _stored(self, key, build):
        """The side under ``key`` of the store, build() giving its
        coefficients 0..N when the store holds fewer."""
        return self._get(key, lambda: TruncSeries(
            self.N, pt.solved_prefix(key, self.N, lambda head: build())))

    def product(self, kind, param=None):
        if kind == "distinct":
            return self.table("q")
        if kind == "double":
            return self._stored(("product", kind, param),
                                lambda: _double_product(self.product("distinct").coeffs))
        return self._stored(("product", kind, param),
                            lambda: expand_product(kind, self.N, param).coeffs)

    def filtered(self, kind, k_lo=None):
        return self._get(("filtered", kind, k_lo),
                         lambda: _filtered(kind, self.N, k_lo, self._sum_terms))

    def _sum_terms(self, kind, k_lo):
        _term_shape(kind, k_lo)  # refuses k_lo below the kind's smallest k
        _, c, j0 = _FILTRATION[kind]
        return self._stored(("sum", c, j0, k_lo),
                            lambda: _sum_filtration(kind, self.N, k_lo).coeffs)

    def table(self, name):
        """q, r, s or t through N, as sequences.named_sequence gives it."""
        return self._get(("table", name), lambda: TruncSeries(
            self.N, seq.named_sequence(name, self.N).values))


# each table with a checksum series, and the family its identities are named
# after; all but t have a pentagonal and a triangular split too
_TABLES = (("q", "strict"), ("r", "consec"), ("s", "butterfly"), ("t", "oddge5"))

# printed-reading variants: the published lower indices of three filtered
# sums do not match their own coefficient tables; these variants exist so
# the checker can demonstrate which reading holds (see DEVIATIONS.md).
# (base identity, its filtered series, printed lower index, first failing degree)
_PRINTED = (("oddge5-filtration", "odd_ge5_full", 2, 5),
            ("butterfly-filtration", "butterfly_full", 2, 5),
            ("butterfly-alt-filtration", "butterfly_alt", 3, 3))


def _identity_registry():
    # each side is a function of the call's _Sides.  A side or E(x^2) times
    # a small polynomial is _weighted, and theta_triangular times one is
    # _triangular; the packed multiply is left for a side times a theta
    # series, by itself or times a difference polynomial
    ids = {}

    def ident(name, lhs, rhs, lo=0, note=""):
        ids[name] = (lhs, rhs, lo, note)

    ident("strict-filtration",
          lambda b: b.product("distinct"),
          lambda b: b.filtered("strict"))
    ident("oddparts-filtration",
          lambda b: b.product("odd_reciprocal", 1),
          lambda b: b.filtered("strict"))
    ident("consec-filtration",
          lambda b: b.table("r"),
          lambda b: b.filtered("consec"))
    ident("oddge3-filtration",
          lambda b: b.product("odd_reciprocal", 3),
          lambda b: b.filtered("consec"))
    ident("butterfly-product-filtration",
          lambda b: b.table("s"),
          lambda b: _weighted(seq.DIFF_WEIGHTS["s"], b.filtered("strict")))
    ident("butterfly-alt-filtration",
          lambda b: _weighted(seq.DIFF_WEIGHTS["r"], b.product("odd_reciprocal", 3)),
          lambda b: b.filtered("butterfly_alt"))
    ident("oddge5-butterfly-tail",
          lambda b: b.product("odd_reciprocal", 5),
          lambda b: _weighted((1, 1, 1), b.filtered("butterfly_parts")),
          lo=9, note="holds only from degree 9")
    ident("oddge5-filtration",
          lambda b: b.product("odd_reciprocal", 5),
          lambda b: b.filtered("odd_ge5_full"))
    ident("butterfly-filtration",
          lambda b: div_exact(b.product("odd_reciprocal", 5), (1, 1, 1)),
          lambda b: b.filtered("butterfly_full"))
    for name, family in _TABLES[:3]:
        ident("%s-pentagonal-split" % family,
              lambda b, name=name: b.table(name),
              lambda b, name=name: b.product("partitions")
              * _weighted(seq.DIFF_WEIGHTS[name], theta_pentagonal(b.N)))
    ident("triangular-double-product",
          lambda b: b.product("double"),
          lambda b: theta_triangular(b.N))
    for name, family in _TABLES[:3]:
        ident("%s-triangular-split" % family,
              lambda b, name=name: b.table(name),
              lambda b, name=name: b.product("even_reciprocal") * _triangular(b.N, name))
    for name, family in _TABLES:
        ident("%s-checksum-series" % family,
              lambda b, name=name: b.table(name) * theta_pentagonal(b.N),
              lambda b, name=name: _triangular(b.N, name))
    ident("consec-powfree-product",
          lambda b: b.table("r"),
          lambda b: b.product("distinct_not_pow2"))
    for base, kind, k_lo, degree in _PRINTED:
        ident(base + "-printed", ids[base][0],
              lambda b, kind=kind, k_lo=k_lo: b.filtered(kind, k_lo),
              note="printed lower index k=%d; fails at degree %d" % (k_lo, degree))
    return ids


IDENTITIES = _identity_registry()

# the identities expected to verify cleanly (the -printed variants are
# documentation of misprinted lower indices and are expected to fail)
VERIFIED_IDENTITIES = tuple(name for name in IDENTITIES if not name.endswith("-printed"))


class IdentityReport(NamedTuple):
    name: str
    order: int
    lo: int
    mismatches: tuple  # (n, lhs, rhs)
    note: str = ""

    @property
    def checked(self):
        """How many degrees were compared: lo..order."""
        return max(0, self.order - self.lo + 1)

    @property
    def ok(self):
        """Every compared degree agrees, and at least one was compared."""
        return self.checked > 0 and not self.mismatches

    def __str__(self):
        if not self.checked:
            return "%s: no degree checked (holds from degree %d, order %d)" % (
                self.name, self.lo, self.order)
        if self.ok:
            return "%s: OK 0 mismatches" % self.name
        lines = ["%s: %d mismatches" % (self.name, len(self.mismatches))]
        lines += ["%d %d %d" % m for m in self.mismatches]
        return "\n".join(lines)


def _report(name, built):
    if name not in IDENTITIES:
        raise ValueError("unknown identity %r (see IDENTITIES)" % name)
    lhs_f, rhs_f, lo, note = IDENTITIES[name]
    lhs = lhs_f(built)
    rhs = rhs_f(built)
    return IdentityReport(name, built.N, lo, tuple(lhs.mismatches(rhs, lo)), note)


def verify_identity(name, N) -> IdentityReport:
    """Build both sides independently and compare coefficients over the
    identity's validity range."""
    return _report(name, _Sides(N))


def verify_all(N):
    """The reports of every verified identity at order N.  Each product
    expansion, filtered series and table is built once for the whole call
    and shared by the identities that name it; the products and filtration
    sums are read from the process's store, and built only when no call
    has yet asked for order N or above (_Sides)."""
    built = _Sides(N)
    return [_report(name, built) for name in VERIFIED_IDENTITIES]
