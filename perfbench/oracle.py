"""Values the benchmark computes on its own, without the package under test.

The partition numbers come from Euler's pentagonal theorem: p by the
pentagonal recurrence P(x) E(x) = 1, and q from Q(x) = P(x) E(x^2), where
E(x) = prod (1 - x^k) = sum_k (-1)^k x^{k(3k-1)/2}.  The package builds q by
a dynamic program over parts and rebuilds it from a triangular checksum, so
neither of its routes is the one used here.  r, s, t and dp follow from q
and p by differences.  Butterfly partitions and their odd-part split are
built from their definitions.
"""

from math import isqrt


def _pentagonal_offsets(N, scale=1):
    """[(offset, sign)] of E(x^scale) - 1 up to degree N, offsets ascending."""
    out = []
    k = 1
    while scale * k * (3 * k - 1) // 2 <= N:
        sign = -1 if k % 2 else 1
        out.append((scale * k * (3 * k - 1) // 2, sign))
        out.append((scale * k * (3 * k + 1) // 2, sign))
        k += 1
    return [(off, sign) for off, sign in out if off <= N]


class Tables:
    """p, q, r, s, t and dp on 0..N, grown on demand."""

    def __init__(self):
        self.N = -1
        self.values = {}

    def table(self, name, N):
        if N > self.N:
            self._build(max(N, 2 * self.N))
        return self.values[name][:N + 1]

    def _build(self, N):
        p = [1] + [0] * N
        pent = _pentagonal_offsets(N)
        for n in range(1, N + 1):
            p[n] = -sum(sign * p[n - off] for off, sign in pent if off <= n)
        pent2 = _pentagonal_offsets(N, 2)
        q = [p[n] + sum(sign * p[n - off] for off, sign in pent2 if off <= n)
             for n in range(N + 1)]

        def diff(a):
            return [a[n] - (a[n - 1] if n else 0) for n in range(N + 1)]

        r = diff(q)
        s = diff(r)
        t = [s[n] + (s[n - 1] if n >= 1 else 0) + (s[n - 2] if n >= 2 else 0)
             for n in range(N + 1)]
        self.values = {"p": p, "q": q, "r": r, "s": s, "t": t, "dp": diff(p)}
        self.N = N


# difference polynomial D with name(x) E(x^2) = theta_triangular(x) D(x)
CHECKSUM_POLY = {"q": (1,), "r": (1, -1), "s": (1, -2, 1), "t": (1, -1, 0, -1, 1)}


def is_triangular(m):
    return m >= 0 and isqrt(8 * m + 1) ** 2 == 8 * m + 1


def checksum(tables, name, m):
    """(alternating pentagonal sum over the table, its triangular prediction)."""
    values = tables.table(name, m)
    got = values[m] + sum(sign * values[m - off]
                          for off, sign in _pentagonal_offsets(m, 2))
    want = sum(w * is_triangular(m - d) for d, w in enumerate(CHECKSUM_POLY[name]))
    return got, want


def _strict_subsets(lo, hi):
    """All strict tuples (descending) with parts in [lo, hi]."""
    out = [()]
    for part in range(lo, hi + 1):
        out += [(part,) + rest for rest in out]
    return out


def butterfly_partitions(nmax):
    """Every butterfly partition of n <= nmax: head (a+2, a+1, a), strict tail
    of parts in [2, a-1].  Sorted by n, then lexicographically decreasing."""
    out = []
    a = 2
    while 3 * a + 3 <= nmax:
        for tail in _strict_subsets(2, a - 1):
            p = (a + 2, a + 1, a) + tail
            if sum(p) <= nmax:
                out.append(p)
        a += 1
    return sorted(out, key=lambda p: (sum(p), tuple(-x for x in p)))


def _split_tail(tail):
    # powers of two fold into 2t; an even non-power val * 2^e becomes 2^e copies of val
    two_t, odd = 0, []
    for x in tail:
        if x & (x - 1) == 0 and x % 2 == 0:
            two_t += x
        else:
            e = (x & -x).bit_length() - 1
            odd += [x >> e] * (1 << e)
    return two_t, odd


def split_parts(p, variant):
    """The odd-part image of a butterfly partition under the standard or
    switched split, as a descending tuple."""
    second = p[1]
    two_t, odd = _split_tail(p[3:])
    even = second % 2 == 0
    m = second // 2 if even else (second + 1) // 2
    if variant == "standard" and not even and p == (4, 3, 2):
        return (3, 3, 3)
    equal_pair = even == (variant == "standard") or (even and m == 2)
    if equal_pair:
        head = (2 * m - 1 + two_t, 2 * m - 1, 2 * m - 1)
    else:
        head = (2 * m + 1 + two_t, 2 * m - 1, 2 * m - 3)
    sentinel = [3] if even else []
    return tuple(sorted(list(head) + odd + sentinel, reverse=True))
