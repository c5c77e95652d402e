"""The three explicit bijections and a range verifier.

* raise_largest: strict partitions of n-1 <-> strict partitions of n whose
  two largest parts differ by at least 2 (add one unit to the largest part).
* butterfly_forward: consecutive-pair partitions of n-1 with smallest part 1
  <-> consecutive-pair partitions of n with no 1 and the pair isolated
  (drop the 1, add one unit to each of the two largest parts).
* bar_forward: horizontal-bar partitions <-> vertical-bar partitions at the
  same n (remove the part h, add one unit to each of the h largest parts);
  the parity of the second-largest part flips.

BIJECTIONS holds one row per map: its least n, the shift at which its
sources are listed, its (source family, target) pairs as a function of the
bar size h (bar has two, A_e -> B_o and A_o -> B_e), and its forward and
backward maps.  verify_bijection is one loop over a row, and the CLI reads
its kinds, in order, from the table.
"""

import operator
from typing import NamedTuple

from . import partitions as pt
from .families import (
    BAR_AE,
    BAR_AO,
    BAR_BE,
    BAR_BO,
    CONSEC,
    CONSEC_ISOLATED,
    CONSEC_WITH_ONE,
    STRICT,
    Family,
    _in_bar_a,
    _in_bar_b,
    count_table,
    enumerate_family,
    in_family,
)
from .partitions import Partition, is_strict_tuple


class BijectionError(ValueError):
    """A map was given a partition outside its domain."""


# the maps and checks below read p.parts, a plain tuple, once per partition
_WITH_ONE = Family(CONSEC_WITH_ONE)
_ISOLATED = Family(CONSEC_ISOLATED)


def raise_largest(p: Partition) -> Partition:
    parts = p.parts
    if not parts:
        raise BijectionError("empty partition has no largest part")
    if not is_strict_tuple(parts):
        raise BijectionError("input must be strict: %s" % p)
    return Partition._of((parts[0] + 1,) + parts[1:])


def _gap_two(parts):
    """Strict, with the two largest parts at least 2 apart: the partitions
    that raise_largest reaches and lower_largest takes."""
    return is_strict_tuple(parts) and (len(parts) < 2 or parts[0] - parts[1] >= 2)


def lower_largest(p: Partition) -> Partition:
    parts = p.parts
    if not parts or parts[0] == 1:
        raise BijectionError("no unit to remove from the largest part: %s" % p)
    if not _gap_two(parts):
        raise BijectionError("two largest parts must differ by at least 2: %s" % p)
    return Partition._of((parts[0] - 1,) + parts[1:])


def butterfly_forward(p: Partition) -> Partition:
    """Drop the smallest part 1, then add one unit to each of the two largest."""
    parts = p.parts
    if len(parts) < 3 or not in_family(p, _WITH_ONE):
        raise BijectionError(
            "input must have >= 3 parts, two largest consecutive, smallest 1: %s" % p)
    return Partition._of((parts[0] + 1, parts[1] + 1) + parts[2:-1])


def butterfly_backward(p: Partition) -> Partition:
    parts = p.parts
    if not in_family(p, _ISOLATED) or len(parts) < 2:
        raise BijectionError("input must be a consecutive-pair partition with the "
                             "pair isolated and no part 1: %s" % p)
    return Partition._of((parts[0] - 1, parts[1] - 1) + parts[2:] + (1,))


def bar_forward(p: Partition, h: int) -> Partition:
    """Remove the part equal to h, add one unit to each of the h largest parts."""
    if h < 3:
        raise BijectionError("h must be >= 3")
    if not _in_bar_a(p.parts, h):
        raise BijectionError("input is not a horizontal-bar-%d partition: %s" % (h, p))
    parts = list(p.parts)
    parts.remove(h)
    for i in range(h):
        parts[i] += 1
    return Partition._of(tuple(parts))


def bar_backward(p: Partition, h: int) -> Partition:
    if h < 3:
        raise BijectionError("h must be >= 3")
    if not _in_bar_b(p.parts, h):
        raise BijectionError("input is not a vertical-bar-%d partition: %s" % (h, p))
    parts = list(p.parts)
    for i in range(h):
        parts[i] -= 1
    parts.append(h)
    parts.sort(reverse=True)
    return Partition._of(tuple(parts))


class BijectionReport(NamedTuple):
    kind: str
    n_range: tuple
    checked: int
    passed: bool
    failures: tuple  # (n, description) pairs, first few

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        body = "%s bijection on n=%d..%d: %s (%d maps checked)" % (
            self.kind, self.n_range[0], self.n_range[1], status, self.checked)
        for n, msg in self.failures[:3]:
            body += "\n  n=%d: %s" % (n, msg)
        return body


class _Pair(NamedTuple):
    """A source family and the target its images must lie in.  The callables
    reach every function the benchmark traces (count_table, enumerate_family,
    in_family) through this module's namespace at call time, never hold it."""
    source: Family   # listed at n - shift
    counts: object   # N -> the sources' counts at 0..N
    test: object     # image -> whether it lies in the target
    targets: object  # N -> the targets' counts at 0..N, counted, not listed


def _pair(source, target):
    """Two families, each counted by count_table and the target tested by in_family."""
    return _Pair(source, lambda N: count_table(N, source),
                 lambda img: in_family(img, target), lambda N: count_table(N, target))


# kind -> (least n of a range, shift, h -> (_Pair, ...), forward, backward):
# the sources at n are listed at n - shift, and the maps take (partition, h).
# raise lists the strict partitions of n - 1, and the strict partition of 0
# has no largest part to raise; its targets are the strict partitions of n
# that are not consecutive-pair partitions.  The butterfly map holds from
# n = 6.  The bar map sends A_e to B_o and A_o to B_e, swapping the parity of
# the second part, so its sources come in two halves
BIJECTIONS = {
    "raise": (2, 1, lambda h: (_Pair(
        Family(STRICT), pt.strict_pentagonal_table, lambda img: _gap_two(img.parts),
        lambda N: list(map(operator.sub, pt.strict_pentagonal_table(N),
                           count_table(N, Family(CONSEC))))),),
              lambda p, h: raise_largest(p), lambda p, h: lower_largest(p)),
    "butterfly": (6, 1, lambda h: (_pair(_WITH_ONE, _ISOLATED),),
                  lambda p, h: butterfly_forward(p), lambda p, h: butterfly_backward(p)),
    "bar": (0, 0, lambda h: (_pair(Family(BAR_AE, h), Family(BAR_BO, h)),
                             _pair(Family(BAR_AO, h), Family(BAR_BE, h))),
            lambda p, h: bar_forward(p, h), lambda p, h: bar_backward(p, h)),
}


def verify_bijection(kind, lo, hi, h=3) -> BijectionReport:
    """Check forward/backward inversion, injectivity, family membership and
    count agreement for every n in [lo, hi], by the row BIJECTIONS[kind].  A
    range that starts below the row's least n is refused, and a range in
    which no map was checked does not pass.

    The targets are counted, not listed, by exact counts that share no code
    with the listing of the sources: q(n) - consec(n), r1'(n) and the B bar
    sets, each read from one table per call.  An injective map into the
    target family, whose size equals the number of sources, is a bijection;
    where the sources come in halves, each half must also match its target's
    count.  The sources are counted first, and a range that lists more than
    partitions.LISTING_BUDGET in all is refused."""
    if kind not in BIJECTIONS:
        raise ValueError("unknown bijection kind %r" % kind)
    least, shift, pairs_of, forward, backward = BIJECTIONS[kind]
    if lo < least:
        raise ValueError("bij %s --from must be >= %d, got %d" % (kind, least, lo))
    pairs, N = pairs_of(h), max(hi, 0)
    sources = [sum(c) for c in zip(*(pair.counts(N) for pair in pairs))]
    targets = [pair.targets(N) for pair in pairs]
    pt.check_budget(sum(sources[lo - shift:hi + 1 - shift]), "bij %s on n=%d..%d" % (kind, lo, hi))
    failures = []
    checked = 0
    for n in range(lo, hi + 1):
        listed = [enumerate_family(n - shift, pair.source) for pair in pairs]
        if len(pairs) > 1 and any(len(s) != t[n] for s, t in zip(listed, targets)):
            failures.append((n, "parity-swapped cardinalities differ"))
        images = []
        for pair, source in zip(pairs, listed):
            for p in source:
                try:
                    img = forward(p, h)
                except BijectionError as exc:
                    failures.append((n, "forward failed on %s: %s" % (p, exc)))
                    continue
                checked += 1
                if not (sum(img.parts) == n and pair.test(img)):
                    failures.append((n, "image %s of %s outside the target family" % (img, p)))
                if backward(img, h).parts != p.parts:
                    failures.append((n, "backward did not recover %s" % p))
                images.append(img.parts)
        if len(set(images)) != len(images):
            failures.append((n, "forward map is not injective"))
        count, want = sum(map(len, listed)), sum(t[n] for t in targets)
        if count != want:
            failures.append((n, "count mismatch: %d sources vs %d targets" % (count, want)))
    return BijectionReport(kind, (lo, hi), checked, checked > 0 and not failures,
                           tuple(failures))
