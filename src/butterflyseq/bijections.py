"""The three explicit bijections and a range verifier.

* raise_largest: strict partitions of n-1 <-> strict partitions of n whose
  two largest parts differ by at least 2 (add one unit to the largest part).
* butterfly_forward: consecutive-pair partitions of n-1 with smallest part 1
  <-> consecutive-pair partitions of n with no 1 and the pair isolated
  (drop the 1, add one unit to each of the two largest parts).
* bar_forward: horizontal-bar partitions <-> vertical-bar partitions at the
  same n (remove the part h, add one unit to each of the h largest parts);
  the parity of the second-largest part flips.

Each map is a core on part tuples, which checks its domain (BijectionError)
and passes its image through partitions.checked_parts; the public maps wrap
the cores in Partitions.  BIJECTIONS holds one row per map: its least n,
the shift at which its sources are listed, its (source family, target)
pairs as a function of the bar size h (bar has two, A_e -> B_o and
A_o -> B_e), and the names of its forward and backward cores.
verify_bijection is one loop over a row, on the part tuples of
families.family_tuples, with the backward core's domain check as each
image's target test; the CLI reads its kinds, in order, from the table.
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
    _in_consec_isolated,
    _in_consec_with_one,
    count_table,
    family_tuples,
)
from .partitions import Partition, checked_parts, is_strict_tuple


class BijectionError(ValueError):
    """A map was given a partition outside its domain."""


def _shown(parts):
    """The part tuple as str(Partition) prints it: 5+3+1."""
    return "+".join(map(str, parts))


# The cores take a part tuple and h, which only the bar maps read, and
# return the image's part tuple.

def _raise_largest(parts, h=None):
    if not parts:
        raise BijectionError("empty partition has no largest part")
    if not is_strict_tuple(parts):
        raise BijectionError("input must be strict: %s" % _shown(parts))
    return checked_parts((parts[0] + 1,) + parts[1:])


def _gap_two(parts):
    """Strict, with the two largest parts at least 2 apart: the partitions
    that raise_largest reaches and lower_largest takes."""
    return is_strict_tuple(parts) and (len(parts) < 2 or parts[0] - parts[1] >= 2)


def _lower_largest(parts, h=None):
    if not parts or parts[0] == 1:
        raise BijectionError("no unit to remove from the largest part: %s" % _shown(parts))
    if not _gap_two(parts):
        raise BijectionError("two largest parts must differ by at least 2: %s" % _shown(parts))
    return checked_parts((parts[0] - 1,) + parts[1:])


def _butterfly_forward(parts, h=None):
    if len(parts) < 3 or not _in_consec_with_one(parts):
        raise BijectionError("input must have >= 3 parts, two largest consecutive, "
                             "smallest 1: %s" % _shown(parts))
    return checked_parts((parts[0] + 1, parts[1] + 1) + parts[2:-1])


def _butterfly_backward(parts, h=None):
    if not _in_consec_isolated(parts):
        raise BijectionError("input must be a consecutive-pair partition with the "
                             "pair isolated and no part 1: %s" % _shown(parts))
    return checked_parts((parts[0] - 1, parts[1] - 1) + parts[2:] + (1,))


def _bar_domain(parts, h, test, bar):
    """Refuse h < 3, and a partition outside the bar set that ``test`` checks."""
    if h < 3:
        raise BijectionError("h must be >= 3")
    if not test(parts, h):
        raise BijectionError("input is not a %s-bar-%d partition: %s" % (bar, h, _shown(parts)))


def _bar_forward(parts, h):
    _bar_domain(parts, h, _in_bar_a, "horizontal")
    i = parts.index(h)  # h parts above it
    return checked_parts(tuple(x + 1 for x in parts[:h]) + parts[h:i] + parts[i + 1:])


def _bar_backward(parts, h):
    _bar_domain(parts, h, _in_bar_b, "vertical")
    return checked_parts(tuple(sorted([x - 1 for x in parts[:h]] + [*parts[h:], h],
                                      reverse=True)))


def raise_largest(p: Partition) -> Partition:
    return Partition._wrap(_raise_largest(p.parts))


def lower_largest(p: Partition) -> Partition:
    return Partition._wrap(_lower_largest(p.parts))


def butterfly_forward(p: Partition) -> Partition:
    """Drop the smallest part 1, then add one unit to each of the two largest."""
    return Partition._wrap(_butterfly_forward(p.parts))


def butterfly_backward(p: Partition) -> Partition:
    return Partition._wrap(_butterfly_backward(p.parts))


def bar_forward(p: Partition, h: int) -> Partition:
    """Remove the part equal to h, add one unit to each of the h largest parts."""
    return Partition._wrap(_bar_forward(p.parts, h))


def bar_backward(p: Partition, h: int) -> Partition:
    return Partition._wrap(_bar_backward(p.parts, h))


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
    """A source family and the target its images must lie in: the backward
    map's domain at n, and for bar the parity of the second part.  The
    callables reach count_table through this module's namespace at call
    time, never hold it."""
    source: Family   # listed at n - shift
    counts: object   # N -> the sources' counts at 0..N
    parity: object   # the parity of an image's second part, or None for any
    targets: object  # N -> the targets' counts at 0..N, counted, not listed


def _pair(source, target, parity=None):
    """Two families, each counted by count_table."""
    return _Pair(source, lambda N: count_table(N, source), parity,
                 lambda N: count_table(N, target))


# kind -> (least n of a range, shift, h -> (_Pair, ...), forward, backward):
# the sources at n are listed at n - shift, and the maps are the names of
# cores, looked up in this module when a range is checked.  raise lists the
# strict partitions of n - 1, and the strict partition of 0 has no largest
# part to raise; its targets are the strict partitions of n that are not
# consecutive-pair partitions.  The butterfly map holds from n = 6.  The bar
# map sends A_e to B_o and A_o to B_e, swapping the parity of the second
# part, so its sources come in two halves
BIJECTIONS = {
    "raise": (2, 1, lambda h: (_Pair(
        Family(STRICT), pt.strict_pentagonal_table, None,
        lambda N: list(map(operator.sub, pt.strict_pentagonal_table(N),
                           count_table(N, Family(CONSEC))))),),
              "_raise_largest", "_lower_largest"),
    "butterfly": (6, 1, lambda h: (_pair(Family(CONSEC_WITH_ONE), Family(CONSEC_ISOLATED)),),
                  "_butterfly_forward", "_butterfly_backward"),
    "bar": (0, 0, lambda h: (_pair(Family(BAR_AE, h), Family(BAR_BO, h), 1),
                             _pair(Family(BAR_AO, h), Family(BAR_BE, h), 0)),
            "_bar_forward", "_bar_backward"),
}


def verify_bijection(kind, lo, hi, h=3) -> BijectionReport:
    """Check forward/backward inversion, injectivity, family membership and
    count agreement for every n in [lo, hi], by the row BIJECTIONS[kind].  A
    range that starts below the row's least n is refused, and a range in
    which no map was checked does not pass.

    The sources are the part tuples of family_tuples, and each map is a
    core on tuples, so no Partition is built per map.  An image lies in the
    target when the backward map takes it, its parts sum to n and, for bar,
    its second part has the half's parity: the backward map's BijectionError
    is the target test, run once per image.  A map that raises, or builds a
    tuple that is not a partition, is reported as a failure.  The targets
    are counted, not listed, by exact counts that share no code with the
    listing of the sources: q(n) - consec(n), r1'(n) and the B bar sets, each
    read from one table per call.  An injective map into the target family,
    whose size equals the number of sources, is a bijection; where the
    sources come in halves, each half must also match its target's count.
    The sources are counted first, and a range that lists more than
    partitions.LISTING_BUDGET in all is refused."""
    if kind not in BIJECTIONS:
        raise ValueError("unknown bijection kind %r" % kind)
    least, shift, pairs_of, forward, backward = BIJECTIONS[kind]
    if lo < least:
        raise ValueError("bij %s --from must be >= %d, got %d" % (kind, least, lo))
    forward, backward = globals()[forward], globals()[backward]
    pairs, N = pairs_of(h), max(hi, 0)
    sources = [sum(c) for c in zip(*(pair.counts(N) for pair in pairs))]
    targets = [pair.targets(N) for pair in pairs]
    pt.check_budget(sum(sources[lo - shift:hi + 1 - shift]), "bij %s on n=%d..%d" % (kind, lo, hi))
    failures = []
    checked = 0
    for n in range(lo, hi + 1):
        listed = [family_tuples(n - shift, pair.source) for pair in pairs]
        if len(pairs) > 1 and any(len(s) != t[n] for s, t in zip(listed, targets)):
            failures.append((n, "parity-swapped cardinalities differ"))
        images = []
        for pair, source in zip(pairs, listed):
            parity = pair.parity
            for parts in source:
                try:
                    img = forward(parts, h)
                except ValueError as exc:
                    failures.append((n, "forward failed on %s: %s" % (_shown(parts), exc)))
                    continue
                checked += 1
                try:
                    back = backward(img, h)
                except BijectionError:  # outside the backward map's domain
                    back = None
                except ValueError as exc:  # inside it, but no partition comes back
                    back = exc
                if back is None or sum(img) != n or parity is not None and img[1] % 2 != parity:
                    failures.append((n, "image %s of %s outside the target family"
                                     % (_shown(img), _shown(parts))))
                if back is not None and back != parts:
                    failures.append((n, "backward did not recover %s" % _shown(parts)))
                images.append(img)
        if len(set(images)) != len(images):
            failures.append((n, "forward map is not injective"))
        count, want = sum(map(len, listed)), sum(t[n] for t in targets)
        if count != want:
            failures.append((n, "count mismatch: %d sources vs %d targets" % (count, want)))
    return BijectionReport(kind, (lo, hi), checked, checked > 0 and not failures,
                           tuple(failures))
