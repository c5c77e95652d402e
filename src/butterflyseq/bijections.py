"""The three explicit bijections and a range verifier.

* raise_largest: strict partitions of n-1 <-> strict partitions of n whose
  two largest parts differ by at least 2 (add one unit to the largest part).
* butterfly_forward: consecutive-pair partitions of n-1 with smallest part 1
  <-> consecutive-pair partitions of n with no 1 and the pair isolated
  (drop the 1, add one unit to each of the two largest parts).
* bar_forward: horizontal-bar partitions <-> vertical-bar partitions at the
  same n (remove the part h, add one unit to each of the h largest parts);
  the parity of the second-largest part flips.
"""

import operator
from typing import NamedTuple

from . import partitions as pt
from .families import (
    BAR_BE,
    BAR_BO,
    BAR_KINDS,
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
    pass


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


def lower_largest(p: Partition) -> Partition:
    parts = p.parts
    if not parts or parts[0] == 1:
        raise BijectionError("no unit to remove from the largest part: %s" % p)
    if not is_strict_tuple(parts) or (len(parts) >= 2 and parts[0] - parts[1] < 2):
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


def verify_bijection(kind, lo, hi, h=3) -> BijectionReport:
    """Check forward/backward inversion, injectivity, family membership and
    count agreement for every n in [lo, hi].  A range in which no map was
    checked does not pass.

    The targets are counted, not listed, by exact counts that share no code
    with the listing of the sources: q(n) - consec(n), r1'(n) and the B bar
    sets, each read from one table per call.  An injective map into the
    target family, whose size equals the number of sources, is a bijection.
    The sources are counted first, from q, r2 or the A bar sets, and a range
    that lists more than partitions.LISTING_BUDGET in all is refused."""
    failures = []
    checked = 0
    N = max(hi, 0)
    if kind == "raise":
        # at n, the strict partitions of n - 1 are listed, and those of n whose
        # two largest parts are not consecutive counted
        q = pt.strict_pentagonal_table(N)
        sources, targets = [0] + q, list(map(operator.sub, q, count_table(N, Family(CONSEC))))
    elif kind == "butterfly":
        sources, targets = [0] + count_table(N, _WITH_ONE), count_table(N, _ISOLATED)
    elif kind == "bar":
        a_e, a_o, b_e, b_o = (count_table(N, Family(k, h)) for k in BAR_KINDS)
        sources, targets = list(map(operator.add, a_e, a_o)), list(map(operator.add, b_e, b_o))
    else:
        raise ValueError("unknown bijection kind %r" % kind)
    pt.check_budget(sum(sources[max(lo, 0):hi + 1]), "bij %s on n=%d..%d" % (kind, lo, hi))
    for n in range(lo, hi + 1):
        if kind == "raise":
            source = [p for p in enumerate_family(n - 1, Family(STRICT)) if p.parts]
            fwd, back = raise_largest, lower_largest

            def member(img, src=None):
                parts = img.parts
                return (sum(parts) == n and is_strict_tuple(parts)
                        and (len(parts) < 2 or parts[0] - parts[1] >= 2))
        elif kind == "butterfly":
            source = enumerate_family(n - 1, _WITH_ONE)
            fwd, back = butterfly_forward, butterfly_backward
            member = lambda img, src=None: sum(img.parts) == n and in_family(img, _ISOLATED)
        else:
            ae, ao = (enumerate_family(n, Family(k, h)) for k in BAR_KINDS[:2])
            source = ae + ao
            fwd, back = (lambda p: bar_forward(p, h)), (lambda p: bar_backward(p, h))
            ae_set = {p.parts for p in ae}
            # the image family swaps the parity of the second-largest part
            member = lambda img, src=None: sum(img.parts) == n and in_family(
                img, Family(BAR_BO if src.parts in ae_set else BAR_BE, h))
            if len(ae) != b_o[n] or len(ao) != b_e[n]:
                failures.append((n, "parity-swapped cardinalities differ"))

        images = []
        for p in source:
            try:
                img = fwd(p)
            except BijectionError as exc:
                failures.append((n, "forward failed on %s: %s" % (p, exc)))
                continue
            checked += 1
            if not member(img, p):
                failures.append((n, "image %s of %s outside the target family" % (img, p)))
            if back(img).parts != p.parts:
                failures.append((n, "backward did not recover %s" % p))
            images.append(img.parts)
        if len(set(images)) != len(images):
            failures.append((n, "forward map is not injective"))
        if len(source) != targets[n]:
            failures.append((n, "count mismatch: %d sources vs %d targets"
                             % (len(source), targets[n])))
    return BijectionReport(kind, (lo, hi), checked, checked > 0 and not failures,
                           tuple(failures))
