"""Splitting butterfly partitions into odd-part partitions and merging back.

A butterfly partition (distinct parts, at least three, the three largest
consecutive, smallest part >= 2) is mapped to a partition with odd parts
>= 3.  The three consecutive parts become the head of the odd partition, the
power-of-two parts are folded into the largest odd part, and the remaining
even parts are Euler-split.  Merging inverts this, and is only well defined
when the "merging caps" hold: every power of two recreated from the head gap
and every merged repeated odd part must stay strictly below the third part of
the butterfly partition.

Two variants exist.  Under the standard variant, butterflies with an even
second part map to the form with equal second and third odd parts and a
mandatory smallest part 3 (the sentinel), and butterflies with an odd second
part map to the form whose second part exceeds the third by two, with no
sentinel.  The switched variant exchanges the two target shapes (the even
route then carries the sentinel on the gap-two shape).  For the smallest
heads (second part 4) the switched even route coincides with the standard
one, which keeps the correspondence total.
"""

from dataclasses import dataclass, field
from itertools import accumulate

from .partitions import Partition, is_butterfly_tuple

STANDARD = "standard"
SWITCHED = "switched"

STEP1 = "step1"
STEP2 = "step2"
STEP1_SWITCHED = "step1_switched"
STEP2_SWITCHED = "step2_switched"

# form -> (sentinel carried, head-gap rule, cap bound as offset from q3)
_FORM_SENTINEL = {STEP1: True, STEP2: False, STEP1_SWITCHED: True, STEP2_SWITCHED: False}
_FORM_GAP2 = {STEP1: False, STEP2: True, STEP1_SWITCHED: True, STEP2_SWITCHED: False}
_FORM_BOUND_OFFSET = {STEP1: -1, STEP2: 0, STEP1_SWITCHED: 1, STEP2_SWITCHED: -2}

# switched even-route specials: images of the two butterflies with head 5>4>3
_SWITCHED_EVEN_SPECIALS = {(3, 3, 3, 3), (5, 3, 3, 3)}


class SplitMergeError(ValueError):
    pass


class ShapeError(SplitMergeError):
    """The odd partition does not match any routed form."""


class CapsError(SplitMergeError):
    """A merging cap is violated; the partition is outside the bijection's range."""


def _pow2_floor(x):
    return 1 << (x.bit_length() - 1)


@dataclass(frozen=True)
class MergeCaps:
    """Cap report for an odd-part partition routed to one of the four forms.

    ``two_t`` is the head gap (sum of power-of-two parts to recreate),
    ``u_by_q`` the tail multiplicity of each odd value >= 5, ``v`` the tail
    multiplicity of 3 after setting the sentinel aside where the form carries
    one.  ``largest_pows`` records, for each nonzero quantity, the largest
    power of two at or below it; ``checks`` holds one boolean per applicable
    cap (a zero quantity has no cap, so it never appears).
    """

    form: str
    bound: int
    two_t: int
    u_by_q: dict
    v: int
    largest_pows: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def satisfied(self):
        return all(self.checks.values())


def caps_of(q: Partition, variant=STANDARD, form=None) -> MergeCaps:
    """Evaluate the merging caps of ``q`` against a routed form.

    The form is inferred from the head shape when not given.  All
    comparisons are exact integer arithmetic.
    """
    parts = q.parts
    if any(x % 2 == 0 or x < 3 for x in parts):
        raise ShapeError("parts must be odd and >= 3: %s" % q)
    if form is None:
        form = _route(parts, variant)
    if form not in _FORM_SENTINEL:
        raise ShapeError("unknown form %r" % form)
    if len(parts) < 3:
        raise ShapeError("need at least three parts: %s" % q)
    if form == STEP1_SWITCHED and parts in _SWITCHED_EVEN_SPECIALS:
        # the switched even route coincides with the standard one on these,
        # so the standard geometry applies
        inner = caps_of(q, STANDARD, STEP1)
        return MergeCaps(form=form, bound=inner.bound, two_t=inner.two_t,
                         u_by_q=inner.u_by_q, v=inner.v,
                         largest_pows=inner.largest_pows, checks=inner.checks)
    q1, q2, q3 = parts[0], parts[1], parts[2]
    if _FORM_GAP2[form]:
        if q2 != q3 + 2 or q1 < q2 + 2:
            raise ShapeError("head does not match the gap-two form: %s" % q)
        two_t = q1 - q2 - 2
    else:
        if q2 != q3:
            raise ShapeError("head does not match the equal-pair form: %s" % q)
        two_t = q1 - q2
    tail = list(parts[3:])
    if _FORM_SENTINEL[form]:
        if 3 not in tail:
            raise ShapeError("form requires a smallest part 3: %s" % q)
        tail.remove(3)
    u_by_q = {}
    v = 0
    for x in tail:
        if x == 3:
            v += 1
        else:
            u_by_q[x] = u_by_q.get(x, 0) + 1
    bound = q3 + _FORM_BOUND_OFFSET[form]

    largest_pows = {}
    checks = {}
    if two_t > 0:
        largest_pows["2t"] = _pow2_floor(two_t)
        checks["2t"] = largest_pows["2t"] <= bound
    for val in sorted(u_by_q):
        key = "u:%d" % val
        largest_pows[key] = _pow2_floor(u_by_q[val])
        checks[key] = val * largest_pows[key] <= bound
    if v > 0:
        largest_pows["v"] = _pow2_floor(v)
        checks["v"] = 3 * largest_pows["v"] <= bound
    return MergeCaps(form=form, bound=bound, two_t=two_t, u_by_q=u_by_q, v=v,
                     largest_pows=largest_pows, checks=checks)


def _route(parts, variant):
    """Pick the routed form from the head shape (merge-side dispatch)."""
    if len(parts) < 3:
        raise ShapeError("need at least three parts")
    q2, q3 = parts[1], parts[2]
    if variant == STANDARD:
        if parts == (3, 3, 3):
            return STEP2
        if q2 == q3:
            return STEP1
        if q2 == q3 + 2:
            return STEP2
    elif variant == SWITCHED:
        if parts in _SWITCHED_EVEN_SPECIALS:
            return STEP1_SWITCHED
        if q2 == q3:
            return STEP2_SWITCHED
        if q2 == q3 + 2:
            return STEP1_SWITCHED
    else:
        raise ValueError("unknown variant %r" % variant)
    raise ShapeError("head shape matches neither routed form: %s" % Partition(parts))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _require_butterfly(p: Partition):
    if not is_butterfly_tuple(p.parts):
        raise SplitMergeError("not a butterfly partition: %s" % p)


def _split_tail(tail):
    """Fold power-of-two parts into 2t, Euler-split even non-powers of two."""
    two_t = 0
    odd = []
    for x in tail:
        if x % 2 == 1:
            odd.append(x)
        elif x & (x - 1) == 0:
            two_t += x
        else:
            val = x
            exp = 0
            while val % 2 == 0:
                val //= 2
                exp += 1
            odd.extend([val] * (1 << exp))
    return two_t, odd


def _split_to(p: Partition, form) -> Partition:
    """Split a butterfly partition into the odd-part shape of ``form``."""
    c = p[1] if p[1] % 2 else p[1] - 1  # the largest odd value <= the second part
    two_t, odd_tail = _split_tail(p.parts[3:])
    head = (c + 2 + two_t, c, c - 2) if _FORM_GAP2[form] else (c + two_t, c, c)
    parts = list(head) + odd_tail
    if _FORM_SENTINEL[form]:
        parts.append(3)
    out = Partition(sorted(parts, reverse=True))
    assert out.n == p.n
    return out


def split_even(p: Partition) -> Partition:
    """Standard split of a butterfly partition with even second part."""
    _require_butterfly(p)
    if p[1] % 2 != 0:
        raise SplitMergeError("second part must be even: %s" % p)
    return _split_to(p, STEP1)


def split_odd(p: Partition) -> Partition:
    """Standard split of a butterfly partition with odd second part."""
    _require_butterfly(p)
    if p[1] % 2 != 1:
        raise SplitMergeError("second part must be odd: %s" % p)
    if p.parts == (4, 3, 2):
        return Partition((3, 3, 3))
    return _split_to(p, STEP2)


def split_switched(p: Partition) -> Partition:
    """Split under the switched variant (shapes of the two routes exchanged)."""
    _require_butterfly(p)
    if p[1] % 2:
        return _split_to(p, STEP2_SWITCHED)
    if p[1] == 4:
        # head 5>4>3: the gap-two shape would need a part below 3, so the
        # switched route coincides with the standard one here
        return split_even(p)
    return _split_to(p, STEP1_SWITCHED)


def split(p: Partition, variant=STANDARD) -> Partition:
    if variant == STANDARD:
        return split_even(p) if p[1] % 2 == 0 else split_odd(p)
    if variant == SWITCHED:
        return split_switched(p)
    raise ValueError("unknown variant %r" % variant)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

def merge_odd(q: Partition, variant=STANDARD) -> Partition:
    """Reconstruct the unique butterfly partition whose split (under the
    matching variant) equals ``q``.

    Raises CapsError when a merging cap fails and ShapeError when the head
    matches neither routed form; a reconstruction that is not strictly
    decreasing signals an input outside the bijection's range and also raises.
    """
    parts = q.parts
    if any(x % 2 == 0 or x < 3 for x in parts):
        raise ShapeError("parts must be odd and >= 3: %s" % q)
    if variant == STANDARD and parts == (3, 3, 3):
        return Partition((4, 3, 2))

    form = _route(parts, variant)
    caps = caps_of(q, variant, form)
    if not caps.satisfied:
        raise CapsError("merging caps violated for %s: %s" % (q, caps.checks))

    # parts[1] = 2m - 1, the largest odd value at most the butterfly's second
    # part: 2m on the even routes, 2m - 1 on the odd ones
    m = (parts[1] + 1) // 2
    top = 2 * m + 1 if form in (STEP1, STEP1_SWITCHED) else 2 * m
    out = [top, top - 1, top - 2]
    two_t = caps.two_t
    bit = 1
    while bit <= two_t:
        if two_t & bit:
            out.append(bit)
        bit <<= 1
    for val, count in list(caps.u_by_q.items()) + ([(3, caps.v)] if caps.v else []):
        exp = 0
        while count:
            if count & 1:
                out.append(val << exp)
            count >>= 1
            exp += 1
    out.sort(reverse=True)
    if any(a <= b for a, b in zip(out, out[1:])) or out[-1] < 2:
        raise CapsError("reconstruction is not strictly decreasing: %s" % out)
    result = Partition(out)
    if result.n != q.n or split(result, variant) != q:
        raise SplitMergeError("merge did not invert the split for %s" % q)
    return result


# ---------------------------------------------------------------------------
# Form membership and capped counting
# ---------------------------------------------------------------------------

def matches_form(q: Partition, form) -> bool:
    """Total membership test for the four odd-part target forms (caps included)."""
    parts = q.parts
    if len(parts) < 3 or any(x % 2 == 0 or x < 3 for x in parts):
        return False
    q1, q2, q3 = parts[0], parts[1], parts[2]
    q4 = parts[3] if len(parts) > 3 else None

    if form == STEP1:
        if len(parts) < 4 or parts[-1] != 3 or q2 != q3:
            return False
        if q4 is not None and q3 <= q4 and not (q2 == q3 == q4 == 3):
            return False
    elif form == STEP2:
        if parts == (3, 3, 3):
            return True
        if q1 < q2 + 2 or q2 != q3 + 2:
            return False
    elif form == STEP1_SWITCHED:
        if parts in _SWITCHED_EVEN_SPECIALS:
            return True
        if len(parts) < 4 or parts[-1] != 3 or q1 < q2 + 2 or q2 != q3 + 2:
            return False
    elif form == STEP2_SWITCHED:
        if q2 != q3:
            return False
        if q4 is not None and q3 <= q4 and not (q2 == q3 == q4 == 3):
            return False
    else:
        raise ValueError("unknown form %r" % form)
    try:
        return caps_of(q, form=form).satisfied
    except ShapeError:
        return False


def _iter_capped_tail(r, top, bound):
    """The partitions of r into odd parts in [3, top] whose every value x
    occurs u times with x * pow2floor(u) <= bound (the tail caps)."""
    values = [(x, 2 * _pow2_floor(bound // x) - 1) for x in range(3, min(top, bound) + 1, 2)]
    reach = list(accumulate(x * most for x, most in values))  # largest sum of values[:i+1]

    def rec(r, i):
        if r == 0:
            yield ()
        elif i >= 0 and r <= reach[i]:
            x, most = values[i]
            for u in range(min(most, r // x), -1, -1):
                for rest in rec(r - u * x, i - 1):
                    yield (x,) * u + rest
    return rec(r, len(values) - 1)


def iter_form_tuples(n, form):
    """The odd-part partitions of n that match ``form`` with every cap
    satisfied (the partitions matches_form accepts), in no particular order.

    They are generated from the head and a capped tail instead of filtered
    out of every odd partition: q3 odd >= 3 and q2 = q3 (q3 + 2 on the
    gap-two forms); q1 = q2 + 2t (q2 + 2 + 2t) with pow2floor(2t) <= the
    bound; the sentinel 3 where the form carries one; and a tail of odd
    parts below q2 in which each value x occurs u times with
    x * pow2floor(u) <= the bound.  The three specials the routing adds
    outright come last.
    """
    if form not in _FORM_SENTINEL:
        raise ValueError("unknown form %r" % form)
    gap = 2 if _FORM_GAP2[form] else 0
    sentinel = (3,) if _FORM_SENTINEL[form] else ()
    rest = n - sum(sentinel)
    # q1 + q2 + q3 = 3 * q2 + 2t, and the tail parts stay below q2
    for q2 in range(3 + gap, rest // 3 + 1, 2):
        q3, bound = q2 - gap, q2 - gap + _FORM_BOUND_OFFSET[form]
        for two_t in range(0, rest - 3 * q2 + 1, 2):
            if two_t and _pow2_floor(two_t) > bound:
                break
            for tail in _iter_capped_tail(rest - 3 * q2 - two_t, q2 - 2, bound):
                yield (q2 + gap + two_t, q2, q3) + tail + sentinel
    specials = {STEP2: [(3, 3, 3)], STEP1_SWITCHED: sorted(_SWITCHED_EVEN_SPECIALS)}
    for parts in specials.get(form, ()):
        if sum(parts) == n:
            yield parts


def count_capped(n, variant=STANDARD):
    """Counts of odd-part partitions of n matching the variant's two routed
    forms with all caps satisfied, as (even-route count, odd-route count)."""
    if variant == STANDARD:
        even_form, odd_form = STEP1, STEP2
    elif variant == SWITCHED:
        even_form, odd_form = STEP1_SWITCHED, STEP2_SWITCHED
    else:
        raise ValueError("unknown variant %r" % variant)
    return (sum(1 for _ in iter_form_tuples(n, even_form)),
            sum(1 for _ in iter_form_tuples(n, odd_form)))
