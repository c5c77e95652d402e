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

from typing import NamedTuple

from .partitions import Partition, is_butterfly_tuple, pool_tuples

STANDARD = "standard"
SWITCHED = "switched"

STEP1 = "step1"
STEP2 = "step2"
STEP1_SWITCHED = "step1_switched"
STEP2_SWITCHED = "step2_switched"


class _Form(NamedTuple):
    sentinel: bool   # carries a smallest part 3 set aside from the tail
    gap: int         # q2 - q3 on the head: 0 (equal pair) or 2
    offset: int      # the caps' bound is q3 + offset
    outright: dict   # odd partition -> butterfly, routed here whatever its head


# A gap-two head over second part 3 or 4 would need a part 1, so those
# butterflies go outright: 4+3+2 to 3+3+3, and head 5>4>3 to its standard
# even images.
_FORMS = {
    STEP1: _Form(True, 0, -1, {}),
    STEP2: _Form(False, 2, 0, {(3, 3, 3): (4, 3, 2)}),
    STEP1_SWITCHED: _Form(True, 2, 1, {(3, 3, 3, 3): (5, 4, 3), (5, 3, 3, 3): (5, 4, 3, 2)}),
    STEP2_SWITCHED: _Form(False, 0, -2, {}),
}

# variant -> (form of the even-second-part route, form of the odd one)
_VARIANTS = {STANDARD: (STEP1, STEP2), SWITCHED: (STEP1_SWITCHED, STEP2_SWITCHED)}


def _forms_of(variant):
    if variant not in _VARIANTS:
        raise ValueError("unknown variant %r" % variant)
    return _VARIANTS[variant]


class SplitMergeError(ValueError):
    pass


class ShapeError(SplitMergeError):
    """The odd partition does not match any routed form."""


class CapsError(SplitMergeError):
    """A merging cap is violated; the partition is outside the bijection's range."""


def _pow2_floor(x):
    return 1 << (x.bit_length() - 1)


class MergeCaps(NamedTuple):
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
    largest_pows: dict
    checks: dict

    @property
    def satisfied(self):
        return all(self.checks.values())


def caps_of(q: Partition, variant=STANDARD, form=None) -> MergeCaps:
    """Evaluate the merging caps of ``q`` against a routed form.

    The form is inferred from the head shape when not given.  A partition
    the form takes outright is measured against the standard route of its
    butterfly's parity: the images of head 5>4>3 against the standard even
    form, and 3+3+3 against step2, whose head it does not have, so it is
    refused.  All comparisons are exact integer arithmetic.
    """
    parts = q.parts
    if any(x % 2 == 0 or x < 3 for x in parts):
        raise ShapeError("parts must be odd and >= 3: %s" % q)
    if form is None:
        form = _route(parts, variant)
    if form not in _FORMS:
        raise ShapeError("unknown form %r" % form)
    if len(parts) < 3:
        raise ShapeError("need at least three parts: %s" % q)
    butterfly = _FORMS[form].outright.get(parts)
    shape = _FORMS[_VARIANTS[STANDARD][butterfly[1] % 2] if butterfly else form]
    q1, q2, q3 = parts[0], parts[1], parts[2]
    if q2 != q3 + shape.gap or q1 < q2 + shape.gap:
        raise ShapeError("head does not match the %s form: %s"
                         % ("gap-two" if shape.gap else "equal-pair", q))
    two_t = q1 - q2 - shape.gap
    tail = list(parts[3:])
    if shape.sentinel:
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
    bound = q3 + shape.offset

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
    """Pick the routed form from the head shape (merge-side dispatch): a
    partition one of the variant's forms takes outright, else the form
    whose head gap q2 - q3 it has."""
    if len(parts) < 3:
        raise ShapeError("need at least three parts")
    forms = _forms_of(variant)
    for form in forms:
        if parts in _FORMS[form].outright:
            return form
    for form in forms:
        if parts[1] - parts[2] == _FORMS[form].gap:
            return form
    raise ShapeError("head shape matches neither routed form: %s" % Partition(parts))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

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


def _split_route(p: Partition, variant, parity=None) -> Partition:
    """Split a butterfly partition along the variant's route for the parity
    of its second part (which must be ``parity`` when given)."""
    forms = _forms_of(variant)
    if not is_butterfly_tuple(p.parts):
        raise SplitMergeError("not a butterfly partition: %s" % p)
    if parity is not None and p[1] % 2 != parity:
        raise SplitMergeError("second part must be %s: %s" % ("odd" if parity else "even", p))
    shape = _FORMS[forms[p[1] % 2]]
    for odd, butterfly in shape.outright.items():
        if butterfly == p.parts:
            return Partition(odd)
    c = p[1] if p[1] % 2 else p[1] - 1  # the largest odd value <= the second part
    two_t, odd_tail = _split_tail(p.parts[3:])
    parts = [c + shape.gap + two_t, c, c - shape.gap] + odd_tail + [3] * shape.sentinel
    out = Partition(sorted(parts, reverse=True))
    assert out.n == p.n
    return out


def split_even(p: Partition) -> Partition:
    """Standard split of a butterfly partition with even second part."""
    return _split_route(p, STANDARD, 0)


def split_odd(p: Partition) -> Partition:
    """Standard split of a butterfly partition with odd second part."""
    return _split_route(p, STANDARD, 1)


def split_switched(p: Partition) -> Partition:
    """Split under the switched variant (shapes of the two routes exchanged)."""
    return _split_route(p, SWITCHED)


def split(p: Partition, variant=STANDARD) -> Partition:
    return _split_route(p, variant)


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
    form = _route(parts, variant)
    if parts in _FORMS[form].outright:
        return Partition(_FORMS[form].outright[parts])
    caps = caps_of(q, variant, form)
    if not caps.satisfied:
        raise CapsError("merging caps violated for %s: %s" % (q, caps.checks))

    # parts[1] = 2m - 1, the largest odd value at most the butterfly's second
    # part: 2m on the even route, 2m - 1 on the odd one
    m = (parts[1] + 1) // 2
    top = 2 * m + 1 - _forms_of(variant).index(form)
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
    """Total membership test for the four odd-part target forms (caps
    included): the partitions the form takes outright, and those caps_of
    measures against it with every cap satisfied whose tail, on the
    equal-pair forms, stays below the pair except for 3s."""
    if form not in _FORMS:
        raise ValueError("unknown form %r" % form)
    parts = q.parts
    if parts in _FORMS[form].outright:
        return True
    if not _FORMS[form].gap and len(parts) > 3 and parts[2] == parts[3] != 3:
        return False
    try:
        return caps_of(q, form=form).satisfied
    except ShapeError:
        return False


def iter_form_tuples(n, form):
    """The odd-part partitions of n that match ``form`` with every cap
    satisfied (the partitions matches_form accepts), in no particular order.

    They are generated from the head and a capped tail instead of filtered
    out of every odd partition: q3 odd >= 3 and q2 = q3 + the form's head
    gap; q1 = q2 + gap + 2t with pow2floor(2t) <= the bound; the sentinel 3
    where the form carries one; and a tail of odd parts below q2 in which
    each value x occurs u times with x * pow2floor(u) <= the bound, that is
    at most 2 pow2floor(bound // x) - 1 times: one pool per q2 holds that
    many copies of each x, and partitions.pool_tuples lists the tails of
    every 2t from it.  The partitions the form takes outright come last.
    """
    if form not in _FORMS:
        raise ValueError("unknown form %r" % form)
    shape = _FORMS[form]
    gap, sentinel = shape.gap, (3,) * shape.sentinel
    rest = n - sum(sentinel)
    # q1 + q2 + q3 = 3 * q2 + 2t, and the tail parts stay below q2
    for q2 in range(3 + gap, rest // 3 + 1, 2):
        q3, bound = q2 - gap, q2 - gap + shape.offset
        heads = []
        for two_t in range(0, rest - 3 * q2 + 1, 2):
            if two_t and _pow2_floor(two_t) > bound:
                break
            heads.append((rest - 3 * q2 - two_t, None, (q2 + gap + two_t, q2, q3)))
        # the tail pool: each odd x in [3, q2 - 2] as often as its cap allows
        pool = [x for x in range(3, min(q2 - 2, bound) + 1, 2)
                for _ in range(2 * _pow2_floor(bound // x) - 1)]
        for t in pool_tuples(pool, heads):
            yield t + sentinel
    for parts in shape.outright:
        if sum(parts) == n:
            yield parts


def count_capped(n, variant=STANDARD):
    """Counts of odd-part partitions of n matching the variant's two routed
    forms with all caps satisfied, as (even-route count, odd-route count)."""
    even_form, odd_form = _forms_of(variant)
    return (sum(1 for _ in iter_form_tuples(n, even_form)),
            sum(1 for _ in iter_form_tuples(n, odd_form)))
