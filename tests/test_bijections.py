import pytest

from butterflyseq.bijections import (
    BijectionError,
    bar_forward,
    butterfly_backward,
    butterfly_forward,
    lower_largest,
    raise_largest,
    verify_bijection,
)
from butterflyseq.families import (
    BUTTERFLY, CONSEC_ISOLATED, CONSEC_WITH_ONE, STRICT,
    Family, count_family, enumerate_family,
)
from butterflyseq.partitions import Partition

P = Partition


def test_raise_largest_examples():
    assert raise_largest(P([5, 3, 1])) == P([6, 3, 1])
    assert raise_largest(P([1])) == P([2])
    out = raise_largest(P([4, 3]))
    assert out == P([5, 3])
    assert out.is_strict() and out[0] - out[1] >= 2
    with pytest.raises(BijectionError):
        raise_largest(P([]))


def test_butterfly_forward_examples():
    assert butterfly_forward(P([4, 3, 1])) == P([5, 4])
    out = butterfly_forward(P([5, 4, 2, 1]))
    assert out == P([6, 5, 2])
    from butterflyseq.families import in_family
    assert in_family(out, Family(CONSEC_ISOLATED))
    assert butterfly_forward(P([3, 2, 1])) == P([4, 3])
    with pytest.raises(BijectionError):
        butterfly_forward(P([4, 3, 2]))  # smallest part is not 1


def test_bar_forward_examples():
    assert bar_forward(P([7, 6, 5, 3]), 3) == P([8, 7, 6])
    assert bar_forward(P([6, 5, 4, 3]), 3) == P([7, 6, 5])
    assert bar_forward(P([6, 5, 4, 3, 2]), 3) == P([7, 6, 5, 2])
    with pytest.raises(BijectionError):
        bar_forward(P([7, 6, 5]), 3)


def test_round_trips_over_enumerated_domains():
    for n in range(4, 41):
        for p in enumerate_family(n - 1, Family(STRICT)):
            if len(p):
                assert lower_largest(raise_largest(p)) == p
    for n in range(6, 41):
        for p in enumerate_family(n - 1, Family(CONSEC_WITH_ONE)):
            assert butterfly_backward(butterfly_forward(p)) == p


def test_sum_shifts():
    assert raise_largest(P([9, 4])).n == 14
    assert butterfly_forward(P([6, 5, 1])).n == 13
    assert bar_forward(P([7, 6, 5, 3]), 3).n == 21


def test_verify_reports():
    rep = verify_bijection("butterfly", 6, 40)
    assert rep.passed and rep.checked > 0
    rep = verify_bijection("raise", 4, 40)
    assert rep.passed
    rep = verify_bijection("bar", 21, 40, h=3)
    assert rep.passed
    assert "pass" in str(rep)
    with pytest.raises(ValueError):
        verify_bijection("nope", 4, 5)


def test_count_identities():
    # the butterfly refinement count equals the second difference from n >= 6,
    # via the chain s(n) = r1'(n) + s(n) - r2(n-1) collapsing on the butterfly
    # bijection r2(n-1) = r1'(n)
    from butterflyseq.families import CONSEC_NO_ONE
    q = [count_family(n, Family(STRICT)) for n in range(61)]
    for n in range(6, 61):
        s_n = q[n] - 2 * q[n - 1] + q[n - 2]
        assert count_family(n, Family(BUTTERFLY)) == s_n
        assert (count_family(n, Family(CONSEC_ISOLATED))
                + count_family(n, Family(BUTTERFLY))
                - count_family(n - 1, Family(CONSEC_WITH_ONE))
                == s_n)


@pytest.mark.parametrize("kind, lo, hi, h, checked", [
    ("raise", 2, 30, 3, 1738),
    ("butterfly", 6, 40, 3, 459),
    ("bar", 6, 60, 3, 463),
    ("bar", 6, 60, 4, 63),
    ("bar", 40, 75, 5, 38),
])
def test_verify_checks_every_map(kind, lo, hi, h, checked):
    rep = verify_bijection(kind, lo, hi, h)
    assert rep.passed and rep.failures == ()
    assert rep.checked == checked


def test_bar_verify_below_the_first_butterfly():
    # no butterfly exists below n = 9, so only the upper end of the range checks maps
    assert verify_bijection("bar", 0, 12, 3).checked == 0
    assert not verify_bijection("bar", 0, 12, 3).passed
    rep = verify_bijection("bar", 1, 20, 3)
    assert rep.passed and rep.checked == 2
