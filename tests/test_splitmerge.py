import pytest
from hypothesis import given, strategies as st

from butterflyseq.partitions import Partition, count_butterfly, iter_butterfly_tuples
from butterflyseq.splitmerge import (
    STANDARD, STEP1, STEP1_SWITCHED, STEP2, STEP2_SWITCHED, SWITCHED,
    CapsError, ShapeError, SplitMergeError, _route, caps_of, count_capped, matches_form,
    merge_odd, split, split_even, split_odd, split_switched,
)

P = Partition


# -- the worked examples, reproduced exactly ---------------------------------

def test_split_even_examples():
    assert split_even(P([5, 4, 3])) == P([3, 3, 3, 3])
    assert split_even(P([9, 8, 7, 6, 5, 4, 3, 2])) == P([13, 7, 7, 5, 3, 3, 3, 3])
    assert split_even(P([7, 6, 5, 4, 3, 2])) == P([11, 5, 5, 3, 3])


def test_split_odd_examples():
    assert split_odd(P([4, 3, 2])) == P([3, 3, 3])
    assert split_odd(P([10, 9, 8, 7, 6, 5, 4, 3])) == P([15, 9, 7, 7, 5, 3, 3, 3])
    assert split_odd(P([10, 9, 8])) == P([11, 9, 7])


def test_split_switched_examples():
    assert split_switched(P([7, 6, 5, 4, 3, 2])) == P([13, 5, 3, 3, 3])
    assert split_switched(P([10, 9, 8])) == P([9, 9, 9])
    assert split_switched(P([5, 4, 3])) == P([3, 3, 3, 3])
    assert split_switched(P([5, 4, 3, 2])) == P([5, 3, 3, 3])
    assert split_switched(P([4, 3, 2])) == P([3, 3, 3])


def test_merge_examples():
    assert merge_odd(P([5, 3, 3, 3])) == P([5, 4, 3, 2])
    assert merge_odd(P([25, 11, 11, 9, 7, 5, 5, 5, 3, 3, 3, 3])) == \
        P([13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2])
    assert merge_odd(P([3, 3, 3])) == P([4, 3, 2])
    assert merge_odd(P([13, 5, 3, 3, 3]), SWITCHED) == P([7, 6, 5, 4, 3, 2])
    assert merge_odd(P([9, 9, 9]), SWITCHED) == P([10, 9, 8])
    assert merge_odd(P([11, 5, 5, 3, 3])) == P([7, 6, 5, 4, 3, 2])


def test_split_preconditions():
    with pytest.raises(ValueError):
        split_even(P([4, 3, 2]))          # second part odd
    with pytest.raises(ValueError):
        split_odd(P([5, 4, 3]))           # second part even
    with pytest.raises(ValueError):
        split_even(P([5, 4, 2]))          # not a butterfly partition


def test_merge_errors():
    with pytest.raises(ShapeError):
        merge_odd(P([9, 7, 3]))           # head gap matches neither form
    with pytest.raises(CapsError):
        merge_odd(P([13, 5, 3]))          # 2t = 6 recreates a part 4 > 3
    with pytest.raises(CapsError):
        merge_odd(P([7, 3, 3, 3]))        # 2t = 4 beyond the small head
    with pytest.raises(ShapeError):
        merge_odd(P([6, 4, 2]))           # even parts
    # a valid shape just inside the caps: the worked small case
    assert merge_odd(P([9, 5, 3])) == P([6, 5, 4, 2])


def test_caps_examples():
    caps = caps_of(P([5, 3, 3, 3]), STANDARD, STEP1)
    assert caps.two_t == 2 and caps.bound == 2
    assert caps.largest_pows["2t"] == 2 and caps.checks["2t"] is True
    assert caps.satisfied

    caps = caps_of(P([3, 3, 3, 3]), STANDARD, STEP1)
    assert caps.two_t == 0 and caps.v == 0 and not caps.checks
    assert caps.satisfied

    caps = caps_of(P([25, 11, 11, 9, 7, 5, 5, 5, 3, 3, 3, 3]), STANDARD, STEP1)
    assert caps.satisfied
    assert caps.two_t == 14 and caps.v == 3
    assert caps.u_by_q == {9: 1, 7: 1, 5: 3}
    assert caps.largest_pows["u:5"] == 2        # merged part 10 = bound
    assert caps.bound == 10


def test_caps_shape_dispatch():
    assert caps_of(P([7, 5, 3, 3])).form == STEP2
    assert caps_of(P([7, 5, 3, 3]), SWITCHED).form == STEP1_SWITCHED
    assert caps_of(P([9, 9, 9]), SWITCHED).form == STEP2_SWITCHED
    with pytest.raises(ShapeError):
        caps_of(P([9, 7, 3]), STANDARD)


def test_round_trip_both_variants():
    for n in range(6, 46):
        for tup in iter_butterfly_tuples(n):
            p = P(tup)
            for variant in (STANDARD, SWITCHED):
                q = split(p, variant)
                assert q.n == n
                assert all(x % 2 == 1 and x >= 3 for x in q)
                assert merge_odd(q, variant) == p


def test_images_are_disjoint_within_each_variant():
    for n in range(6, 46):
        evens = {split(P(t), STANDARD)
                 for t in iter_butterfly_tuples(n, second_parity=0)}
        odds = {split(P(t), STANDARD)
                for t in iter_butterfly_tuples(n, second_parity=1)}
        assert not evens & odds
        evens_sw = {split(P(t), SWITCHED)
                    for t in iter_butterfly_tuples(n, second_parity=0)}
        odds_sw = {split(P(t), SWITCHED)
                   for t in iter_butterfly_tuples(n, second_parity=1)}
        assert not evens_sw & odds_sw


def test_images_satisfy_their_own_form():
    for n in range(6, 46):
        for tup in iter_butterfly_tuples(n):
            p = P(tup)
            even = p[1] % 2 == 0
            assert matches_form(split(p, STANDARD), STEP1 if even else STEP2)
            assert matches_form(split(p, SWITCHED),
                                STEP1_SWITCHED if even else STEP2_SWITCHED)


def test_count_capped_examples():
    assert count_capped(12, STANDARD) == (1, 0)
    assert count_capped(9, STANDARD) == (0, 1)
    se, so = count_butterfly(27, 0), count_butterfly(27, 1)
    assert count_capped(27, STANDARD) == (se, so)
    assert count_capped(27, SWITCHED) == (se, so)


@pytest.mark.parametrize("variant", [STANDARD, SWITCHED])
def test_count_capped_matches_enumeration(variant):
    for n in range(55, 5, -1):
        assert count_capped(n, variant) == (count_butterfly(n, 0),
                                            count_butterfly(n, 1))


def butterfly_partitions(draw):
    """A random butterfly partition: head (a+2, a+1, a) plus a strict tail
    drawn from [2, a-1].  Reaches sizes far beyond the enumerated sweeps."""
    a = draw(st.integers(min_value=2, max_value=40))
    tail = draw(st.sets(st.integers(min_value=2, max_value=max(a - 1, 2))))
    tail = sorted((x for x in tail if x < a), reverse=True)
    return Partition([a + 2, a + 1, a] + tail)


@given(st.data())
def test_round_trip_on_random_large_butterflies(data):
    p = butterfly_partitions(data.draw)
    for variant in (STANDARD, SWITCHED):
        q = split(p, variant)
        assert q.n == p.n
        assert merge_odd(q, variant) == p


def test_forms_are_mutually_exclusive():
    from butterflyseq.families import _iter_odd_parts
    for n in range(6, 40):
        for t in _iter_odd_parts(n, 3):
            q = P(t)
            assert not (matches_form(q, STEP1) and matches_form(q, STEP2))
            assert not (matches_form(q, STEP1_SWITCHED)
                        and matches_form(q, STEP2_SWITCHED))


@pytest.mark.parametrize("variant, forms", [
    (STANDARD, (STEP1, STEP2)),
    (SWITCHED, (STEP1_SWITCHED, STEP2_SWITCHED)),
])
def test_merge_routing_and_caps_agree_on_every_odd_partition(variant, forms):
    """merge_odd succeeds exactly on the partitions matches_form accepts for
    one of the variant's forms (the even route's first), _route and caps_of
    name that form, and the merged second part has the route's parity;
    caps_of still refuses standard 3+3+3, which merges to 4+3+2."""
    from butterflyseq.families import _iter_odd_parts
    merged = 0
    for n in range(46):
        for t in _iter_odd_parts(n, 3):
            q = P(t)
            accepted = [f for f in forms if matches_form(q, f)]
            assert len(accepted) <= 1, q
            try:
                p = merge_odd(q, variant)
            except SplitMergeError:
                assert accepted == [], q
                continue
            merged += 1
            assert accepted and _route(t, variant) == accepted[0], q
            assert p[1] % 2 == forms.index(accepted[0]), q
            if variant == STANDARD and t == (3, 3, 3):
                with pytest.raises(ShapeError):
                    caps_of(q, variant)
            else:
                assert caps_of(q, variant).form == accepted[0], q
    assert merged == sum(count_butterfly(n) for n in range(45, -1, -1))
