import pytest
from hypothesis import given, strategies as st

from butterflyseq.families import (
    BAR_AE, BAR_AO, BAR_BE, BAR_BO, BUTTERFLY, Family, enumerate_family, family_tuples,
)
from butterflyseq.partitions import Partition, iter_butterfly_tuples
from butterflyseq.pentagonal import (
    EQUAL, EVEN_MINUS_ONE, EVEN_PLUS_ONE,
    GEN_PENTAGONAL, GEN_PENTAGONAL_DOMINO, NONPENT_HBAR, NONPENT_VBAR,
    PENTAGONAL, PENTAGONAL_DOMINO,
    classify, parity_refined_counts, enumerate_bars, make_pentagonal,
    parity_relation, parity_relation_holds,
)
from butterflyseq.sequences import (
    EXCEPTION_FORMS, EXCEPTION_SIGNS, PENTAGONAL_SHAPES, exception_form_of)

P = Partition
PENT_KINDS = (PENTAGONAL, GEN_PENTAGONAL, PENTAGONAL_DOMINO, GEN_PENTAGONAL_DOMINO)


def test_make_pentagonal_examples():
    assert make_pentagonal(PENTAGONAL, 3) == P([5, 4, 3])
    assert make_pentagonal(GEN_PENTAGONAL_DOMINO, 2) == P([4, 3, 2])
    assert make_pentagonal(PENTAGONAL_DOMINO, 3) == P([5, 4, 3, 2])
    with pytest.raises(ValueError):
        make_pentagonal(PENTAGONAL, 2)
    with pytest.raises(ValueError):
        make_pentagonal(GEN_PENTAGONAL_DOMINO, 1)


def test_make_pentagonal_sums():
    for h in range(3, 12):
        assert make_pentagonal(PENTAGONAL, h).n == (3 * h * h - h) // 2
        assert make_pentagonal(GEN_PENTAGONAL, h).n == (3 * h * h + h) // 2
        assert make_pentagonal(PENTAGONAL_DOMINO, h).n == (3 * h * h - h) // 2 + 2
        assert make_pentagonal(GEN_PENTAGONAL_DOMINO, h).n == (3 * h * h + h) // 2 + 2


def test_classify_examples():
    assert classify(P([6, 5, 4])).kind == GEN_PENTAGONAL
    assert classify(P([6, 5, 4])).h == 3
    assert classify(P([8, 7, 6, 3])) == classify(P([8, 7, 6, 3]))
    c = classify(P([8, 7, 6, 3]))
    assert (c.kind, c.h) == (NONPENT_HBAR, 3)
    c = classify(P([9, 8, 7]))
    assert (c.kind, c.h) == (NONPENT_VBAR, 3)
    c = classify(P([6, 5, 4, 2]))
    assert (c.kind, c.h) == (GEN_PENTAGONAL_DOMINO, 3)
    with pytest.raises(ValueError):
        classify(P([5, 4, 2]))


def test_classification_total_and_exclusive():
    for n in range(6, 56):
        pent_seen = set()
        for tup in iter_butterfly_tuples(n):
            c = classify(P(tup))  # total: classify never fails
            if c.kind in PENT_KINDS:
                assert c.kind not in pent_seen  # unique per class and n
                pent_seen.add(c.kind)
                assert make_pentagonal(c.kind, c.h) == P(tup)


@given(st.data())
def test_classification_total_on_random_large_butterflies(data):
    a = data.draw(st.integers(min_value=2, max_value=40))
    tail = data.draw(st.sets(st.integers(min_value=2, max_value=max(a - 1, 2))))
    tail = sorted((x for x in tail if x < a), reverse=True)
    p = Partition([a + 2, a + 1, a] + tail)
    c = classify(p)
    if c.kind in PENT_KINDS:
        assert make_pentagonal(c.kind, c.h) == p
    else:
        assert c.h >= 3


def test_pentagonal_constructors_are_the_unique_class_members():
    for kind in PENT_KINDS:
        for h in range(2 if kind == GEN_PENTAGONAL_DOMINO else 3, 7):
            p = make_pentagonal(kind, h)
            c = classify(p)
            assert (c.kind, c.h) == (kind, h)


def test_enumerate_bars_examples():
    ae, ao, be, bo = enumerate_bars(21, 3)
    assert [list(x) for x in ae] == [[7, 6, 5, 3]]
    assert [list(x) for x in bo] == [[8, 7, 6]]
    ae, ao, be, bo = enumerate_bars(18, 3)
    assert [list(x) for x in ao] == [[6, 5, 4, 3]]
    assert [list(x) for x in be] == [[7, 6, 5]]
    assert all(s == [] for s in enumerate_bars(17, 3))


def test_bar_emptiness_bounds():
    # A_e and B_o are in bijection, so they share the threshold (3h^2+5h)/2;
    # likewise A_o and B_e share 3h(h+1)/2.  (A published bound gives B_o a
    # larger threshold, contradicting its own smallest member; DEVIATIONS.md.)
    for h in (3, 4, 5):
        lo_ae = (3 * h * h + 5 * h) // 2
        lo_ao = 3 * h * (h + 1) // 2
        for n in range(6, lo_ae):
            assert enumerate_family(n, Family(BAR_AE, h)) == []
            assert enumerate_family(n, Family(BAR_BO, h)) == []
        for n in range(6, lo_ao):
            assert enumerate_family(n, Family(BAR_AO, h)) == []
            assert enumerate_family(n, Family(BAR_BE, h)) == []
        # the thresholds are attained
        assert enumerate_family(lo_ae, Family(BAR_AE, h)) != []
        assert enumerate_family(lo_ae, Family(BAR_BO, h)) != []
        assert enumerate_family(lo_ao, Family(BAR_AO, h)) != []
        assert enumerate_family(lo_ao, Family(BAR_BE, h)) != []


def test_bar_cardinalities_swap():
    for n in range(6, 61):
        for h in range(3, 7):
            ae, ao, be, bo = enumerate_bars(n, h)
            assert len(ae) == len(bo)
            assert len(ao) == len(be)


def test_parity_relation_examples():
    assert parity_relation(18).relation == EQUAL
    w = parity_relation(12)
    assert w.relation == EVEN_PLUS_ONE and w.t == 2
    w = parity_relation(9)
    assert w.relation == EVEN_MINUS_ONE and w.t == 2
    with pytest.raises(ValueError):
        parity_relation(5)


def test_parity_relation_agrees_with_enumeration():
    for n in range(6, 81):
        assert parity_relation_holds(n), n


def test_parity_refined_examples():
    cc = parity_refined_counts(18)
    assert cc.s == 2 and cc.s_e == 1 and cc.s == 2 * cc.s_e
    cc = parity_refined_counts(12)
    assert cc.s == 1 and cc.s == 2 * cc.s_e - 1
    cc = parity_refined_counts(9)
    assert cc.o_dprime == cc.e_dprime + 1
    assert cc.relations_hold


def test_parity_refined_relations_hold():
    for n in range(6, 61):
        assert parity_refined_counts(n).relations_hold, n


def test_enumerate_bars_equals_the_four_bar_families():
    for n in range(6, 71):
        for h in range(3, 7):
            assert enumerate_bars(n, h) == tuple(
                enumerate_family(n, Family(kind, h)) for kind in (BAR_AE, BAR_AO, BAR_BE, BAR_BO))
    with pytest.raises(ValueError):
        enumerate_bars(5, 3)
    with pytest.raises(ValueError):
        enumerate_bars(20, 2)


def test_parity_counts_equal_the_enumerated_families():
    # parity_relation_holds (the CLI's "agrees_with_enumeration") compares
    # count_family counts, which come from a DP; they must be the listing sizes
    from butterflyseq.families import BUTTERFLY_EVEN, BUTTERFLY_ODD, count_family
    for n in range(6, 61):
        for kind in (BUTTERFLY_EVEN, BUTTERFLY_ODD):
            f = Family(kind)
            assert count_family(n, f) == len(enumerate_family(n, f)), (n, kind)


def test_parity_refined_counts_list_nothing(monkeypatch):
    """The equal-triple and staircase counts come from their counted tables:
    with the listers refused, the relations still hold, also at n = 500,
    above the listing budget."""
    from butterflyseq import families

    def refuse(*args, **kwargs):
        raise AssertionError("reached a lister")

    for name in ("iter_head_tail_tuples", "_iter_staircase", "enumerate_family"):
        monkeypatch.setattr(families, name, refuse)
    for n in (6, 9, 26, 40, 61, 500):
        assert parity_refined_counts(n).relations_hold, n


@pytest.mark.parametrize("kind, h, message", [
    ("nosuch", 2, "unknown pentagonal kind 'nosuch'"),
    ("nosuch", 5, "unknown pentagonal kind 'nosuch'"),
])
def test_make_pentagonal_refusals_are_pinned(kind, h, message):
    with pytest.raises(ValueError) as exc:
        make_pentagonal(kind, h)
    assert str(exc.value) == message


def test_classify_refusal_is_pinned():
    with pytest.raises(ValueError) as exc:
        classify(P([5, 4, 2]))
    assert type(exc.value) is ValueError
    assert str(exc.value) == "not a butterfly partition: 5+4+2"


# the paper's closed forms, as printed, of the parity-exception inputs
PRINTED_FORMS = {
    "gen_pentagonal_plus_two": lambda t: (3 * t * t + t + 4) // 2,
    "pentagonal": lambda t: (3 * (t + 1) ** 2 - t - 1) // 2,
    "pentagonal_plus_two": lambda t: (3 * (t + 1) ** 2 - t + 3) // 2,
    "gen_pentagonal": lambda t: (3 * (t + 1) ** 2 + t + 1) // 2,
}


def test_shape_table_gives_the_printed_closed_forms():
    """Each shape's size at h = t + h_minus_t is its printed closed form,
    for t = 2..60, and so is the size of make_pentagonal's shape at that h;
    at t = 1 make_pentagonal refuses."""
    assert list(EXCEPTION_FORMS) == list(PRINTED_FORMS) == list(PENTAGONAL_SHAPES)
    for form, printed in PRINTED_FORMS.items():
        shape = PENTAGONAL_SHAPES[form]
        for t in range(2, 61):
            h = t + shape.h_minus_t
            assert EXCEPTION_FORMS[form](t) == printed(t), (form, t)
            assert make_pentagonal(shape.kind, h).n == printed(t), (form, t)
        with pytest.raises(ValueError):
            make_pentagonal(shape.kind, 1 + shape.h_minus_t)


def test_shape_sign_is_plus_one_exactly_on_an_even_second_part():
    for form, shape in PENTAGONAL_SHAPES.items():
        assert EXCEPTION_SIGNS[form] == shape.sign in (1, -1)
        for h in range(2 + shape.h_minus_t, 40):
            second = make_pentagonal(shape.kind, h)[1]
            assert (shape.sign == 1) == (second % 2 == 0), (form, h)


def test_pentagonal_butterflies_carry_the_signed_sum_delta():
    """Franklin's pattern: over the butterflies of n that classify calls
    pentagonal, +1 for an even second part and -1 for an odd one sum to
    delta(n), the sign of the closed form n matches (0 if none), for every
    6 <= n <= 90 (15,903 butterflies)."""
    listed = 0
    for n in range(6, 91):
        signed = 0
        for parts in family_tuples(n, Family(BUTTERFLY)):
            listed += 1
            if classify(P(parts)).kind in PENT_KINDS:
                signed += 1 if parts[1] % 2 == 0 else -1
        form = exception_form_of(n)
        assert signed == (EXCEPTION_SIGNS[form[0]] if form else 0), n
    assert listed == 15903
