import pytest
from hypothesis import given, settings, strategies as st

from butterflyseq import bijections
from butterflyseq.bijections import (
    BijectionError,
    BijectionReport,
    bar_backward,
    bar_forward,
    butterfly_backward,
    butterfly_forward,
    lower_largest,
    raise_largest,
    verify_bijection,
)
from butterflyseq.families import (
    BAR_AE, BAR_AO, BAR_BE, BAR_BO, BUTTERFLY, CONSEC, CONSEC_ISOLATED, CONSEC_WITH_ONE,
    STRICT, Family, count_family, enumerate_family,
)
from butterflyseq.partitions import EnumerationLimitError, Partition

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


def listing_target_report(kind, lo, hi, h=3):
    """The verifier with every target family listed, kept as the reference
    for the one that counts its targets."""
    failures, checked = [], 0
    for n in range(lo, hi + 1):
        if kind == "raise":
            source = [p for p in enumerate_family(n - 1, Family(STRICT)) if len(p)]
            target = [p for p in enumerate_family(n, Family(STRICT))
                      if len(p) and (len(p) < 2 or p[0] - p[1] >= 2)]
            fwd, back, image_family = raise_largest, lower_largest, lambda p: target
        elif kind == "butterfly":
            source = enumerate_family(n - 1, Family(CONSEC_WITH_ONE))
            target = enumerate_family(n, Family(CONSEC_ISOLATED))
            fwd, back, image_family = butterfly_forward, butterfly_backward, lambda p: target
        else:
            ae, ao, be, bo = (enumerate_family(n, Family(k, h))
                              for k in (BAR_AE, BAR_AO, BAR_BE, BAR_BO))
            source, target = ae + ao, be + bo
            fwd, back = (lambda p: bar_forward(p, h)), (lambda p: bar_backward(p, h))
            # the image swaps the parity of the second-largest part
            image_family = lambda p: bo if p in ae else be
            if len(ae) != len(bo) or len(ao) != len(be):
                failures.append((n, "parity-swapped cardinalities differ"))
        images = []
        for p in source:
            img = fwd(p)
            checked += 1
            if img not in image_family(p):
                failures.append((n, "image %s of %s outside the target family" % (img, p)))
            if back(img) != p:
                failures.append((n, "backward did not recover %s" % p))
            images.append(img)
        if len(set(images)) != len(images):
            failures.append((n, "forward map is not injective"))
        if len(source) != len(target):
            failures.append((n, "count mismatch: %d sources vs %d targets"
                             % (len(source), len(target))))
    return BijectionReport(kind, (lo, hi), checked, checked > 0 and not failures,
                           tuple(failures))


@pytest.mark.parametrize("kind, lo, hi, h", [
    ("raise", 2, 40, 3),
    ("butterfly", 6, 40, 3),
    ("bar", 6, 60, 3),
    ("bar", 6, 60, 4),
])
def test_counted_targets_agree_with_listed_targets(kind, lo, hi, h):
    assert verify_bijection(kind, lo, hi, h) == listing_target_report(kind, lo, hi, h)


# one example lists a whole A(n, h) half, up to 2,561 partitions, so the
# per-example time follows the host's speed rather than a fixed deadline
@settings(deadline=None)
@given(st.integers(min_value=9, max_value=120), st.integers(min_value=3, max_value=6),
       st.sampled_from([BAR_AE, BAR_AO]))
def test_bar_round_trip_over_generated_a_sets(n, h, kind):
    for p in enumerate_family(n, Family(kind, h)):
        assert bar_backward(bar_forward(p, h), h) == p


def test_target_counts_come_from_one_table_per_call(monkeypatch):
    """The raise and butterfly targets are read from one head-and-tail table
    per call, never from the memoised per-n count_head_tail."""
    from butterflyseq.families import CONSEC
    real, tables = bijections.count_table, []

    def counted(N, f, parity=None):
        tables.append((N, f))
        return real(N, f, parity)

    def refuse(*args):
        raise AssertionError("reached count_head_tail")

    monkeypatch.setattr(bijections, "count_table", counted)
    monkeypatch.setattr(bijections.pt, "count_head_tail", refuse)
    assert verify_bijection("raise", 2, 24).passed
    assert verify_bijection("butterfly", 6, 30).passed
    assert tables == [(24, Family(CONSEC)),
                      (30, Family(CONSEC_WITH_ONE)), (30, Family(CONSEC_ISOLATED))]


@pytest.mark.parametrize("kind, lo, hi, sizes", [
    ("raise", 2, 24, lambda n: count_family(n - 1, Family(STRICT))),
    ("butterfly", 6, 30, lambda n: count_family(n - 1, Family(CONSEC_WITH_ONE))),
    ("bar", 6, 30, lambda n: sum(count_family(n, Family(k, 3)) for k in (BAR_AE, BAR_AO)))],
    ids=["raise", "butterfly", "bar"])
def test_range_is_served_at_the_budget_and_refused_above_it(monkeypatch, kind, lo, hi, sizes):
    """A range is counted before its first listing: the sources it lists in
    all (the targets are counted, not listed), here summed n by n, against
    the budget."""
    from butterflyseq import partitions
    total = sum(map(sizes, range(lo, hi + 1)))
    monkeypatch.setattr(partitions, "LISTING_BUDGET", total)
    assert verify_bijection(kind, lo, hi).passed
    monkeypatch.setattr(partitions, "LISTING_BUDGET", total - 1)

    def refuse(*args):
        raise AssertionError("listed")

    monkeypatch.setattr(bijections, "enumerate_family", refuse)
    with pytest.raises(EnumerationLimitError,
                       match="bij %s on n=%d..%d: %d to list" % (kind, lo, hi, total)):
        verify_bijection(kind, lo, hi)


# kind -> its range, its forward and backward maps (names in bijections),
# the first n of the range with two sources, those sources p0 and p1 in
# listing order, and their images under the forward map
FAILURE_RANGES = {
    "raise": (2, 5, "raise_largest", "lower_largest", 4, (3,), (2, 1), (4,), (3, 1)),
    "butterfly": (6, 11, "butterfly_forward", "butterfly_backward", 11,
                  (5, 4, 1), (4, 3, 2, 1), (6, 5), (5, 4, 2)),
    "bar": (24, 27, "bar_forward", "bar_backward", 27,
            (9, 8, 7, 3), (7, 6, 5, 4, 3, 2), (10, 9, 8), (8, 7, 6, 4, 2)),
}


def _override(monkeypatch, name, outcomes):
    """Rebind bijections.<name> so that the partitions in ``outcomes`` map to
    the given parts, or raise the given error; every other one maps as before."""
    real = getattr(bijections, name)

    def patched(p, *h):
        if p.parts not in outcomes:
            return real(p, *h)
        out = outcomes[p.parts]
        if isinstance(out, Exception):
            raise out
        return P(list(out))

    monkeypatch.setattr(bijections, name, patched)


def _shift_counts(monkeypatch, deltas):
    """Rebind bijections.count_table so that each family in ``deltas`` counts
    its given n that many more (or fewer) members."""
    real = bijections.count_table

    def shifted(N, f, parity=None):
        table = real(N, f, parity)
        for n, d in deltas.get(f, {}).items():
            table[n] += d
        return table

    monkeypatch.setattr(bijections, "count_table", shifted)


@pytest.mark.parametrize("kind, case, failures", [
    ("raise", "forward_fails", ((4, "forward failed on 3: refused"),)),
    ("raise", "outside", ((4, "image 3+1+1 of 3 outside the target family"),)),
    ("raise", "backward_wrong", ((4, "backward did not recover 3"),)),
    ("raise", "not_injective", ((4, "backward did not recover 3"),
                                (4, "forward map is not injective"))),
    ("raise", "count", ((4, "count mismatch: 2 sources vs 3 targets"),)),
    ("butterfly", "forward_fails", ((11, "forward failed on 5+4+1: refused"),)),
    ("butterfly", "outside",
     ((11, "image 5+4+1+1+1 of 5+4+1 outside the target family"),)),
    ("butterfly", "backward_wrong", ((11, "backward did not recover 5+4+1"),)),
    ("butterfly", "not_injective", ((11, "backward did not recover 5+4+1"),
                                    (11, "forward map is not injective"))),
    ("butterfly", "count", ((11, "count mismatch: 2 sources vs 3 targets"),)),
    ("bar", "forward_fails", ((27, "forward failed on 9+8+7+3: refused"),)),
    ("bar", "outside", ((27, "image 9+8+7+3+1+1 of 9+8+7+3 outside the target family"),)),
    ("bar", "backward_wrong", ((27, "backward did not recover 9+8+7+3"),)),
    ("bar", "not_injective", ((27, "backward did not recover 9+8+7+3"),
                              (27, "forward map is not injective"))),
    ("bar", "count", ((27, "parity-swapped cardinalities differ"),
                      (27, "count mismatch: 2 sources vs 3 targets"))),
    ("bar", "halves_swapped", ((24, "parity-swapped cardinalities differ"),)),
])
def test_each_failure_is_reported_in_order(monkeypatch, kind, case, failures):
    """Each check of verify_bijection reports its own message, in a fixed
    order, when the maps or the target counts it reads from this module are
    made wrong at one n (n0, whose sources are p0 then p1)."""
    lo, hi, fwd, back, n0, p0, p1, img0, img1 = FAILURE_RANGES[kind]
    total = verify_bijection(kind, lo, hi).checked
    if case == "forward_fails":
        _override(monkeypatch, fwd, {p0: BijectionError("refused")})
    elif case == "outside":  # p0 maps to p0 + 1 + 1, in no target, and back
        _override(monkeypatch, fwd, {p0: p0 + (1, 1)})
        _override(monkeypatch, back, {p0 + (1, 1): p0})
    elif case == "backward_wrong":
        _override(monkeypatch, back, {img0: p1})
    elif case == "not_injective":
        _override(monkeypatch, fwd, {p0: img1})
    elif case == "count":  # one more target at n0; raise counts q minus consec
        target = {"raise": Family(CONSEC), "butterfly": Family(CONSEC_ISOLATED),
                  "bar": Family(BAR_BO, 3)}[kind]
        _shift_counts(monkeypatch, {target: {n0: -1 if kind == "raise" else 1}})
    else:  # B_e and B_o trade their counts at n = 24 (1 and 0)
        _shift_counts(monkeypatch, {Family(BAR_BE, 3): {24: -1}, Family(BAR_BO, 3): {24: 1}})
    rep = verify_bijection(kind, lo, hi)
    assert rep.failures == failures and not rep.passed
    assert rep.checked == total - (case == "forward_fails")


@pytest.mark.parametrize("kind, least", [("raise", 2), ("butterfly", 6), ("bar", 0)])
def test_a_range_below_the_least_n_is_refused_before_counting(monkeypatch, kind, least):
    """verify_bijection refuses a range that starts below its map's least n
    with the CLI's message, before any table is counted or anything listed
    (raise on n = 1..5 used to report a count mismatch at n = 1)."""
    def refuse(*args):
        raise AssertionError("counted or listed")

    for name in ("count_table", "enumerate_family"):
        monkeypatch.setattr(bijections, name, refuse)
    monkeypatch.setattr(bijections.pt, "strict_pentagonal_table", refuse)
    with pytest.raises(ValueError) as exc:
        verify_bijection(kind, least - 1, 8)
    assert str(exc.value) == "bij %s --from must be >= %d, got %d" % (kind, least, least - 1)
