import functools
import re

import pytest

from butterflyseq import families
from butterflyseq import partitions as pt
from butterflyseq.families import (
    BAR_AE, BAR_AO, BAR_BE, BAR_BO, BUTTERFLY, BUTTERFLY_EVEN, BUTTERFLY_ODD,
    BAR_KINDS, BUTTERFLY_PLUS_ONES, CONSEC, CONSEC_ISOLATED, CONSEC_NO_ONE,
    CONSEC_WITH_ONE, DISTINCT_NOT_POW2, EQUAL_TRIPLE, ODD_GE, ODD_STEP1,
    ODD_STEP1_SWITCHED, ODD_STEP2, ODD_STEP2_SWITCHED, STAIRCASE_321,
    STAIRCASE_33, STRICT,
    BY_H, CATALOGUE, Family, count_family, count_table, enumerate_family, family_tuples,
    in_family,
)
from butterflyseq.partitions import (
    EnumerationLimitError, Partition, count_butterfly, count_strict_table, iter_partition_tuples)
from butterflyseq.sequences import named_sequence
from butterflyseq.splitmerge import STANDARD, SWITCHED, count_capped

P = Partition

# every kind of the catalogue as its CLI aliases name it: odd_ge at b = 1, 3
# and 5, and each bar set at h = 3, 4 and 5
ALL_FAMILIES = [fam for kind, row in CATALOGUE.items() for param in row.aliases.values()
                for fam in ([Family(kind, h) for h in (3, 4, 5)] if param is BY_H
                            else [Family(kind, param)])]


def lists(n, fam):
    return [list(p) for p in enumerate_family(n, fam)]


@functools.cache
def partitions_of(n):
    """Every partition of n, lexicographically decreasing, from the
    brute-force lister: built once per n and shared by the oracle tests."""
    return tuple(map(P, iter_partition_tuples(n)))


def test_membership_examples():
    assert in_family(P([4, 3, 2]), Family(BUTTERFLY))
    assert in_family(P([]), Family(STRICT))
    assert not in_family(P([5, 4, 2]), Family(BUTTERFLY))
    assert in_family(P([6, 5, 4, 3]), Family(BUTTERFLY_ODD))
    assert not in_family(P([6, 5, 4, 3]), Family(BUTTERFLY_EVEN))


def test_enumerate_examples():
    assert lists(5, Family(STRICT)) == [[5], [4, 1], [3, 2]]
    assert lists(9, Family(BUTTERFLY)) == [[4, 3, 2]]
    assert lists(18, Family(BUTTERFLY)) == [[7, 6, 5], [6, 5, 4, 3]]
    assert lists(0, Family(STRICT)) == [[]]


def test_count_examples():
    assert count_family(18, Family(BUTTERFLY)) == 2
    assert count_family(9, Family(CONSEC_NO_ONE)) == 2
    assert lists(9, Family(CONSEC_NO_ONE)) == [[5, 4], [4, 3, 2]]
    assert count_family(6, Family(ODD_GE, 3)) == 1


def test_single_part_partitions_are_not_consecutive_pairs():
    assert not in_family(P([7]), Family(CONSEC))
    assert in_family(P([2, 1]), Family(CONSEC))
    assert in_family(P([2, 1]), Family(CONSEC_WITH_ONE))


@pytest.mark.parametrize("n", range(3, 45))
def test_refinements_partition_the_consecutive_family(n):
    r = count_family(n, Family(CONSEC))
    r1 = count_family(n, Family(CONSEC_NO_ONE))
    r2 = count_family(n, Family(CONSEC_WITH_ONE))
    assert r1 + r2 == r
    if n >= 4:
        assert count_family(n - 1, Family(CONSEC_NO_ONE)) == r2
    if n >= 5:
        assert (count_family(n, Family(CONSEC_ISOLATED))
                + count_family(n, Family(BUTTERFLY))
                == r1)


@pytest.mark.parametrize("n", range(0, 40))
def test_strict_equals_odd_parts(n):
    assert count_family(n, Family(STRICT)) == count_family(n, Family(ODD_GE, 1))


@pytest.mark.parametrize("n", range(4, 45))
def test_consecutive_family_equals_power_free_strict(n):
    assert (count_family(n, Family(CONSEC))
            == count_family(n, Family(DISTINCT_NOT_POW2)))


def test_pow2_free_membership_equals_the_part_set_definition():
    """in_family for distinct_not_pow2 tests each part for a power of two; on
    every strict partition with n <= 30 it agrees with the definition by part
    sets, every part among pow2_free_parts(largest part)."""
    from butterflyseq.families import pow2_free_parts
    fam = Family(DISTINCT_NOT_POW2)
    members = 0
    for n in range(31):
        for p in enumerate_family(n, Family(STRICT)):
            want = set(p.parts) <= set(pow2_free_parts(p.max_part()))
            assert in_family(p, fam) == want, p
            members += want
    assert members == sum(count_family(n, fam) for n in range(31))


def test_family_str():
    assert str(Family(ODD_GE, 3)) == "odd_ge(3)"
    assert str(Family(BUTTERFLY)) == "butterfly"


@pytest.mark.parametrize("kind,param", [tuple(fam) for fam in ALL_FAMILIES])
def test_enumeration_is_sound_and_complete(kind, param):
    """For every kind of the catalogue (odd_ge at b = 1, 3, 5, the bar sets
    at h = 3..5) and n <= 30, the listing is the partitions of n kept by
    in_family, in their order, so every listed member passes in_family, and
    count_family is its length."""
    fam = Family(kind, param)
    for n in range(31):
        want = [p.parts for p in partitions_of(n) if in_family(p, fam)]
        assert family_tuples(n, fam) == want, n
        assert count_family(n, fam) == len(want), n


def test_equal_triple_excludes_the_all_twos_case():
    # [2,2,2] reverses to a partition with a part 1, so it is not counted
    assert not in_family(P([2, 2, 2]), Family(EQUAL_TRIPLE))
    assert count_family(6, Family(EQUAL_TRIPLE)) == 0


def test_staircase_examples():
    assert lists(9, Family(STAIRCASE_33)) == [[3, 3, 3]]
    assert lists(9, Family(STAIRCASE_321)) == [[3, 3, 2, 1]]
    assert lists(18, Family(STAIRCASE_33)) == [[4, 4, 4, 3, 3], [3, 3, 3, 3, 3, 3]]
    assert count_family(16, Family(STAIRCASE_321)) == 0


def test_butterfly_plus_ones_counts_three_term_sums():
    # for n >= 9 the number equals t(n) = s(n) + s(n-1) + s(n-2)
    from butterflyseq.partitions import count_butterfly
    for n in range(44, 8, -1):
        want = count_butterfly(n) + count_butterfly(n - 1) + count_butterfly(n - 2)
        assert count_family(n, Family(BUTTERFLY_PLUS_ONES)) == want
        assert want == count_family(n, Family(ODD_GE, 5))
    # and genuinely fails below 9 (the odd-ge-5 identity needs the shift)
    assert count_family(5, Family(BUTTERFLY_PLUS_ONES)) != count_family(5, Family(ODD_GE, 5))


def test_butterfly_counts_past_the_recursion_limit():
    # one value of the stored packed table, so n = 5000 answers in-process,
    # equal to the table count_table builds apart from the store
    want = count_table(5000, Family(BUTTERFLY))
    assert count_family(5000, Family(BUTTERFLY)) == want[5000] == count_butterfly(5000) > 0
    assert count_family(4999, Family(BUTTERFLY)) == want[4999]


def test_enumeration_limit_guard():
    # s(201) = 1,708,866 butterflies: above the listing budget
    with pytest.raises(EnumerationLimitError, match="%d to list" % count_butterfly(201)):
        enumerate_family(201, Family(BUTTERFLY))
    # the budget guards listing, and count_family lists nothing
    assert count_family(201, Family(ODD_STEP1)) == count_table(201, Family(BUTTERFLY), 0)[201] > 0
    assert count_family(500, Family(STRICT)) == count_strict_table(500)[500] > 0
    assert count_family(250, Family(BUTTERFLY_EVEN)) == count_butterfly(250, 0)


# the kinds listed from a fixed head-and-tail row whose members are strict
# (all but the equal triples and the butterflies plus ones)
HEAD_TAIL_KINDS = [kind for kind, row in CATALOGUE.items() if isinstance(row.head_tail, tuple)
                   and kind not in (EQUAL_TRIPLE, BUTTERFLY_PLUS_ONES)]


def test_head_and_tail_listings_equal_the_filtered_candidates():
    """The families listed by one head-and-tail shape equal their candidates
    filtered by the membership predicate, for n <= 60: the strict partitions
    of n, or for the equal triples (a, a) over a strict partition of n - 2a
    with largest part a."""
    from butterflyseq.partitions import iter_strict_tuples
    for n in range(61):
        strict = list(iter_strict_tuples(n))
        for kind in HEAD_TAIL_KINDS:
            want = [t for t in strict if in_family(P(t), Family(kind))]
            assert [p.parts for p in enumerate_family(n, Family(kind))] == want, (kind, n)
        triples = sorted(((a, a) + t for a in range(1, n // 3 + 1)
                          for t in iter_strict_tuples(n - 2 * a, a) if t and t[0] == a),
                         reverse=True)
        want = [t for t in triples if in_family(P(t), Family(EQUAL_TRIPLE))]
        assert [p.parts for p in enumerate_family(n, Family(EQUAL_TRIPLE))] == want, n


ODD_STEP_KINDS = (ODD_STEP1, ODD_STEP2, ODD_STEP1_SWITCHED, ODD_STEP2_SWITCHED)


def test_bar_sets_generated_from_shape_equal_the_filtered_butterflies():
    """The bar families, generated from their shapes, equal the butterflies of
    n kept by the shape predicates and split on the parity of the second
    part, for n <= 120 and h = 3..6; count_table and count_family, one
    packed table per end of a bar set's row, count each listing."""
    from butterflyseq.families import _in_bar_a, _in_bar_b
    from butterflyseq.partitions import iter_butterfly_tuples
    tables = {(kind, h): count_table(120, Family(kind, h))
              for kind in BAR_KINDS for h in range(3, 7)}
    for n in range(121):
        butterflies = list(iter_butterfly_tuples(n))
        for h in range(3, 7):
            want = ([], [], [], [])
            for t in butterflies:
                if _in_bar_a(t, h):
                    want[t[1] % 2].append(t)
                if _in_bar_b(t, h):
                    want[2 + t[1] % 2].append(t)
            for kind, parts in zip(BAR_KINDS, want):
                fam = Family(kind, h)
                got = [p.parts for p in enumerate_family(n, fam)]
                assert got == parts, (kind, h, n)
                assert tables[kind, h][n] == count_family(n, fam) == len(got), (kind, h, n)


def test_odd_step_forms_generated_from_head_and_tail_equal_the_filtered_odd_parts():
    """The capped odd-step forms, specials included, equal the partitions into
    odd parts >= 3 kept by the membership predicate, for n <= 70."""
    from butterflyseq.families import _iter_odd_parts
    for n in range(71):
        odd = [P(t) for t in _iter_odd_parts(n, 3)]
        for kind in ODD_STEP_KINDS:
            fam = Family(kind)
            want = [p for p in odd if in_family(p, fam)]
            assert enumerate_family(n, fam) == want, (kind, n)
    assert [list(p) for p in enumerate_family(9, Family(ODD_STEP2))] == [[3, 3, 3]]
    assert [list(p) for p in enumerate_family(12, Family(ODD_STEP1_SWITCHED))] == [[3, 3, 3, 3]]
    assert [5, 3, 3, 3] in lists(14, Family(ODD_STEP1_SWITCHED))


def test_odd_and_pow2_free_listers_equal_the_filtered_partitions():
    """The odd-part lister equals the all-odd members of the unrestricted
    lister iter_partition_tuples (bounds 1, 3, 5, n <= 45), and the pool
    lister over pow2_free_parts(n) its strict members without a power of two
    (n <= 50; 1 and 2 are powers of two, so the parts start at 3), in its
    order."""
    from butterflyseq.families import _iter_odd_parts, pow2_free_parts
    from butterflyseq.partitions import is_strict_tuple, iter_partition_tuples, pool_tuples
    for n in range(46):
        for bound in (1, 3, 5):
            want = [t for t in iter_partition_tuples(n, None, bound) if all(x % 2 for x in t)]
            assert list(_iter_odd_parts(n, bound)) == want, (n, bound)
    for n in range(51):
        allowed = pow2_free_parts(n)
        want = [t for t in iter_partition_tuples(n, None, 3)
                if is_strict_tuple(t) and set(t) <= set(allowed)]
        assert pool_tuples(allowed, [(n, None, ())]) == want, n


def test_every_listed_member_is_a_partition_of_ints():
    """enumerate_family wraps the tuples of family_tuples, each checked there
    once: every member of every family for n <= 30 is a Partition of int
    parts, equal to the Partition that __init__ builds from the same parts,
    and its parts are the family's tuple in the same place."""
    for n in range(31):
        for fam in ALL_FAMILIES:
            members = enumerate_family(n, fam)
            assert [p.parts for p in members] == family_tuples(n, fam)
            for p in members:
                assert type(p) is Partition and all(type(x) is int for x in p.parts)
                assert p == Partition(p.parts) and str(p) == str(Partition(p.parts))


def test_no_listing_outlives_its_call():
    """A listing leaves no reference cycle behind: with the cyclic collector
    off, nothing is left for gc.collect() after listing each CLI family and
    each bar kind at n = 30..40 through both listers, after one bijection
    range of each kind, and after each count of the capped odd forms.  One
    collection per group of calls finds what any call of the group left."""
    import gc

    from butterflyseq import bijections, cli, splitmerge
    families = list(cli.FAMILY_ALIASES.values()) + [
        Family(kind, 3) for kind in cli.BAR_ALIASES.values()]
    groups = [(("listing", fam), [(lister, n, fam) for n in range(30, 41)
                                  for lister in (enumerate_family, family_tuples)])
              for fam in families]
    groups += [(("bij", kind), [(bijections.verify_bijection, kind, 6, 30)])
               for kind in ("raise", "butterfly", "bar")]
    groups += [(("count_capped", n, variant), [(splitmerge.count_capped, n, variant)])
               for n in (30, 40) for variant in (splitmerge.STANDARD, splitmerge.SWITCHED)]
    gc.collect()
    gc.disable()
    try:
        for group, calls in groups:
            for fn, *args in calls:
                fn(*args)
            assert gc.collect() == 0, group
    finally:
        gc.enable()


def test_every_listing_but_the_staircases_goes_through_the_pool_lister(monkeypatch):
    """partitions.pool_tuples is the one filler of the catalogue listings:
    wrapped in a call counter wherever the package holds it, it is reached
    by listing every family at n = 62 and 67, where each has members, except
    the two staircases, which _iter_staircase lists."""
    import sys
    from butterflyseq import partitions
    calls = []
    original = partitions.pool_tuples

    def counted(*args):
        calls.append(args)
        return original(*args)

    holders = [m for name, m in sys.modules.items() if name.startswith("butterflyseq")
               and getattr(m, "pool_tuples", None) is original]
    assert partitions in holders
    for module in holders:
        monkeypatch.setattr(module, "pool_tuples", counted)
    missed = []
    for fam in ALL_FAMILIES:
        for n in (62, 67):
            del calls[:]
            assert enumerate_family(n, fam), (fam, n)
            if not calls:
                missed.append(fam.kind)
    assert set(missed) == {STAIRCASE_321, STAIRCASE_33}


def test_consec_with_one_generated_equals_the_filtered_consecutive_pairs():
    """r2, generated as the r1 shape at n - 1 with a part 1 appended (and
    (2, 1) at n = 3), equals the consecutive-pair listing kept where the
    smallest part is 1, for n <= 70."""
    for n in range(71):
        want = [p for p in enumerate_family(n, Family(CONSEC)) if p.parts[-1] == 1]
        assert enumerate_family(n, Family(CONSEC_WITH_ONE)) == want, n
    assert lists(3, Family(CONSEC_WITH_ONE)) == [[2, 1]]


def test_staircases_are_the_conjugates_of_equal_triples_and_butterflies():
    """Conjugation sends STAIRCASE_33 onto EQUAL_TRIPLE and STAIRCASE_321 onto
    BUTTERFLY, turning the number of parts into the largest part; so the
    staircase tables are e'' = e, o'' = o, e' = s_o and o' = s_e."""
    def conjugate(parts):
        return tuple(sum(1 for x in parts if x > i) for i in range(parts[0])) if parts else ()

    for n in range(61):
        for staircase, image in ((STAIRCASE_33, EQUAL_TRIPLE), (STAIRCASE_321, BUTTERFLY)):
            listed = enumerate_family(n, Family(staircase))
            conjugates = [conjugate(p.parts) for p in listed]
            assert all(c[0] == len(p) for c, p in zip(conjugates, listed))
            assert sorted(conjugates) == sorted(
                p.parts for p in enumerate_family(n, Family(image))), (n, staircase)
    for staircase, image in (("e_dprime", "e"), ("o_dprime", "o"),
                             ("e_prime", "s_o"), ("o_prime", "s_e")):
        assert named_sequence(staircase, 60).values == named_sequence(image, 60).values


def test_odd_parts_count_equals_the_listing_for_every_bound():
    """Odd parts >= b for b = -1..7: the count, the listing and the
    unrestricted partitions kept by the definition agree for n <= 30, so an
    even or nonpositive b counts the odd parts >= max(b, 1) | 1."""
    for n in range(31):
        for b in range(-1, 8):
            fam = Family(ODD_GE, b)
            want = [p.parts for p in partitions_of(n)
                    if all(x % 2 == 1 and x >= b for x in p.parts)]
            assert family_tuples(n, fam) == want, (b, n)
            assert count_family(n, fam) == len(want), (b, n)


def test_rows_with_ends_count_their_listings():
    """count_table and count_family, one packed table per end of a row, equal
    the listing lengths of r2 and the butterflies plus ones for n <= 120
    (the bar sets' counts are checked with their listings above); each
    family is listed once per n."""
    N = 120
    families = [Family(CONSEC_WITH_ONE), Family(BUTTERFLY_PLUS_ONES)]
    tables = {f: count_table(N, f) for f in families}
    for n in range(N + 1):
        for f in families:
            assert tables[f][n] == count_family(n, f) == len(family_tuples(n, f)), (f, n)


def test_rows_are_counted_without_listing(monkeypatch):
    """count_family answers the bar sets, the butterflies plus ones and the
    odd-step forms above the listing budget, with every lister refused: at
    n = 250 the bar sets swap the parity of the second part in pairs
    (|A_e| = |B_o|, |A_o| = |B_e|) and the butterflies plus ones are the
    partitions into odd parts >= 5; at n = 201 and 250 the step-1 forms
    number s_e(n) and the step-2 forms s_o(n), read off the butterfly table
    and equal to count_butterfly's."""
    from butterflyseq import families, splitmerge
    from butterflyseq import partitions as pt

    def refuse(*args, **kwargs):
        raise AssertionError("listed")

    for name in ("iter_head_tail_tuples", "iter_strict_tuples", "iter_butterfly_tuples",
                 "pool_tuples", "_iter_staircase", "_iter_odd_parts", "iter_form_tuples"):
        for module in (families, pt, splitmerge):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    ae, ao, be, bo = (count_family(250, Family(kind, 3)) for kind in BAR_KINDS)
    assert ae == bo > 0 and ao == be > 0
    assert count_family(250, Family(BUTTERFLY_PLUS_ONES)) == count_family(250, Family(ODD_GE, 5))
    for n in (201, 250):
        for kind, parity in zip(ODD_STEP_KINDS, (0, 1, 0, 1)):
            want = count_table(n, Family(BUTTERFLY), parity)[n]
            assert count_family(n, Family(kind)) == want == count_butterfly(n, parity) > 0, (kind, n)


def test_bar_sets_below_size_three_are_empty():
    """h = 0..2 has no bar sets: their rows have no ends, so they list
    nothing and count 0 (the shape of h = 2 alone would count members)."""
    for h in range(3):
        for kind in BAR_KINDS:
            fam = Family(kind, h)
            assert count_table(60, fam) == [0] * 61, fam
            for n in range(61):
                assert family_tuples(n, fam) == [] and count_family(n, fam) == 0, (fam, n)


def test_a_bar_set_has_no_member_below_its_least_n(monkeypatch):
    """A bar set of size h has no member below 3h(h+1)/2, so at h = 40 and
    n <= 200 every bar kind counts zeros and lists nothing without reaching
    the head-and-tail table or listing, whose shape alone takes O(h)."""
    def refuse(*args, **kwargs):
        raise AssertionError("reached the head-and-tail kernel")

    monkeypatch.setattr(pt, "count_head_tail_table", refuse)
    for module in (pt, families):
        monkeypatch.setattr(module, "iter_head_tail_tuples", refuse)
    for kind in BAR_KINDS:
        fam = Family(kind, 40)
        assert count_table(200, fam) == [0] * 201, fam
        for n in range(201):
            assert family_tuples(n, fam) == [] and count_family(n, fam) == 0, (fam, n)


@pytest.mark.parametrize("h", range(3, 8))
def test_a_bar_set_starts_at_its_least_n(h):
    """3h(h+1)/2 is the least n exactly: A's least member is the head
    (2h, ..., h + 1) over the part h, of odd second part, and B's is the head
    (2h + 1, ..., h + 2), of even second part; nothing lies below them."""
    least = 3 * h * (h + 1) // 2
    heads = {BAR_AO: tuple(range(2 * h, h, -1)) + (h,), BAR_BE: tuple(range(2 * h + 1, h + 1, -1))}
    for kind in BAR_KINDS:
        fam = Family(kind, h)
        assert count_table(least - 1, fam) == [0] * least, fam
        assert family_tuples(least, fam) == ([heads[kind]] if kind in heads else []), fam
        assert count_family(least, fam) == (kind in heads), fam


@pytest.mark.parametrize("variant, forms", [(STANDARD, (ODD_STEP1, ODD_STEP2)),
                                            (SWITCHED, (ODD_STEP1_SWITCHED, ODD_STEP2_SWITCHED))],
                         ids=[STANDARD, SWITCHED])
def test_odd_step_forms_are_counted_by_the_merging_and_splitting_theorem(variant, forms):
    """count_family counts the step-1 forms as s_e(n) and the step-2 forms as
    s_o(n); splitmerge.count_capped, which lists the forms, is the oracle of
    those counts for n <= 80."""
    for n in range(81):
        assert tuple(count_family(n, Family(kind)) for kind in forms) == count_capped(n, variant), n


@pytest.mark.parametrize("n, fam", [(70, Family(BUTTERFLY)), (70, Family(ODD_GE, 5)),
                                    (80, Family(BAR_AE, 3))], ids=str)
def test_listing_is_served_at_the_budget_and_refused_above_it(monkeypatch, n, fam):
    """Above FITS_BUDGET_N a listing is counted first: with the budget at its
    count it is served, one below it refused, naming the count."""
    from butterflyseq import partitions
    assert n > partitions.FITS_BUDGET_N
    count = count_family(n, fam)
    monkeypatch.setattr(partitions, "LISTING_BUDGET", count)
    assert len(family_tuples(n, fam)) == count > 0
    monkeypatch.setattr(partitions, "LISTING_BUDGET", count - 1)
    with pytest.raises(EnumerationLimitError,
                       match=re.escape("%s at n=%d: %d to list" % (fam, n, count))):
        family_tuples(n, fam)


def test_count_table_refuses_a_kind_without_a_head_and_tail_row():
    """count_table counts the head-and-tail rows and the staircases; any
    other kind is a ValueError that names it."""
    uncounted = {fam.kind for fam in ALL_FAMILIES if CATALOGUE[fam.kind].head_tail is None
                 and CATALOGUE[fam.kind].conjugate is None}
    assert uncounted == {STRICT, ODD_GE, ODD_STEP1, ODD_STEP2, ODD_STEP1_SWITCHED,
                         ODD_STEP2_SWITCHED, DISTINCT_NOT_POW2}
    for fam in ALL_FAMILIES:
        if fam.kind in uncounted:
            with pytest.raises(ValueError, match=fam.kind):
                count_table(10, fam)


def test_unknown_kind_is_refused_by_every_lookup():
    fam = Family("nope")
    for lookup in (lambda: in_family(P([3]), fam), lambda: family_tuples(3, fam),
                   lambda: count_family(3, fam)):
        with pytest.raises(ValueError, match="unknown family"):
            lookup()


def test_catalogue_has_one_row_per_kind_and_an_alias_for_each(capsys):
    """Every kind constant of families has one catalogue row; each row is
    listed either from its head-and-tail row or by its lister, is counted,
    and is reached from a CLI alias; enum's unknown-family message keeps its
    alias list."""
    from butterflyseq import cli, families
    kinds = [value for name, value in vars(families).items()
             if name.isupper() and isinstance(value, str)]
    assert sorted(kinds) == sorted(CATALOGUE)
    for kind, row in CATALOGUE.items():
        assert (row.head_tail is None) != (row.lister is None), kind
        assert row.counter or row.head_tail or row.conjugate, kind
    reached = {fam.kind for fam in cli.FAMILY_ALIASES.values()} | set(cli.BAR_ALIASES.values())
    assert reached == set(CATALOGUE)
    assert cli.main(["enum", "nope", "9"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown family 'nope' (choose from butterfly, butterfly-even, butterfly-odd, "
        "butterfly-plus-ones, consec, distinct-not-pow2, equal-triple, odd-ge-1, odd-ge-3, "
        "odd-ge-5, odd-step1, odd-step1-switched, odd-step2, odd-step2-switched, r1, r1-prime, "
        "r2, staircase-321, staircase-33, strict, bar-ae, bar-ao, bar-be, bar-bo)\n")
