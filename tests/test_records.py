"""The record classes' contract: immutable, equal and hashed by their fields,
shown as Name(field=value, ...), and kept by copy and pickle."""

import copy
import pickle

import pytest

from butterflyseq.bijections import BijectionReport
from butterflyseq.families import ODD_GE, Family
from butterflyseq.partitions import Partition
from butterflyseq.pentagonal import (
    EQUAL, PENTAGONAL, ParityRefinedCounts, ParityWitness, PentClass, parity_refined_counts,
)
from butterflyseq.sequences import RECURRENCE, SequenceTable
from butterflyseq.series import IdentityReport, TruncSeries
from butterflyseq.splitmerge import STEP1, MergeCaps, caps_of

# class -> (its fields in order, a maker of one instance, one differing in a field)
RECORDS = {
    Family: (("kind", "param"), lambda: Family(ODD_GE, 3), Family(ODD_GE, 5)),
    PentClass: (("kind", "h"), lambda: PentClass(PENTAGONAL, 4), PentClass(PENTAGONAL, 5)),
    ParityWitness: (("relation", "form", "t"), lambda: ParityWitness(EQUAL, None, None),
                    ParityWitness(EQUAL, None, 2)),
    ParityRefinedCounts: (
        ("n", "s", "s_e", "s_o", "e", "o", "e_prime", "o_prime", "e_dprime", "o_dprime",
         "relation", "relations_hold"),
        lambda: parity_refined_counts(12), parity_refined_counts(13)),
    IdentityReport: (("name", "order", "lo", "mismatches", "note"),
                     lambda: IdentityReport("x", 9, 2, ((3, 1, 2),), "a note"),
                     IdentityReport("x", 9, 2, ((3, 1, 2),))),
    BijectionReport: (("kind", "n_range", "checked", "passed", "failures"),
                      lambda: BijectionReport("raise", (1, 6), 10, True, ()),
                      BijectionReport("raise", (1, 6), 11, True, ())),
    MergeCaps: (("form", "bound", "two_t", "u_by_q", "v", "largest_pows", "checks"),
                lambda: caps_of(Partition([9, 5, 5, 3, 3]), form=STEP1),
                caps_of(Partition([9, 5, 5, 3, 3, 3]), form=STEP1)),
    SequenceTable: (("name", "offset", "values", "provenance"),
                    lambda: SequenceTable("r1", 3, [0, 0, 1], RECURRENCE),
                    SequenceTable("r1", 3, [0, 0, 1])),
    TruncSeries: (("order", "coeffs"), lambda: TruncSeries(2, [1, -1, 0]),
                  TruncSeries(2, [1, -1, 1])),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, make, _ = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b and a == b and not a != b
    assert repr(a) == "%s(%s)" % (
        cls.__name__, ", ".join("%s=%r" % (f, getattr(a, f)) for f in fields))
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
    assert a == b
    if cls is MergeCaps:
        # its dict fields leave it unhashable, as they did the frozen dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_differing_in_one_field_differ(cls):
    _, make, other = RECORDS[cls]
    assert other != make() and not other == make()


def test_slotted_records_equal_no_other_class():
    assert SequenceTable("p", 0, (1, 1)) != ("p", 0, (1, 1), "enumerated")
    assert TruncSeries(1, (1, 1)) != (1, (1, 1))
    assert TruncSeries(1, (1, 1)) != SequenceTable("p", 1, (1, 1))


def test_partition_copies_and_pickles():
    """Partition is immutable through a raising __setattr__, so copy and
    pickle must rebuild it from its parts, not restore its slot."""
    for p in (Partition([]), Partition([3, 1]), Partition([7, 6, 5, 2, 2])):
        for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(other) is Partition and other == p and other.parts == p.parts
