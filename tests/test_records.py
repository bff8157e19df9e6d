"""The package's records, `gale.Record` and its six subclasses: tuples with
named read-only fields whose checking `__new__` is their only constructor."""

import copy
import pickle

import pytest

import momentangle
from momentangle import cli
from momentangle.gale import CyclicParams, Record
from momentangle.hilton import SphereSpectrum
from momentangle.manifold import ConnectedSumSpec, GradedRanks, SphereProduct

# (record, the plain tuple it equals, its repr, the names its repr evaluates in)
RECORDS = [
    (CyclicParams(8, 4), (8, 4), "CyclicParams(n=8, d=4)", vars(momentangle)),
    (SphereSpectrum({5: 16, 9: 120}, 9), ({5: 16, 9: 120}, 9),
     "SphereSpectrum(entries={5: 16, 9: 120}, ceiling=9)", vars(momentangle)),
    (SphereProduct(7, 5), (5, 7), "SphereProduct(m=5, n=7)", vars(momentangle)),
    (ConnectedSumSpec(((1, SphereProduct(5, 7)), (2, SphereProduct(6, 6)))),
     (((1, (5, 7)), (2, (6, 6))),),
     "ConnectedSumSpec(summands=((1, SphereProduct(m=5, n=7)), (2, SphereProduct(m=6, n=6))))",
     vars(momentangle)),
    (GradedRanks({0: 1, 6: 2, 12: 1}, 12), ({0: 1, 6: 2, 12: 1}, 12),
     "GradedRanks(ranks={0: 1, 6: 2, 12: 1}, top=12)", vars(momentangle)),
    (cli._Candidate("1*S6xS6", 12, ((0, 1), (6, 2), (12, 1)), True, 4),
     ("1*S6xS6", 12, ((0, 1), (6, 2), (12, 1)), True, 4),
     "_Candidate(spec='1*S6xS6', top=12, ranks=((0, 1), (6, 2), (12, 1)), poincare=True, "
     "euler=4)", vars(cli)),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]

# Values that the checking `__new__` refuses, made behind its back.
INVALID = [
    (CyclicParams, (8, 1)),
    (SphereProduct, (1, 7)),
    (GradedRanks, ({}, -3)),
    (SphereSpectrum, ({5: 1}, -1)),
    (ConnectedSumSpec, ((),)),
]


@pytest.mark.parametrize("record, plain, text, names", RECORDS, ids=IDS)
class TestRecordParity:
    def test_repr_evaluates_back(self, record, plain, text, names):
        assert repr(record) == text
        again = eval(text, names)
        assert type(again) is type(record) and again == record

    def test_equals_and_hashes_as_the_plain_tuple(self, record, plain, text, names):
        assert record == plain and plain == record and tuple(record) == plain
        try:
            expected = hash(plain)
        except TypeError:  # a dict field: neither side hashes
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_keyword_construction(self, record, plain, text, names):
        fields = dict(zip(type(record)._fields, record))
        assert type(record)(**fields) == record
        assert [getattr(record, name) for name in fields] == list(record)

    def test_fields_are_read_only_and_there_is_no_dict(self, record, plain, text, names):
        assert not hasattr(record, "__dict__")
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_copies_and_pickles_rebuild_through_new(self, record, plain, text, names,
                                                     monkeypatch):
        cls, built = type(record), []
        new = cls.__new__
        monkeypatch.setattr(cls, "__new__", lambda c, *a: built.append(a) or new(c, *a))
        copies = [copy.copy(record), copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        assert len(built) == len(copies)
        for again in copies:
            assert type(again) is cls and again == record


def test_keyword_construction_by_name():
    assert CyclicParams(n=8, d=4) == CyclicParams(8, 4) == (8, 4)
    assert GradedRanks(ranks={0: 1, 5: 0}, top=5) == ({0: 1}, 5)
    assert SphereProduct(n=5, m=7) == (5, 7)
    with pytest.raises(TypeError):
        CyclicParams(8)
    with pytest.raises(TypeError):
        CyclicParams(8, 4, 2)


def test_fields_are_the_parameters_of_new():
    assert CyclicParams._fields == ("n", "d")
    assert cli._Candidate._fields == ("spec", "top", "ranks", "poincare", "euler")
    assert all(issubclass(type(record), Record) for record, *_ in RECORDS)


@pytest.mark.parametrize("cls", sorted({type(r) for r, *_ in RECORDS}, key=lambda c: c.__name__))
def test_no_constructor_skips_the_checks(cls):
    # namedtuple's _replace and _make built values __new__ refuses.
    for name in ("_replace", "_make", "_asdict"):
        assert not hasattr(cls, name)


@pytest.mark.parametrize("cls, values", INVALID, ids=[c.__name__ for c, _ in INVALID])
def test_invalid_values_do_not_survive_a_copy_or_pickle(cls, values):
    with pytest.raises(ValueError):
        cls(*values)
    bad = tuple.__new__(cls, values)
    with pytest.raises(ValueError):
        copy.copy(bad)
    with pytest.raises(ValueError):
        copy.deepcopy(bad)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(bad, protocol))
