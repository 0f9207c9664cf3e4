"""The result records are named tuples: the validated ones check their
fields however they are built, and every one is immutable and pickles."""

import pickle

import pytest

from cycloschur.abacus import BetaConfig, ChargedHooks, charged_hooks_abacus, multi_beta
from cycloschur.partitions import parse_multipartition
from cycloschur.scanning import scan
from cycloschur.schur import CycloSpec, RootOfUnity, schur_factors
from cycloschur.weights import core

MP = parse_multipartition("2.1|1")


def records():
    report = scan(2, 3, 2, (0, 1))
    return [
        multi_beta(MP, (0, 1)),
        charged_hooks_abacus(multi_beta(MP, (0, 1))),
        schur_factors(MP),
        RootOfUnity(12, 4),
        CycloSpec(2, (0, 1), 1, RootOfUnity(12, 4)),
        core(MP, (0, 1), 2),
        report.blocks[0],
        report,
    ]


RUNNERS = ((2, 0, -2), (1, -1, -2))

BAD = [
    # (record, positional arguments, what the message says)
    (BetaConfig, (RUNNERS, (0, 0), 0), "window m must be positive"),
    (BetaConfig, (RUNNERS, (0,), 3), "one runner per charge"),
    (BetaConfig, ((), (), 3), "at least one component"),
    (BetaConfig, (((2, -2),), (0,), 3), "expected 3 beads"),
    (BetaConfig, (((0, 2, -2),), (0,), 3), "strictly decrease"),
    (BetaConfig, (((2, 0, -1),), (0,), 3), "last bead"),
    (RootOfUnity, (0, 1), "ambient order"),
    (CycloSpec, (0, (), 1, RootOfUnity(12, 4)), "level"),
    (CycloSpec, (2, (0,), 1, RootOfUnity(12, 4)), "one charge per component"),
    (CycloSpec, (2, (0, 1), 0, RootOfUnity(12, 4)), "q-exponent"),
    (CycloSpec, (2, (0, 1), 1, RootOfUnity(9, 4)), "divide the ambient"),
    (CycloSpec, (2, (0, 1), 1, RootOfUnity(12, 4), (0,)), "one twist exponent"),
]


def test_valid_fields_build_a_record():
    assert BetaConfig(RUNNERS, (0, 0), 3).level == 2


@pytest.mark.parametrize("cls, args, message", BAD)
def test_bad_fields_raise_however_the_record_is_built(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)
    with pytest.raises(ValueError, match=message):
        cls(**dict(zip(cls._fields, args)))
    with pytest.raises(ValueError, match=message):
        cls._make(args)


def test_replace_checks_the_new_fields():
    good = BetaConfig(RUNNERS, (0, 0), 3)
    with pytest.raises(ValueError, match="window m"):
        good._replace(m=0)
    spec = CycloSpec(2, (0, 1), 1, RootOfUnity(12, 4))
    with pytest.raises(ValueError, match="q-exponent"):
        spec._replace(q_exp=0)
    assert RootOfUnity(12, 4)._replace(exponent=15) == RootOfUnity(12, 3)


def test_root_of_unity_reduces_its_exponent():
    for root in (RootOfUnity(12, 16), RootOfUnity(ambient=12, exponent=-8)):
        assert root.exponent == 4
        assert root == (12, 4)
        assert root.element_order == 3


def test_cyclo_spec_fills_the_default_twist():
    eta = RootOfUnity(12, 4)
    assert CycloSpec(3, (0, 0, 1), 1, eta).twist == (0, 1, 2)
    assert CycloSpec(level=3, charges=(0, 0, 1), q_exp=1, eta=eta).twist == (0, 1, 2)
    assert CycloSpec(3, (0, 0, 1), 1, eta, (0, 0, 0)).twist == (0, 0, 0)


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen_and_pickle(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    again = pickle.loads(pickle.dumps(record))
    assert again == record and type(again) is type(record)
    assert tuple(again) == tuple(record)
    assert again._asdict() == record._asdict()


def test_charged_hooks_keep_their_multiset_membership():
    hooks = ChargedHooks(((-1, 2), (3, 1)))
    assert 3 in hooks and -1 in hooks and 0 not in hooks
    assert str(hooks) == "-1^2 3^1"
