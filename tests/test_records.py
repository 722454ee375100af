"""The record classes' value semantics: construction, equality, hashing, immutability.

Every field a record compares takes part in equality and the hash; a label
or a trace (`PcPresentation.name`, `MultiplierResult.trace`, `H2Result.stats`)
takes part in neither, so the presentation memos serve equal presentations
under any name.  The nine immutable records refuse assignment to any field.
"""

import pytest

from multlab.abelian import AbelianGroup
from multlab.bounds import KIND_EXACT, Fact, Provenance
from multlab.cayley import CayleyTable
from multlab.entries import CatalogEntry, Expect
from multlab.oracle import EliminationStats, H2Result
from multlab.pcgroup import PcPresentation
from multlab.report import Report, emit_report, parse_report_jsonl
from multlab.results import METHOD_ORACLE, METHOD_TAILS, MultiplierResult

C3 = AbelianGroup(3, (1,))

# (class, every field by keyword, a compared field and another value for it,
#  the uncompared field and another value for it, or None)
IMMUTABLE = [
    (AbelianGroup, dict(p=3, exponents=(1, 2)), ("exponents", (1, 1)), None),
    (MultiplierResult, dict(p=3, invariants=C3, method=METHOD_TAILS, trace=("a",)),
     ("method", METHOD_ORACLE), ("trace", ("b",))),
    (PcPresentation, dict(p=2, names=("a", "b"), orders=(2, 2), powers=((), ()),
                          comms=(), name="C2xC2"),
     ("powers", (((1, 1),), ())), ("name", "V4")),
    (CayleyTable, dict(table=((0, 1), (1, 0))),
     ("table", ((0, 1, 2), (1, 2, 0), (2, 0, 1))), None),
    (Expect, dict(kind="t", value="6", source="Theorem 6"), ("value", "5"), None),
    (CatalogEntry, dict(entry_id="G", constraint="odd", statements=((1, ("gens", "a")),),
                        factors=(), alias_of=None, expects=(), squeeze_script=None,
                        disabled_reason=None),
     ("constraint", "two"), None),
    (Provenance, dict(tag="rule", detail="squeeze", premises=(1, 2), citation=None),
     ("premises", (1, 3)), None),
    (Fact, dict(fact_id=1, subject="G", kind=KIND_EXACT, p=3, exponent=2, structure=None,
                provenance=Provenance("computed", "tails")),
     ("exponent", 3), None),
    (H2Result, dict(modulus=9, invariants=C3, stats=EliminationStats(1, 2, 3)),
     ("modulus", 27), ("stats", EliminationStats(4, 5, 6))),
]


@pytest.mark.parametrize("cls,fields,compared,uncompared", IMMUTABLE,
                         ids=[case[0].__name__ for case in IMMUTABLE])
def test_immutable_record_semantics(cls, fields, compared, uncompared):
    a, b = cls(**fields), cls(**fields)
    assert a == b and hash(a) == hash(b)
    assert a != object()

    name, other = compared
    assert cls(**{**fields, name: other}) != a

    if uncompared is not None:
        name, other = uncompared
        c = cls(**{**fields, name: other})
        assert getattr(c, name) == other
        assert c == a and hash(c) == hash(a)

    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and hash(a) == hash(b)


def test_records_of_other_classes_are_unequal():
    # equal field values in a different record class are not equal
    assert Provenance("computed") != Expect("computed", "", "")
    assert AbelianGroup(3, (1,)) != (3, (1,))


def test_defaults_are_as_declared():
    assert Fact(1, "G", KIND_EXACT, 3, exponent=2).provenance == Provenance("computed")
    assert H2Result(9, C3).stats == EliminationStats(0, 0, 0)
    assert H2Result(9, C3).stats is not H2Result(9, C3).stats
    r, s = (Report("G", 3, 4, "tails", ["p"], 2, "PASS") for _ in range(2))
    assert r.assumed == r.trace == [] and r.millis == 0
    r.trace.append("x")
    assert s.trace == [] and r.assumed is not s.assumed


def test_reports_round_trip_through_jsonl():
    reports = [
        Report("T6_ii", 3, 8, "tails", ["p", "p^2"], 6, "PASS",
               trace=["tails: M(G) = [p,p^2]"], millis=12),
        Report("T6_xix", 2, 7, "-", [], None, "DISABLED", trace=["disabled: open"]),
    ]
    assert parse_report_jsonl(emit_report(reports, "jsonl")) == reports
    changed = parse_report_jsonl(emit_report(reports, "jsonl"))
    changed[0].millis = 13
    assert changed != reports
