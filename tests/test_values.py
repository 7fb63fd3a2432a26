"""The package's eight value classes: frozen, compared and hashed by their
fields (``ExactState`` by identity), printed in ``Name(field=value, ...)``
form.

Freezing is what keeps a checked value checked: a constructor validates its
fields once, and nothing can change them afterwards.  The caches keyed by
these values (``extract_transfer_map`` by assignment, ``PUBLISHED.state``
and the float table by record) rely on the hash agreeing with equality.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import replace_field
from teleportsim.analytic import PUBLISHED, PublishedPolynomialTable
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.cli import SweepConfig
from teleportsim.exact import ExactState, PolyP, extract_transfer_map
from teleportsim.teleport import CorrectionAssignment, InputState
from teleportsim.verify import TargetStatus, VerificationReport, VerificationTarget

_SMALL_TABLE = [PolyP([k]) for k in range(8)]
_ENTRIES = np.array([[PolyP.ONE, PolyP.ZERO], [PolyP.ZERO, PolyP.ZERO]], dtype=object)
_TARGET = ("t", TargetStatus.MISMATCH, "1", "p", ((1, "0", "1"),))

#: class -> (constructor arguments, its fields, its pinned repr)
VALUES = {
    ChannelSpec: (
        (NoiseKind.BIT_FLIP, 0.3),
        ("kind", "p"),
        "ChannelSpec(kind=<NoiseKind.BIT_FLIP: 'bitflip'>, p=0.3)",
    ),
    InputState: ((0.6, 0.8j), ("alpha", "beta"), "InputState(alpha=0.6, beta=0.8j)"),
    CorrectionAssignment: (
        (1, 2),
        ("x_source", "z_source"),
        "CorrectionAssignment(x_source=1, z_source=2)",
    ),
    ExactState: (
        (_ENTRIES,),
        ("entries",),
        "ExactState(entries=array([[<PolyP 1>, <PolyP 0>],\n"
        "       [<PolyP 0>, <PolyP 0>]], dtype=object))",
    ),
    PublishedPolynomialTable: (
        _SMALL_TABLE,
        ("u1", "u2", "u3", "u4", "u5", "u6", "q9", "q12"),
        "PublishedPolynomialTable(u1=<PolyP 0>, u2=<PolyP 1>, u3=<PolyP 2>, u4=<PolyP 3>, "
        "u5=<PolyP 4>, u6=<PolyP 5>, q9=<PolyP 6>, q12=<PolyP 7>)",
    ),
    VerificationTarget: (
        _TARGET,
        ("name", "status", "expected", "derived", "coefficient_diffs"),
        "VerificationTarget(name='t', status=<TargetStatus.MISMATCH: 'Mismatch'>, "
        "expected='1', derived='p', coefficient_diffs=((1, '0', '1'),))",
    ),
    VerificationReport: (
        ((), ("a note",)),
        ("targets", "notes"),
        "VerificationReport(targets=(), notes=('a note',))",
    ),
    SweepConfig: (
        (NoiseKind.PHASE_FLIP, (InputState(1, 0),), 0.0, 0.5, 3, ("numeric",)),
        ("kind", "states", "p_start", "p_end", "steps", "columns"),
        "SweepConfig(kind=<NoiseKind.PHASE_FLIP: 'phaseflip'>, "
        "states=(InputState(alpha=1, beta=0),), p_start=0.0, p_end=0.5, steps=3, "
        "columns=('numeric',))",
    ),
}
CLASSES = list(VALUES)
BY_VALUE = [cls for cls in CLASSES if cls is not ExactState]


def _make(cls):
    return cls(*VALUES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    value = _make(cls)
    for name in VALUES[cls][1]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr(cls):
    assert repr(_make(cls)) == VALUES[cls][2]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_keyword_arguments(cls):
    args, names, _ = VALUES[cls]
    value = cls(**dict(zip(names, args)))
    assert [getattr(value, name) for name in names] == list(args)


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_equal_fields_are_equal_and_hash_equal(cls):
    a, b = _make(cls), _make(cls)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_another_class_is_never_equal(cls):
    # a subclass with the same fields, and values of other types, compare
    # unequal without raising
    subclass = type("Sub", (cls,), {"__slots__": ()})
    value = _make(cls)
    assert value != subclass(*VALUES[cls][0])
    assert value != VALUES[cls][0] and value != object()


def test_exact_state_compares_by_identity():
    a, b = ExactState(_ENTRIES), ExactState(_ENTRIES)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_sweep_config_equality_ignores_chunks():
    a, b = _make(SweepConfig), _make(SweepConfig)
    assert [chunk.p for chunk in a.chunks] == [(0.0, 0.25, 0.5)]
    object.__setattr__(b, "chunks", ())
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "chunks" not in repr(a)


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda kind: kind.value)
def test_equal_assignments_share_the_cached_map(kind):
    first = extract_transfer_map(kind, CorrectionAssignment(1, 2))
    assert extract_transfer_map(kind, CorrectionAssignment(x_source=1, z_source=2)) is first


def test_equal_tables_hash_equal():
    rebuilt = replace_field(PUBLISHED)
    assert rebuilt is not PUBLISHED
    assert rebuilt == PUBLISHED and hash(rebuilt) == hash(PUBLISHED)
    for kind in NoiseKind:
        assert rebuilt.state(kind) == PUBLISHED.state(kind)


@pytest.mark.parametrize("field", VALUES[PublishedPolynomialTable][1])
def test_every_table_field_moves_the_hash(field):
    poly = getattr(PUBLISHED, field)
    changed = replace_field(PUBLISHED, **{field: poly + PolyP([Fraction(1, 3)])})
    assert changed != PUBLISHED
    assert hash(changed) != hash(PUBLISHED)
