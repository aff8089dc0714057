"""The value types are named tuples: fields, defaults, repr, immutability, checks."""
import pytest

from hexdomino.correspondences import SingleStripTiling, SingleTile, Thm2Report
from hexdomino.enumerator import CrossingDescriptor
from hexdomino.identities import (
    GroupCheck,
    IdentityDescriptor,
    IdentityRecord,
    OracleOutcome,
    VerificationReport,
)
from hexdomino.strip_model import Tile, Tiling


def square(n):
    return n * n


# (type, fields in order, defaults, one instance's field values)
CONTRACTS = [
    (Tile, ("location", "kind"), {}, (4, "H")),
    (Tiling, ("length", "tiles"), {}, (2, (Tile(1, "S"), Tile(2, "S")))),
    (CrossingDescriptor, ("kind", "sub"), {"sub": None}, ("low-horizontal", "square")),
    (SingleTile, ("location", "kind"), {}, (2, "D")),
    (SingleStripTiling, ("length", "tiles"), {}, (2, (SingleTile(2, "D"),))),
    (Thm2Report,
     ("n", "inputs", "outputs", "expected_total", "by_length", "missing", "duplicated"), {},
     (6, 15, 30, 30, {6: 29, 1: 1}, (), ())),
    (OracleOutcome, ("total", "groups"), {"groups": None}, (7, {"absent": 7})),
    (IdentityDescriptor,
     ("id", "statement", "n_lo", "provenance", "strip_length", "lhs", "rhs", "oracle",
      "partition_expected"),
     {"partition_expected": None},
     ("sq", "n^2 = n^2", 0, "paper-stated", square, square, square, OracleOutcome, None)),
    (GroupCheck, ("key", "expected", "observed"), {}, ("2", 3, 3)),
    (IdentityRecord, ("id", "n", "lhs", "rhs", "mode", "oracle_total", "groups"),
     {"oracle_total": None, "groups": None},
     ("thm1", 4, 15, 15, "oracle", 15, (GroupCheck("square", 8, 8),))),
    (VerificationReport, ("id", "mode", "records"), {},
     ("thm1", "closed", (IdentityRecord("thm1", 4, 15, 15, "closed"),))),
]


@pytest.mark.parametrize("cls, fields, defaults, values", CONTRACTS,
                         ids=[c[0].__name__ for c in CONTRACTS])
def test_value_type_contract(cls, fields, defaults, values):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    value = cls(*values)
    assert cls(**dict(zip(fields, values))) == value
    required = len(fields) - len(defaults)
    assert cls(*values[:required])[required:] == tuple(defaults.values())
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={field!r}" for name, field in zip(fields, values)) + ")"
    # a named tuple: equal to the plain tuple of its fields, unpacks, has a len
    assert value == values and len(value) == len(fields) and (*value,) == values
    assert value._replace() == value
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    # only Tile keeps an instance dict, for its cached token and cells
    assert hasattr(value, "__dict__") == (cls is Tile)


BAD_TILES = [
    (Tile, (1, "X"), "unknown tile kind 'X'"),
    (Tile, (1, "I"), "I tile location must be >= 2, got 1"),
    (Tile, (2, "H"), "H tile location must be >= 3, got 2"),
    (Tile, (0, "S"), "S tile location must be >= 1, got 0"),
    (SingleTile, (1, "X"), "unknown single-strip tile kind 'X'"),
    (SingleTile, (1, "D"), "D tile location must be >= 2, got 1"),
    (SingleTile, (0, "S"), "S tile location must be >= 1, got 0"),
]


@pytest.mark.parametrize("cls, fields, message", BAD_TILES)
def test_tiles_reject_a_bad_kind_or_location_on_every_path(cls, fields, message):
    location, kind = fields
    good = cls(4, "S")
    # one field replaced: a bad kind on a good tile, a bad location on a tile of its kind
    if "unknown" in message:
        start, change = good, {"kind": kind}
    else:
        start, change = cls(4, kind), {"location": location}
    for build in (
        lambda: cls(location, kind),
        lambda: cls(location=location, kind=kind),
        lambda: cls._make(fields),
        lambda: good._replace(location=location, kind=kind),
        lambda: start._replace(**change),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    assert good._replace(location=5) == cls(5, "S")
    assert cls._make((5, "S")) == cls(5, "S") and type(cls._make((5, "S"))) is cls
