"""Record semantics of the two per-request/per-batch hot records.

``Request`` and ``BatchRecord`` are built once per simulated request
and once per batch, so they are plain slots dataclasses rather than
frozen ones (a frozen dataclass pays one ``object.__setattr__`` per
field).  These tests pin everything the frozen classes gave and the
rest of the code relies on: field names and order, construction,
pickling, class-bound equality and tuple-compatible hashing.  That
no engine mutates a request is pinned by the differential test
(``test_serving_differential.py``).
"""

from __future__ import annotations

import pickle
from dataclasses import astuple, fields

import pytest

from repro.serving import BatchRecord, Request

RECORDS = {
    Request: (("request_id", "model", "arrival", "region"),
              (7, "resnet18", 0.25, "eu")),
    BatchRecord: (("model", "size", "replica", "flush", "start", "done",
                   "energy"),
                  ("vgg16", 4, 1, 0.5, 0.625, 0.75, 1.5e-3)),
}
CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _build(cls):
    return cls(*RECORDS[cls][1])


@CASES
def test_field_names_and_order(cls):
    assert tuple(f.name for f in fields(cls)) == RECORDS[cls][0]


@CASES
def test_positional_and_keyword_construction_agree(cls):
    names, values = RECORDS[cls]
    record = _build(cls)
    assert record == cls(**dict(zip(names, values)))
    assert astuple(record) == values
    assert all(getattr(record, name) == value
               for name, value in zip(names, values))


def test_request_region_defaults_to_empty():
    assert Request(0, "resnet18", 0.0) == Request(0, "resnet18", 0.0, "")


@CASES
def test_repr_is_the_dataclass_repr(cls):
    names, values = RECORDS[cls]
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(_build(cls)) == f"{cls.__name__}({body})"


@CASES
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, protocol):
    record = _build(cls)
    back = pickle.loads(pickle.dumps(record, protocol=protocol))
    assert type(back) is cls
    assert back == record
    assert astuple(back) == astuple(record)


@CASES
def test_equality_is_bound_to_the_class(cls):
    record = _build(cls)
    values = RECORDS[cls][1]
    assert record == _build(cls)
    assert record != values
    assert values != record
    assert record != list(values)
    other = cls(*values[:-1], values[-1] * 2)
    assert record != other


@CASES
def test_hash_is_the_hash_of_the_field_tuple(cls):
    record = _build(cls)
    assert hash(record) == hash(RECORDS[cls][1])
    assert hash(record) == hash(_build(cls))
    assert len({record, _build(cls)}) == 1


@CASES
def test_slots_leave_no_instance_dict(cls):
    record = _build(cls)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.not_a_field = 1
