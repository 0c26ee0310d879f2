"""Tests for trace serialization."""

from __future__ import annotations

import json
from types import MappingProxyType

import pytest

from repro.events import EventKind
from repro.trace import (
    BoolVar,
    TraceFormatError,
    UnitWalkVar,
    computation_from_dict,
    computation_to_dict,
    dump_computation,
    load_computation,
    random_computation,
)


class TestRoundTrip:
    def test_dict_round_trip(self, figure2):
        data = computation_to_dict(figure2)
        rebuilt = computation_from_dict(data)
        assert computation_to_dict(rebuilt) == data

    def test_labels_preserved(self, figure2):
        rebuilt = computation_from_dict(computation_to_dict(figure2))
        assert rebuilt.label_index() == figure2.label_index()

    def test_file_round_trip(self, tmp_path, figure2):
        path = tmp_path / "trace.json"
        dump_computation(figure2, path)
        rebuilt = load_computation(path)
        assert computation_to_dict(rebuilt) == computation_to_dict(figure2)

    def test_random_traces_round_trip(self, tmp_path):
        for seed in range(5):
            comp = random_computation(
                3, 6, 0.5, seed=seed,
                variables=[BoolVar("x"), UnitWalkVar("v")],
            )
            path = tmp_path / f"trace{seed}.json"
            dump_computation(comp, path)
            rebuilt = load_computation(path)
            assert computation_to_dict(rebuilt) == computation_to_dict(comp)

    def test_semantics_preserved(self, tmp_path):
        from repro.detection import possibly
        from repro.predicates import conjunctive, local

        comp = random_computation(
            3, 5, 0.5, seed=11, variables=[BoolVar("x", 0.4)]
        )
        path = tmp_path / "trace.json"
        dump_computation(comp, path)
        rebuilt = load_computation(path)
        pred = conjunctive(local(0, "x"), local(1, "x"), local(2, "x"))
        assert possibly(comp, pred) == possibly(rebuilt, pred)


class TestFormat:
    def test_format_tag_written(self, figure2):
        assert computation_to_dict(figure2)["format"] == "repro-trace-v1"

    def test_unknown_format_rejected(self, figure2):
        data = computation_to_dict(figure2)
        data["format"] = "other"
        with pytest.raises(ValueError):
            computation_from_dict(data)

    def test_file_is_valid_json(self, tmp_path, figure2):
        path = tmp_path / "trace.json"
        dump_computation(figure2, path)
        parsed = json.loads(path.read_text())
        assert "processes" in parsed and "messages" in parsed

    def test_malformed_messages_caught_by_validation(self, figure2):
        from repro.computation import ComputationError

        data = computation_to_dict(figure2)
        data["messages"] = [[[0, 1], [1, 1]]]  # internal events messaging
        with pytest.raises(ComputationError):
            computation_from_dict(data)


KINDS = "['initial', 'internal', 'receive', 'send', 'send_receive']"


def _payload():
    """A two-process trace with one message, as json.loads returns it."""
    return {
        "format": "repro-trace-v1",
        "processes": [
            [
                {"kind": "initial", "values": {"x": 1}},
                {"kind": "send", "values": {"x": 2}, "label": "a"},
            ],
            [{"kind": "initial"}, {"kind": "receive", "values": {}}],
        ],
        "messages": [[[0, 1], [1, 1]]],
    }


def _set(path, value):
    """A payload with the entry at ``path`` (keys/indices) replaced."""
    data = _payload()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


class TestLoaderGuards:
    """The loader's exact-type fast paths accept and reject exactly what
    the ``Mapping``/``Sequence`` checks do, with the same messages."""

    def _same_trace(self, data):
        comp = computation_from_dict(data)
        assert computation_to_dict(comp) == computation_to_dict(
            computation_from_dict(_payload())
        )

    def test_tuple_processes_messages_and_endpoints(self):
        data = _payload()
        data["processes"] = tuple(tuple(recs) for recs in data["processes"])
        data["messages"] = tuple(
            (tuple(send), tuple(recv)) for send, recv in data["messages"]
        )
        self._same_trace(data)

    def test_mapping_proxy_records_and_values(self):
        data = _payload()
        data["processes"] = [
            [
                MappingProxyType(
                    {
                        **record,
                        "values": MappingProxyType(record.get("values", {})),
                    }
                )
                for record in records
            ]
            for records in data["processes"]
        ]
        self._same_trace(MappingProxyType(data))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("processes",), "ab",
             "'processes' must be a list of per-process event lists, got str"),
            (("processes",), b"ab",
             "'processes' must be a list of per-process event lists, got bytes"),
            (("processes",), True,
             "'processes' must be a list of per-process event lists, got bool"),
            (("processes", 0), "ab", "process 0: events must be a list, got str"),
            (("processes", 0), b"ab",
             "process 0: events must be a list, got bytes"),
            (("processes", 0), False,
             "process 0: events must be a list, got bool"),
            (("processes", 0, 1), "ab",
             "process 0, event 1: expected an object, got str"),
            (("processes", 0, 1), True,
             "process 0, event 1: expected an object, got bool"),
            (("processes", 0, 1, "values"), b"ab",
             "process 0, event 1: 'values' must be an object, got bytes"),
            (("processes", 0, 1, "label"), True,
             "process 0, event 1: 'label' must be a string, got True"),
            (("messages",), "ab", "'messages' must be a list, got str"),
            (("messages",), True, "'messages' must be a list, got bool"),
            (("messages", 0), b"ab",
             "message 0 must be a [send, receive] pair, got b'ab'"),
            (("messages", 0, 0), "ab",
             "message 0 send endpoint must be a [process, index] pair, "
             "got 'ab'"),
            (("messages", 0, 1, 0), True,
             "message 0 receive endpoint components must be integers, "
             "got [True, 1]"),
            (("messages", 0, 0, 1), 1.0,
             "message 0 send endpoint components must be integers, "
             "got [0, 1.0]"),
            (("meta",), "ab", "'meta' must be an object, got str"),
            (("processes", 0, 1, "kind"), ["send"],
             f"process 0, event 1: unknown event kind ['send'] "
             f"(expected one of {KINDS})"),
            (("processes", 0, 1, "kind"), None,
             f"process 0, event 1: unknown event kind None "
             f"(expected one of {KINDS})"),
            (("processes", 0, 1, "kind"), 1,
             f"process 0, event 1: unknown event kind 1 "
             f"(expected one of {KINDS})"),
            (("processes", 0, 1, "kind"), "SEND",
             f"process 0, event 1: unknown event kind 'SEND' "
             f"(expected one of {KINDS})"),
        ],
    )
    def test_malformed_shapes_keep_their_messages(self, path, value, message):
        with pytest.raises(TraceFormatError) as info:
            computation_from_dict(_set(path, value), source="t.json")
        assert str(info.value) == f"t.json: {message}"

    def test_enum_member_kind_still_accepted(self):
        data = _set(("processes", 0, 1, "kind"), EventKind.SEND)
        self._same_trace(data)
