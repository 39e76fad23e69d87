"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    POSITIVE,
    check_choice,
    check_document,
    check_in_range,
    check_non_negative,
    check_positive,
    non_empty,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)


class TestCheckInRange:
    def test_accepts_endpoints(self):
        check_in_range("x", 0.0, 0.0, 1.0)
        check_in_range("x", 1.0, 0.0, 1.0)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.1, 0.0, 1.0)


class TestCheckChoice:
    def test_accepts_member(self):
        check_choice("mode", "a", ("a", "b"))

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="mode"):
            check_choice("mode", "c", ("a", "b"))


ROW = {
    "name": str,
    "speedup": POSITIVE,
    "note?": str,
    "tags": [frozenset({"a", "b"})],
}
SHAPE = {"version": 1, "rows": non_empty({str: ROW})}
GOOD = {"version": 1, "rows": {"x": {"name": "x", "speedup": 2, "tags": []}}}


class TestCheckDocument:
    def test_accepts_and_returns_document(self):
        assert check_document(GOOD, SHAPE, "doc") is GOOD

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"speedup": 2, "tags": []}, "doc.rows.x: missing key 'name'"),
            (
                {"name": 3, "speedup": 2, "tags": []},
                "doc.rows.x.name: expected str, got int",
            ),
            (
                {"name": "x", "speedup": True, "tags": []},
                "doc.rows.x.speedup: expected number, got bool",
            ),
            (
                {"name": "x", "speedup": 0, "tags": []},
                r"doc.rows.x.speedup: expected number > 0, got 0",
            ),
            (
                {"name": "x", "speedup": 1, "note": 5, "tags": []},
                "doc.rows.x.note: expected str, got int",
            ),
            (
                {"name": "x", "speedup": 1, "tags": ["c"]},
                r"doc.rows.x.tags\[0\]: expected one of \['a', 'b'\]",
            ),
        ],
    )
    def test_names_the_failing_path(self, row, message):
        with pytest.raises(ValueError, match=message):
            check_document({"version": 1, "rows": {"x": row}}, SHAPE, "doc")

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"version": 1.0, "rows": {}}, "doc.version: expected 1"),
            ({"version": 1, "rows": {}}, "expected non-empty dict"),
            ({"version": 1, "rows": {3: {}}}, "doc.rows key 3: expected str"),
            ([GOOD], "doc: expected dict, got list"),
        ],
    )
    def test_literals_maps_and_containers(self, document, message):
        with pytest.raises(ValueError, match=message):
            check_document(document, SHAPE, "doc")
