"""Timed logic-edge records of the digital nets."""

import pytest

from repro.sim.events import Edge, EdgeKind


class TestEventAndEdge:
    def test_edge_ordering(self):
        a = Edge(1.0, "x")
        b = Edge(2.0, "x")
        assert a < b

    def test_edge_delayed(self):
        e = Edge(1.0, "n", EdgeKind.RISING).delayed(0.5)
        assert e.time == 1.5
        assert e.kind is EdgeKind.RISING

    def test_edge_delayed_negative_rejected(self):
        with pytest.raises(ValueError):
            Edge(1.0, "n").delayed(-0.1)

    def test_edge_inverted(self):
        e = Edge(1.0, "n", EdgeKind.RISING).inverted()
        assert e.kind is EdgeKind.FALLING
        assert e.is_falling

    def test_edge_kind_levels(self):
        assert EdgeKind.RISING.new_level == 1
        assert EdgeKind.FALLING.new_level == 0
        assert EdgeKind.RISING.opposite() is EdgeKind.FALLING
