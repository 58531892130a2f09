"""Unit tests for SAN places, extended places, sharing, and markings."""

import pytest

from repro.errors import ModelError, SimulationError
from repro.san import ExtendedPlace, Marking, Place, share
from repro.san.places import capturing_writes, tracking_reads, write_epoch


class TestPlace:
    def test_initial_marking(self):
        assert Place("p", initial=3).tokens == 3

    def test_defaults_to_empty(self):
        assert Place("p").tokens == 0
        assert Place("p").is_empty()

    def test_add_remove(self):
        p = Place("p")
        p.add()
        p.add(2)
        assert p.tokens == 3
        p.remove(2)
        assert p.tokens == 1

    def test_negative_marking_rejected(self):
        p = Place("p", initial=1)
        with pytest.raises(SimulationError):
            p.remove(2)

    def test_direct_negative_assignment_rejected(self):
        p = Place("p")
        with pytest.raises(SimulationError):
            p.tokens = -1

    def test_negative_initial_rejected(self):
        with pytest.raises(ModelError):
            Place("p", initial=-1)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Place("")

    def test_reset_restores_initial(self):
        p = Place("p", initial=2)
        p.add(5)
        p.reset()
        assert p.tokens == 2

    def test_snapshot_is_value_copy(self):
        p = Place("p", initial=1)
        snap = p.snapshot()
        p.add()
        assert snap == 1


class TestExtendedPlace:
    def test_holds_structured_value(self):
        slot = ExtendedPlace("slot", {"load": 0, "status": "INACTIVE"})
        slot.value["load"] = 7
        assert slot.value["load"] == 7

    def test_reset_deep_copies_initial(self):
        slot = ExtendedPlace("slot", {"nested": [1, 2]})
        slot.value["nested"].append(3)
        slot.reset()
        assert slot.value == {"nested": [1, 2]}

    def test_initial_is_isolated_from_mutation(self):
        # Mutating the live value must never corrupt the stored initial.
        slot = ExtendedPlace("slot", {"n": 0})
        slot.value["n"] = 99
        assert slot.initial == {"n": 0}

    def test_snapshot_is_deep_copy(self):
        slot = ExtendedPlace("slot", {"xs": [1]})
        snap = slot.snapshot()
        slot.value["xs"].append(2)
        assert snap == {"xs": [1]}

    def test_none_value_allowed(self):
        # The Workload place is None when empty.
        wl = ExtendedPlace("Workload", None)
        assert wl.value is None
        wl.value = {"load": 5}
        wl.reset()
        assert wl.value is None


class TestPeek:
    def test_records_the_cell_under_a_read_sink(self):
        slot = ExtendedPlace("slot", {"status": "READY"})
        with tracking_reads(set()) as reads:
            slot.peek()
        assert reads == {slot._cell}

    def test_is_not_a_write_outside_a_read_sink(self):
        slot = ExtendedPlace("slot", {"status": "READY"})
        before = write_epoch()
        with capturing_writes(set()) as written:
            slot.peek()
        assert write_epoch() == before
        assert written == set()

    def test_value_read_outside_a_sink_is_a_write(self):
        # The contrast peek() exists for: .value hands out a mutable
        # reference, so it conservatively counts as a write.
        slot = ExtendedPlace("slot", {"status": "READY"})
        before = write_epoch()
        with capturing_writes(set()) as written:
            slot.value
        assert write_epoch() == before + 1
        assert written == {slot._cell}

    def test_returns_the_live_value(self):
        slot = ExtendedPlace("slot", {"status": "READY"})
        slot.value["status"] = "BUSY"
        assert slot.peek() is slot.value
        assert slot.peek()["status"] == "BUSY"

    def test_sees_the_shared_cell(self):
        a = ExtendedPlace("a", None)
        b = ExtendedPlace("b", None)
        share([a, b])
        a.value = {"load": 3}
        assert b.peek() == {"load": 3}


class TestShare:
    def test_shared_places_see_each_other(self):
        a, b = Place("a", 0), Place("b", 0)
        share([a, b])
        a.add(3)
        assert b.tokens == 3
        b.remove(1)
        assert a.tokens == 2

    def test_shares_cell_with(self):
        a, b, c = Place("a"), Place("b"), Place("c")
        share([a, b])
        assert a.shares_cell_with(b)
        assert not a.shares_cell_with(c)

    def test_share_three_way(self):
        places = [Place(f"p{i}") for i in range(3)]
        share(places)
        places[2].add(5)
        assert all(p.tokens == 5 for p in places)

    def test_transitive_share(self):
        a, b, c = Place("a"), Place("b"), Place("c")
        share([a, b])
        share([b, c])
        a.add()
        assert c.tokens == 1

    def test_extended_places_share(self):
        x = ExtendedPlace("x", {"n": 0})
        y = ExtendedPlace("y", {"n": 0})
        share([x, y])
        x.value["n"] = 4
        assert y.value["n"] == 4

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ModelError):
            share([Place("a"), ExtendedPlace("b", 0)])

    def test_mismatched_initials_rejected(self):
        with pytest.raises(ModelError):
            share([Place("a", 0), Place("b", 1)])

    def test_mismatched_extended_initials_rejected(self):
        with pytest.raises(ModelError):
            share([ExtendedPlace("a", {"n": 0}), ExtendedPlace("b", {"n": 1})])

    def test_single_member_rejected(self):
        with pytest.raises(ModelError):
            share([Place("a")])

    def test_reset_of_shared_places_is_consistent(self):
        a, b = Place("a", 2), Place("b", 2)
        share([a, b])
        a.add(10)
        a.reset()
        assert b.tokens == 2


class TestMarking:
    def test_reads_token_counts_and_values(self):
        m = Marking({"p": Place("p", 3), "slot": ExtendedPlace("slot", {"n": 1})})
        assert m["p"] == 3
        assert m["slot"] == {"n": 1}

    def test_get_with_default(self):
        m = Marking({"p": Place("p")})
        assert m.get("missing", "dflt") == "dflt"

    def test_contains_and_names(self):
        m = Marking({"b": Place("b"), "a": Place("a")})
        assert "a" in m
        assert "zz" not in m
        assert m.names() == ["a", "b"]

    def test_snapshot_isolated(self):
        slot = ExtendedPlace("slot", {"xs": []})
        m = Marking({"slot": slot})
        snap = m.snapshot()
        slot.value["xs"].append(1)
        assert snap["slot"] == {"xs": []}
