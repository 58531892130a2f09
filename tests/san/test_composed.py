"""Unit tests for Join/Replicate composition."""

import pytest

from repro.errors import ModelError
from repro.san import (
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    SharedVariable,
    join,
    replicate,
)


def make_producer(name="producer"):
    """A model whose activity moves a token from 'fuel' to 'out'."""
    m = SANModel(name)
    fuel = m.add_place(Place("fuel", initial=1))
    out = m.add_place(Place("out"))
    m.add_activity(
        InstantaneousActivity(
            "move",
            input_gates=[InputGate("has_fuel", lambda: fuel.tokens > 0, fuel.remove)],
            output_gates=[OutputGate("deposit", out.add)],
        )
    )
    return m


def make_consumer(name="consumer"):
    m = SANModel(name)
    m.add_place(Place("inbox"))
    m.add_place(Place("done"))
    return m


class TestJoin:
    def test_places_are_qualified(self):
        composed = join("sys", {"a": make_producer("producer")})
        assert "a.fuel" in composed.places()
        assert "a.out" in composed.places()

    def test_shared_variable_unifies_cells(self):
        producer = make_producer()
        consumer = make_consumer()
        composed = join(
            "sys",
            {"P": producer, "C": consumer},
            shared=[SharedVariable("channel", [("P", "out"), ("C", "inbox")])],
        )
        producer.place("out").add(2)
        assert consumer.place("inbox").tokens == 2
        assert composed.place("channel").tokens == 2

    def test_gates_observe_shared_state(self):
        # The consumer's gate was built against its own place object; after
        # the join it must see tokens the producer deposits.
        producer = make_producer()
        consumer = make_consumer()
        inbox = consumer.place("inbox")
        done = consumer.place("done")
        consumer.add_activity(
            InstantaneousActivity(
                "consume",
                input_gates=[InputGate("has", lambda: inbox.tokens > 0, inbox.remove)],
                output_gates=[OutputGate("finish", done.add)],
            )
        )
        join(
            "sys",
            {"P": producer, "C": consumer},
            shared=[SharedVariable("channel", [("P", "out"), ("C", "inbox")])],
        )
        producer.place("out").add()
        consume = consumer.activities()[0]
        assert consume.enabled()

    def test_activity_names_qualified_once(self):
        composed = join("sys", {"producer": make_producer("producer")})
        names = [a.qualified_name for a in composed.activities()]
        assert names == ["sys.producer.move"]

    def test_model_registered_under_alias_gets_alias_prefix(self):
        composed = join("sys", {"alias": make_producer("producer")})
        names = [a.qualified_name for a in composed.activities()]
        assert names == ["sys.alias.producer.move"]

    def test_nested_join(self):
        inner = join(
            "inner",
            {"producer": make_producer()},
        )
        outer = join("outer", {"inner": inner})
        assert "inner.producer.fuel" in outer.places()
        assert outer.activities()[0].qualified_name == "outer.inner.producer.move"

    def test_nested_shared_variable_path(self):
        inner = join(
            "inner",
            {"P": make_producer(), "C": make_consumer()},
            shared=[SharedVariable("channel", [("P", "out"), ("C", "inbox")])],
        )
        sink = make_consumer("sink")
        outer = join(
            "outer",
            {"I": inner, "S": sink},
            shared=[SharedVariable("bus", [("I", "channel"), ("S", "inbox")])],
        )
        outer.place("bus").add(4)
        assert inner.place("channel").tokens == 4
        assert sink.place("inbox").tokens == 4

    def test_model_cannot_be_joined_twice(self):
        producer = make_producer()
        join("one", {"P": producer})
        with pytest.raises(ModelError, match="already part"):
            join("two", {"P": producer})

    def test_unknown_submodel_in_shared_rejected(self):
        with pytest.raises(ModelError, match="unknown submodel"):
            join(
                "sys",
                {"P": make_producer()},
                shared=[SharedVariable("x", [("NOPE", "out")])],
            )

    def test_unknown_place_in_shared_rejected(self):
        with pytest.raises(ModelError):
            join(
                "sys",
                {"P": make_producer()},
                shared=[SharedVariable("x", [("P", "missing")])],
            )

    def test_mismatched_initials_in_shared_rejected(self):
        a = SANModel("a")
        a.add_place(Place("p", 0))
        b = SANModel("b")
        b.add_place(Place("p", 1))
        with pytest.raises(ModelError, match="initial markings differ"):
            join("sys", {"a": a, "b": b}, shared=[SharedVariable("p", [("a", "p"), ("b", "p")])])

    def test_reset_restores_shared_places(self):
        producer, consumer = make_producer(), make_consumer()
        composed = join(
            "sys",
            {"P": producer, "C": consumer},
            shared=[SharedVariable("channel", [("P", "out"), ("C", "inbox")])],
        )
        composed.place("channel").add(9)
        composed.reset()
        assert composed.place("channel").tokens == 0

    def test_join_place_table_matches_declarations(self):
        composed = join(
            "sys",
            {"P": make_producer(), "C": make_consumer()},
            shared=[SharedVariable("channel", [("P", "out"), ("C", "inbox")])],
        )
        table = composed.join_place_table()
        assert table == [
            {"state_variable": "channel", "submodel_variables": ["P->out", "C->inbox"]}
        ]

    def test_shared_name_collision_rejected(self):
        producer, consumer = make_producer(), make_consumer()
        sneaky = SANModel("sneaky")
        sneaky.add_place(Place("whatever"))
        with pytest.raises(ModelError):
            # "P.out" collides with the qualified name of P's own place.
            join(
                "sys",
                {"P": producer, "C": consumer},
                shared=[SharedVariable("P.out", [("C", "inbox")])],
            )


class TestPlaceLookup:
    @pytest.mark.parametrize("composed", [False, True])
    def test_lookup_copies_no_place_table(self, composed, monkeypatch):
        # ``place`` is called once per slot while a system is built; it
        # must read the table in place, not through the copying
        # ``places()``.
        model = make_producer()
        if composed:
            model = join(
                "sys",
                {"P": model, "C": make_consumer()},
                shared=[SharedVariable("channel", [("P", "out"), ("C", "inbox")])],
            )
        table = model.places()
        copies = []
        real = model.places
        monkeypatch.setattr(model, "places", lambda: copies.append(1) or real())
        for path, place in table.items():
            assert model.place(path) is place
        assert copies == []

    def test_places_still_returns_a_copy(self):
        composed = join("sys", {"a": make_producer()})
        composed.places().clear()
        assert "a.fuel" in composed.places()
        with pytest.raises(ModelError, match="a.fuel"):
            composed.place("a.missing")


class TestReplicate:
    def test_replicas_are_independent_by_default(self):
        composed = replicate("farm", lambda i: make_producer(f"p{i}"), 3)
        assert len(composed.submodels) == 3
        composed.place("p0.out").add()
        assert composed.place("p1.out").tokens == 0

    def test_shared_names_span_all_replicas(self):
        composed = replicate(
            "farm", lambda i: make_producer(f"p{i}"), 3, shared_names=["out"]
        )
        composed.place("p0.out").add(2)
        assert composed.place("p2.out").tokens == 2
        assert composed.place("out").tokens == 2

    def test_zero_count_rejected(self):
        with pytest.raises(ModelError):
            replicate("farm", lambda i: make_producer(f"p{i}"), 0)

    def test_duplicate_replica_names_rejected(self):
        with pytest.raises(ModelError):
            replicate("farm", lambda i: make_producer("same"), 2)
