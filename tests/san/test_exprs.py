"""Unit and property tests for the gate/reward expression IR."""

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, SimulationError
from repro.san import ExtendedPlace, InputGate, OutputGate, Place
from repro.san import exprs as E


def _places():
    return Place("P", 0), Place("Q", 0), Place("R", 0)


class TestConstruction:
    def test_operator_overloads_build_nodes(self):
        p, q, _ = _places()
        assert isinstance(E.tokens(p) > 0, E.Compare)
        assert isinstance(E.tokens(p) + E.tokens(q), E.Arith)
        assert isinstance((E.tokens(p) > 0) & (E.tokens(q) > 0), E.And)
        assert isinstance((E.tokens(p) > 0) | (E.tokens(q) > 0), E.Or)
        assert isinstance(~(E.tokens(p) > 0), E.Not)

    def test_and_flattens(self):
        p, q, r = _places()
        nested = (E.tokens(p) > 0) & (E.tokens(q) > 0) & (E.tokens(r) > 0)
        assert len(nested.parts) == 3

    def test_literals_wrap_to_const(self):
        p, _, _ = _places()
        compare = E.tokens(p) > 2
        assert isinstance(compare.right, E.Const)
        assert compare.right.value == 2

    def test_unsupported_operand_rejected(self):
        p, _, _ = _places()
        with pytest.raises(ModelError, match="cannot use"):
            E.tokens(p) > object()

    def test_isin_needs_values(self):
        p, _, _ = _places()
        with pytest.raises(ModelError, match="non-empty"):
            E.isin(E.field(p, "k"), [])

    def test_effects_rejects_non_effect(self):
        with pytest.raises(ModelError, match="Effect"):
            E.effects("nope")

    def test_negative_counts_rejected(self):
        p, _, _ = _places()
        with pytest.raises(ModelError):
            E.add(p, -1)
        with pytest.raises(ModelError):
            E.remove(p, -2)
        with pytest.raises(ModelError):
            E.set_tokens(p, -3)

    def test_conjunction_empty_rejected(self):
        with pytest.raises(ModelError, match="at least one"):
            E.conjunction([])


class TestStructure:
    def test_expr_places_first_occurrence_order(self):
        p, q, r = _places()
        expr = (E.tokens(q) > 0) & (E.tokens(p) > 0) & (E.tokens(q) == 1) & (
            E.tokens(r) < 5
        )
        assert E.expr_places(expr) == [q, p, r]

    def test_effect_write_and_read_places(self):
        p, q, r = _places()
        fx = E.effects(E.add(p), E.remove(q), E.set_tokens(r, 2))
        assert E.effect_write_places(fx) == [p, q, r]
        assert E.effect_read_places(fx) == []

    def test_constant_verdict(self):
        p, _, _ = _places()
        assert E.constant_verdict(E.TRUE) is True
        assert E.constant_verdict(E.FALSE) is False
        assert E.constant_verdict(E.tokens(p) > 0) is None

    def test_vectorizable_rules(self):
        p, _, _ = _places()
        ext = ExtendedPlace("X", {"k": 1})
        assert E.vectorizable(E.tokens(p) > 0)
        assert not E.vectorizable(E.field(ext, "k") > 0)
        assert not E.vectorizable(E.isin(E.tokens(p), [1, 2]))
        assert not E.vectorizable(E.tokens(p) == E.const("s"))

    def test_vectorizable_effects_rules(self):
        p, q, _ = _places()
        assert E.vectorizable_effects(E.effects(E.add(p), E.set_tokens(q, 3)))
        assert not E.vectorizable_effects(
            E.effects(E.set_tokens(q, E.tokens(p)))
        )

    def test_signatures_are_structural(self):
        p, q, _ = _places()
        a = (E.tokens(p) > 0) & (E.tokens(q) == 2)
        b = (E.tokens(p) > 0) & (E.tokens(q) == 2)
        assert E.signature(a) == E.signature(b)
        assert E.signature(a) != E.signature((E.tokens(p) > 1) & (E.tokens(q) == 2))
        fx = E.effects(E.add(p, 2), E.remove(q), E.set_tokens(p, 0))
        assert E.effects_signature(fx) == E.effects_signature(fx)


class TestScalarCompile:
    def test_predicate_must_be_boolean(self):
        p, _, _ = _places()
        with pytest.raises(ModelError, match="boolean"):
            E.compile_scalar_predicate(E.tokens(p))

    def test_rate_must_be_numeric(self):
        p, _, _ = _places()
        with pytest.raises(ModelError, match="numeric"):
            E.compile_scalar_rate(E.tokens(p) > 0)

    def test_predicate_reads_live_marking(self):
        p, q, _ = _places()
        pred = E.compile_scalar_predicate((E.tokens(p) > 0) & (E.tokens(q) == 0))
        assert not pred()
        p.add()
        assert pred()
        q.add()
        assert not pred()

    def test_ext_field_and_isin(self):
        ext = ExtendedPlace("X", {"status": "READY"})
        pred = E.compile_scalar_predicate(
            E.isin(E.field(ext, "status"), ("READY", "BUSY"))
        )
        assert pred()
        ext.value["status"] = "INACTIVE"
        assert not pred()

    def test_indicator_and_count_semantics(self):
        p, _, _ = _places()
        p.add(3)
        rate = E.compile_scalar_rate(E.indicator(E.tokens(p) > 0))
        assert rate() == 1.0
        mean = E.compile_scalar_rate(
            (E.count(E.tokens(p) > 0) + E.count(E.tokens(p) > 5)) / E.const(2)
        )
        assert mean() == 0.5

    def test_effects_apply_in_order(self):
        p, q, r = _places()
        p.add(2)
        fx = E.compile_scalar_effects(
            E.effects(E.remove(p), E.add(q, 3), E.set_tokens(r, 7))
        )
        fx()
        assert (p.tokens, q.tokens, r.tokens) == (1, 3, 7)

    def test_effects_negative_marking_raises(self):
        p, _, _ = _places()
        fx = E.compile_scalar_effects(E.effects(E.remove(p)))
        with pytest.raises(SimulationError):
            fx()


@settings(max_examples=50, deadline=None)
@given(
    marks=st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    )
)
def test_scalar_ir_matches_closures_on_random_markings(marks):
    """Compiled IR predicates/rates agree with the equivalent closures."""
    p, q, r = _places()
    p.add(marks[0]), q.add(marks[1]), r.add(marks[2])
    pairs = [
        (E.tokens(p) > 0, lambda: p.tokens > 0),
        (E.tokens(p) == E.tokens(q), lambda: p.tokens == q.tokens),
        (
            (E.tokens(p) > 1) & (E.tokens(q) < 4) | (E.tokens(r) != 2),
            lambda: (p.tokens > 1 and q.tokens < 4) or r.tokens != 2,
        ),
        (~(E.tokens(p) >= E.tokens(r)), lambda: not (p.tokens >= r.tokens)),
        (
            E.lor(E.tokens(p) == 0, E.tokens(q) == 0, E.tokens(r) == 0),
            lambda: p.tokens == 0 or q.tokens == 0 or r.tokens == 0,
        ),
    ]
    for expr, closure in pairs:
        assert E.compile_scalar_predicate(expr)() == closure()
    rate = E.compile_scalar_rate(
        (E.count(E.tokens(p) > 2) + E.count(E.tokens(q) > 2)) / E.const(2)
    )
    assert rate() == (int(p.tokens > 2) + int(q.tokens > 2)) / 2


@settings(max_examples=50, deadline=None)
@given(
    marks=st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=8),
    ),
    amount=st.integers(min_value=1, max_value=3),
    setv=st.integers(min_value=0, max_value=9),
)
def test_scalar_ir_effects_match_manual_mutation(marks, amount, setv):
    p, q, _ = _places()
    p.add(marks[0]), q.add(marks[1])
    expect_p = p.tokens - 1
    expect_q = q.tokens + amount
    fx = E.compile_scalar_effects(
        E.effects(E.remove(p), E.add(q, amount), E.set_tokens(q, setv))
    )
    fx()
    assert p.tokens == expect_p
    assert q.tokens == setv
    assert expect_q >= 0  # the add happened before the set; no negatives


class TestVectorCompile:
    def _colmap(self, places):
        return {id(place._cell): col for col, place in enumerate(places)}

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_vector_predicate_matches_scalar_per_lane(self, data):
        p, q, r = _places()
        places = (p, q, r)
        expr = ((E.tokens(p) > 1) & (E.tokens(q) < 5)) | (
            E.tokens(r) == E.tokens(p)
        )
        scalar = E.compile_scalar_predicate(expr)
        vector = E.compile_vector_predicate(expr, self._colmap(places))
        M = numpy.array(data, dtype=numpy.int64)
        got = vector(M)
        for row, marks in enumerate(data):
            for place, value in zip(places, marks):
                place._cell.tokens = value
            assert bool(got[row]) == scalar()

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_vector_rate_matches_scalar_per_lane(self, data):
        p, q, _ = _places()
        places = (p, q)
        expr = (E.count(E.tokens(p) > 2) + E.count(E.tokens(q) > 2)) / E.const(2)
        scalar = E.compile_scalar_rate(expr)
        vector = E.compile_vector_rate(expr, self._colmap(places))
        M = numpy.array(data, dtype=numpy.int64)
        got = vector(M)
        for row, marks in enumerate(data):
            for place, value in zip(places, marks):
                place._cell.tokens = value
            assert float(got[row]) == scalar()

    def test_vector_effects_touch_only_selected_rows(self):
        p, q, _ = _places()
        fx = E.compile_vector_effects(
            E.effects(E.remove(p), E.add(q, 2), E.set_tokens(q, 5)),
            self._colmap((p, q)),
        )
        M = numpy.array([[3, 0], [4, 1], [5, 2]], dtype=numpy.int64)
        fx(M, numpy.array([0, 2]))
        assert M.tolist() == [[2, 5], [4, 1], [4, 5]]

    def test_vector_remove_guards_negative_markings(self):
        p, _, _ = _places()
        fx = E.compile_vector_effects(
            E.effects(E.remove(p, 2)), self._colmap((p,))
        )
        M = numpy.array([[1], [5]], dtype=numpy.int64)
        with pytest.raises(SimulationError, match="P"):
            fx(M, numpy.array([0, 1]))

    def test_ext_field_has_no_vector_form(self):
        ext = ExtendedPlace("X", {"k": 1})
        with pytest.raises(ModelError):
            E.compile_vector_predicate(
                E.field(ext, "k") > 0, {id(ext._cell): 0}
            )

    def test_unmapped_place_rejected(self):
        p, q, _ = _places()
        with pytest.raises(ModelError, match="column layout"):
            E.compile_vector_predicate(E.tokens(p) > 0, {id(q._cell): 0})


class TestFamilyCompile:
    """Column-abstracted shapes and same-shape family kernels."""

    def _members(self, n=4):
        run = [Place(f"Run_{g}", 0) for g in range(n)]
        load = [Place(f"Load_{g}", 0) for g in range(n)]
        colmap = {}
        for col, place in enumerate(run + load):
            colmap[id(place._cell)] = col
        return run, load, colmap

    def test_shape_signature_abstracts_places_only(self):
        p, q, _ = _places()
        same_shape = (
            E.shape_signature((E.tokens(p) > 0) & (E.tokens(q) == 0)),
            E.shape_signature((E.tokens(q) > 0) & (E.tokens(p) == 0)),
        )
        assert same_shape[0] == same_shape[1]
        assert E.shape_signature(E.tokens(p) > 0) != E.shape_signature(
            E.tokens(p) > 1
        )
        assert E.effects_shape_signature(
            E.effects(E.remove(p), E.add(q, 2))
        ) == E.effects_shape_signature(E.effects(E.remove(q), E.add(p, 2)))
        assert E.effects_shape_signature(
            E.effects(E.add(p))
        ) != E.effects_shape_signature(E.effects(E.add(p, 2)))

    def test_leaf_cols_keep_repeated_occurrences(self):
        p, q, _ = _places()
        colmap = {id(p._cell): 0, id(q._cell): 1}
        expr = (E.tokens(p) > 0) & (E.tokens(q) == E.tokens(p))
        assert E.expr_leaf_cols(expr, colmap) == [0, 1, 0]
        assert E.effect_leaf_cols(
            E.effects(E.remove(q), E.add(p)), colmap
        ) == [1, 0]

    def test_family_predicate_matches_per_member_kernels(self):
        run, load, colmap = self._members()
        exprs = [
            (E.tokens(r) > 0) & (E.tokens(ld) == 0)
            for r, ld in zip(run, load)
        ]
        fam = E.compile_family_predicate(
            exprs[0], [E.expr_leaf_cols(e, colmap) for e in exprs]
        )
        rng = numpy.random.default_rng(7)
        M = rng.integers(0, 3, size=(5, 8)).astype(numpy.int64)
        got = fam(M)
        for j, expr in enumerate(exprs):
            single = E.compile_vector_predicate(expr, colmap)
            assert got[:, j].tolist() == single(M).tolist()

    def test_family_effects_scatter_fired_pairs(self):
        run, load, colmap = self._members()
        templates = [
            E.effects(E.remove(r), E.add(ld, 2)) for r, ld in zip(run, load)
        ]
        fam = E.compile_family_effects(
            templates[0],
            [E.effect_leaf_cols(t, colmap) for t in templates],
            [[item.place.name for item in t] for t in templates],
        )
        M = numpy.ones((3, 8), dtype=numpy.int64)
        # Lane 0 fires member 1, lane 2 fires member 3.
        fam(M, numpy.array([0, 2]), numpy.array([1, 3]))
        expect = numpy.ones((3, 8), dtype=numpy.int64)
        expect[0, 1] -= 1
        expect[0, 5] += 2
        expect[2, 3] -= 1
        expect[2, 7] += 2
        assert M.tolist() == expect.tolist()

    def test_family_effects_negative_guard_names_offender(self):
        run, load, colmap = self._members()
        templates = [E.effects(E.remove(r, 2)) for r in run]
        fam = E.compile_family_effects(
            templates[0],
            [E.effect_leaf_cols(t, colmap) for t in templates],
            [[item.place.name for item in t] for t in templates],
        )
        M = numpy.full((2, 8), 5, dtype=numpy.int64)
        M[1, 2] = 1  # member 2 on lane 1 would go negative
        with pytest.raises(SimulationError, match="Run_2"):
            fam(M, numpy.array([0, 1]), numpy.array([0, 2]))

    def test_count_sum_chain_fuses_bit_identically(self):
        run, load, colmap = self._members()
        chain = E.count(E.tokens(run[0]) > 0)
        for place in run[1:]:
            chain = chain + E.count(E.tokens(place) > 0)
        expr = chain / E.const(len(run))
        src_fused = E._emit_vector(expr, colmap, E._Ctx())
        assert ".sum(axis=1)" in src_fused
        vector = E.compile_vector_rate(expr, colmap)
        scalar = E.compile_scalar_rate(expr)
        rng = numpy.random.default_rng(11)
        M = rng.integers(0, 2, size=(6, 8)).astype(numpy.int64)
        got = vector(M)
        for row in range(6):
            for col, place in enumerate(run + load):
                place._cell.tokens = int(M[row, col])
            assert float(got[row]) == scalar()

    def test_count_sum_mixed_shapes_stay_unfused(self):
        p, q, r = _places()
        colmap = {id(p._cell): 0, id(q._cell): 1, id(r._cell): 2}
        expr = (
            E.count(E.tokens(p) > 0)
            + E.count(E.tokens(q) > 1)
            + E.count(E.tokens(r) > 0)
        )
        assert ".sum(axis=1)" not in E._emit_vector(expr, colmap, E._Ctx())


class TestGateIntegration:
    def test_input_gate_expr_derives_reads(self):
        p, q, _ = _places()
        gate = InputGate(
            "g", expr=(E.tokens(p) > 0) & (E.tokens(q) == 0)
        )
        assert set(gate.declared_read_cells()) == {p._cell, q._cell}

    def test_input_gate_expr_and_predicate_conflict(self):
        p, _, _ = _places()
        with pytest.raises(ModelError, match="not both"):
            InputGate("g", lambda: True, expr=E.tokens(p) > 0)

    def test_input_gate_expr_and_volatile_conflict(self):
        p, _, _ = _places()
        with pytest.raises(ModelError, match="volatile"):
            InputGate("g", expr=E.tokens(p) > 0, volatile=True)

    def test_input_gate_effect_fires(self):
        p, q, _ = _places()
        p.add()
        gate = InputGate(
            "g", expr=E.tokens(p) > 0, effect=E.effects(E.remove(p), E.add(q))
        )
        assert gate.holds()
        gate.fire()
        assert (p.tokens, q.tokens) == (0, 1)

    def test_constant_gate_pins_verdict(self):
        gate = InputGate("g", expr=E.TRUE)
        assert gate.constant_verdict is True
        assert gate.holds()
        assert InputGate("g2", expr=E.FALSE).constant_verdict is False

    def test_output_gate_effect(self):
        p, _, _ = _places()
        gate = OutputGate("out", effect=E.effects(E.set_tokens(p, 4)))
        gate.fire()
        assert p.tokens == 4

    def test_output_gate_effect_and_function_conflict(self):
        p, _, _ = _places()
        with pytest.raises(ModelError, match="not both"):
            OutputGate("out", lambda: None, effect=E.effects(E.add(p)))


class TestCodegenCache:
    """One code object per generated source, one env per gate."""

    @staticmethod
    def _simulation():
        from repro.core import Simulation, SystemSpec, VMSpec, WorkloadSpec

        spec = SystemSpec(
            vms=[VMSpec(2, WorkloadSpec()), VMSpec(1, WorkloadSpec())],
            pcpus=2,
            scheduler="rrs",
            sim_time=50,
            warmup=5,
        )
        return Simulation(spec)

    @staticmethod
    def _gates(model):
        return {
            a.qualified_name: a.input_gates[0]
            for a in model.activities()
            if a.input_gates[0].constant_verdict is None
        }

    def test_two_builds_share_code_but_bind_their_own_places(self):
        a, b = self._simulation(), self._simulation()
        gates_a, gates_b = self._gates(a.system), self._gates(b.system)
        assert gates_a.keys() == gates_b.keys()
        for name, gate in gates_a.items():
            other = gates_b[name]
            assert gate._predicate is not other._predicate
            assert gate._predicate.__code__ is other._predicate.__code__, name
        name = next(n for n in gates_a if n.endswith("VM_Job_Scheduler.Scheduling"))
        assert not gates_a[name].holds() and not gates_b[name].holds()
        workload, num_ready = E.expr_places(gates_a[name].expr)
        workload.value = {"load": 1}
        num_ready.tokens = 1
        assert gates_a[name].holds()
        assert not gates_b[name].holds()

    def test_compiled_engine_reuses_single_gate_predicates(self):
        sim = self._simulation().simulator
        for index, activity in enumerate(sim._acts):
            (gate,) = activity.input_gates
            if gate.constant_verdict is None:
                assert sim._ir_preds[index] is gate._predicate

    def test_lanes_share_code_but_bind_their_own_places(self):
        from repro.san.refmodels import build_ir_reference_model

        params = dict(topology=(2, 2), num_pcpus=2, timeslice=3, job_size=5)
        lane_a = build_ir_reference_model(**params)
        lane_b = build_ir_reference_model(**params)
        gates_a, gates_b = self._gates(lane_a), self._gates(lane_b)
        for name, gate in gates_a.items():
            assert gate._predicate.__code__ is gates_b[name]._predicate.__code__
        first, second = [
            n for n, g in gates_a.items() if g.name in ("Running_0", "Running_1")
        ]
        # Same shape inside one lane as well: one code object, two places.
        code = gates_a[first]._predicate.__code__
        assert gates_a[second]._predicate.__code__ is code
        (run_a,) = E.expr_places(gates_a[first].expr)
        run_a.tokens = 1
        assert gates_a[first].holds()
        assert not gates_a[second].holds()
        assert not gates_b[first].holds()

    def test_family_kernels_share_code_but_not_columns(self):
        p, q, _ = _places()
        template = E.tokens(p) > 0
        fam_a = E.compile_family_predicate(template, [[0], [1]])
        fam_b = E.compile_family_predicate(template, [[2], [3]])
        assert fam_a.__code__ is fam_b.__code__
        M = numpy.array([[1, 0, 0, 1]], dtype=numpy.int64)
        assert fam_a(M).tolist() == [[True, False]]
        assert fam_b(M).tolist() == [[False, True]]
