"""Replication-vectorized batch execution over IR gate/reward kernels.

Run one at a time, replications of a model with closure gates step in
pure Python — gate predicates and reward rates are opaque, so the
per-lane work is irreducible.  This module is where the expression IR
(:mod:`repro.san.exprs`) cashes that in: when every gate and reward of
every lane carries a *vectorizable* IR form, the whole batch runs off
one ``(R, n_places)`` int64 token matrix, and each Python-level step
advances **all R lanes at once**:

* one fused numpy predicate pass evaluates a gate conjunction for every
  lane (``en[k] = pred_k(M)`` — a handful of ufunc calls instead of R
  interpreted closure evaluations);
* effects apply lane-masked (``M[rows, col] += n``), with the same
  negative-marking guard the scalar ``Place.remove`` enforces;
* rate rewards accumulate per lane with one vector multiply-add per
  event round, replicating the serial float operation order exactly.

Eligibility is decided per batch by :func:`plan_lanes`; anything it
cannot prove vectorizable — a closure gate, an extended-place read,
an impulse reward, a multi-case activity, reactivation sampling, an
active tracer/profiler — makes :func:`repro.san.compiled.run_lanes` run
each lane in turn on the serial compiled engine, which handles the
fully general model.  The VMM scheduler models always take that path
(their gates read extended-place fields and their scheduling function
is irreducibly procedural Python); the
IR-covered reference models in :mod:`repro.san.refmodels` take the
vector path.

Bit-identity: the vector loop replays the serial engine's decision
procedure exactly — events in per-lane (time, sequence) order,
instantaneous settling as repeated find-first-enabled-then-restart
passes with predicates evaluated before any same-pass effect, timed
rescheduling in registration order with per-activity per-lane RNG
draws, and reward accumulation in per-lane event order with the same
IEEE operations.  The differential suite holds it to exact ``==``
against all serial engines.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

from ..des.distributions import Deterministic
from ..errors import SimulationError
from ..observability import profile as _profile
from ..observability import trace as _trace
from . import exprs as _exprs
from . import gates as _gates
from .activities import InstantaneousActivity, TimedActivity
from .places import Place
from .reward import RateReward, RatioRateReward

#: Sequence sentinel larger than any real event sequence number.
_BIG_SEQ = numpy.iinfo(numpy.int64).max


class _VectorPlan:
    """Compiled kernels + static dependency structure for one model shape."""

    __slots__ = (
        "names",            # canonical place names, one per storage cell
        "n_inst",           # instantaneous activity count (settle order)
        "acts",             # lane-0 activity objects, inst first
        "preds",            # per-activity vector predicate or None
        "consts",           # per-activity constant verdict or None
        "effects",          # per-activity vector effect kernel
        "costs",            # per-activity gate count (eval accounting)
        "deps_after_fire",  # per-activity sorted dependent-row indices
        "units",            # (a, b, family pred, family fx) row partitions
        "unit_of_row",      # activity row -> index into units
        "delay_consts",     # per-timed-activity fixed delay or None
        "timed_keys",       # per-timed-activity qualified names
        "rate_fns",         # per-reward vector rate kernels
        "den_fns",          # per-reward denominator kernels or None
        "warmups",          # per-reward warmup times
        "tick_index",       # timed row index of the FF clock, or -1
        "signature",        # structural identity string (lane validation)
    )


def _canonical_cells(lane) -> Tuple[List[str], List[Any]]:
    """Name-sorted token places, one canonical name per storage cell."""
    names: List[str] = []
    cells: List[Any] = []
    seen: Dict[int, bool] = {}
    for name, place in sorted(lane.model.places().items()):
        if not isinstance(place, Place):
            continue
        key = id(place._cell)
        if key in seen:
            continue
        seen[key] = True
        names.append(name)
        cells.append(place._cell)
    return names, cells


def _lane_cells(lane, names: Sequence[str]) -> Optional[List[Any]]:
    """This lane's storage cells for the shared canonical name order."""
    table = lane.model.places()
    cells = []
    for name in names:
        place = table.get(name)
        if place is None or not isinstance(place, Place):
            return None
        cells.append(place._cell)
    if len({id(c) for c in cells}) != len(cells):
        return None  # join structure differs from lane 0's
    return cells


def _activity_rows(lane) -> List[Any]:
    return list(lane._instantaneous) + list(lane._timed)


def _vector_form(activity) -> Optional[Tuple[Any, Tuple[Any, ...], str]]:
    """(conjunction, combined effects, signature) or None if not IR."""
    gates = activity.input_gates
    if not gates:
        return None
    exprs = []
    combined: List[Any] = []
    sig_parts = [activity.qualified_name, type(activity).__name__]
    for gate in gates:
        expr = gate.expr
        if expr is None or not _exprs.vectorizable(expr):
            return None
        if gate.effect is not None:
            if not _exprs.vectorizable_effects(gate.effect):
                return None
            combined.extend(gate.effect)
            sig_parts.append(_exprs.effects_signature(gate.effect))
        elif gate._function is not _gates._noop:
            return None
        exprs.append(expr)
        sig_parts.append(_exprs.signature(expr))
    if len(activity.cases) != 1:
        return None
    case = activity.cases[0]
    for og in case.output_gates:
        if og.effect is None or not _exprs.vectorizable_effects(og.effect):
            return None
        combined.extend(og.effect)
        sig_parts.append(_exprs.effects_signature(og.effect))
    if isinstance(activity, TimedActivity):
        if activity.reactivation:
            return None
        sig_parts.append(type(activity.distribution).__name__)
    return _exprs.conjunction(exprs), tuple(combined), "|".join(sig_parts)


def _reward_form(reward) -> Optional[Tuple[Any, Optional[Any], str]]:
    """(rate expr, denominator expr or None, signature) or None."""
    if not isinstance(reward, RateReward):
        return None
    expr = reward.expr
    if expr is None or not _exprs.vectorizable(expr):
        return None
    sig = f"{reward.name}@{reward.warmup}:{_exprs.signature(expr)}"
    if isinstance(reward, RatioRateReward):
        den = reward.den_expr
        if den is None or not _exprs.vectorizable(den):
            return None
        return expr, den, sig + "/" + _exprs.signature(den)
    return expr, None, sig


def _lane_signature(lane, names: Sequence[str]) -> Optional[str]:
    """Structural identity of a lane's model, or None if not vectorizable."""
    parts: List[str] = [",".join(names)]
    for activity in _activity_rows(lane):
        if not activity.input_gates:
            # Never enabled (the Activity contract); identity only.
            parts.append(f"inert:{activity.qualified_name}")
            continue
        form = _vector_form(activity)
        if form is None:
            return None
        parts.append(form[2])
    for reward in lane._rate_rewards:
        form = _reward_form(reward)
        if form is None:
            return None
        parts.append(form[2])
    return "\n".join(parts)


def plan_lanes(lanes: Sequence[Any]) -> Optional[_VectorPlan]:
    """Build the vector plan when every lane is fully IR, else None.

    Cheap structural screening runs first (any closure gate bails out
    before any kernel compiles), and the result is cached on lane 0's
    model object — replications of one spec share a model *shape*, so
    repeated batch runs pay compilation once.
    """
    if _trace._ACTIVE is not None or _profile._ACTIVE is not None:
        return None
    lane0 = lanes[0]
    for lane in lanes:
        if lane._impulse_rewards:
            return None
    names, cells0 = _canonical_cells(lane0)
    signature = _lane_signature(lane0, names)
    if signature is None:
        return None
    for lane in lanes[1:]:
        if _lane_signature(lane, names) != signature:
            return None
        if _lane_cells(lane, names) is None:
            return None
    cached = getattr(lane0.model, "_vector_plan_cache", None)
    if cached is not None and cached.signature == signature:
        return cached

    colmap = {id(cell): col for col, cell in enumerate(cells0)}
    plan = _VectorPlan()
    plan.names = names
    plan.signature = signature
    plan.n_inst = len(lane0._instantaneous)
    plan.acts = _activity_rows(lane0)
    n_act = len(plan.acts)
    plan.preds = [None] * n_act
    plan.consts: List[Optional[bool]] = [None] * n_act
    plan.effects = [None] * n_act
    plan.costs = [0] * n_act

    read_cols: List[set] = [set() for _ in range(n_act)]
    write_cols: List[set] = [set() for _ in range(n_act)]
    forms: List[Optional[Tuple[Any, Tuple[Any, ...]]]] = [None] * n_act
    for index, activity in enumerate(plan.acts):
        if not activity.input_gates:
            plan.consts[index] = False  # inert: never enabled
            continue
        conjunction, combined, _sig = _vector_form(activity)
        forms[index] = (conjunction, combined)
        plan.costs[index] = len(activity.input_gates)
        verdict = _exprs.constant_verdict(conjunction)
        if isinstance(conjunction, _exprs.And):
            verdicts = [_exprs.constant_verdict(p) for p in conjunction.parts]
            if all(v is not None for v in verdicts):
                verdict = all(verdicts)
        if verdict is not None:
            plan.consts[index] = verdict
        else:
            plan.preds[index] = _exprs.compile_vector_predicate(
                conjunction, colmap
            )
            for place in _exprs.expr_places(conjunction):
                read_cols[index].add(colmap[id(place._cell)])
        plan.effects[index] = _exprs.compile_vector_effects(combined, colmap)
        for place in _exprs.effect_write_places(combined):
            write_cols[index].add(colmap[id(place._cell)])

    # col -> dependent activity rows, folded into a per-firing stale set.
    col_deps: Dict[int, set] = {}
    for index in range(n_act):
        for col in read_cols[index]:
            col_deps.setdefault(col, set()).add(index)
    plan.deps_after_fire = []
    for index in range(n_act):
        stale: set = set()
        for col in write_cols[index]:
            stale |= col_deps.get(col, set())
        plan.deps_after_fire.append(numpy.array(sorted(stale), dtype=numpy.int64))

    # Partition the rows into kernel families: maximal runs of
    # consecutive activities of one kind whose gate and effect *shapes*
    # match (same operators and constants, member-specific columns).
    # Replicated fragments registered contiguously — Finish_0..Finish_G,
    # Quantum_0..Quantum_G — collapse into one family each, so a settle
    # pass or fire round costs a fixed number of numpy calls per family
    # instead of per activity.
    shape_keys: List[Optional[Tuple[bool, str, str]]] = []
    for index in range(n_act):
        if plan.consts[index] is not None:
            shape_keys.append(None)  # const/inert rows stay singletons
            continue
        conjunction, combined = forms[index]
        shape_keys.append((
            index < plan.n_inst,
            _exprs.shape_signature(conjunction),
            _exprs.effects_shape_signature(combined),
        ))
    plan.units = []
    plan.unit_of_row = [0] * n_act
    start = 0
    while start < n_act:
        end = start + 1
        key = shape_keys[start]
        if key is not None:
            while end < n_act and shape_keys[end] == key:
                end += 1
        if end - start >= 2:
            members = range(start, end)
            unit = (
                start,
                end,
                _exprs.compile_family_predicate(
                    forms[start][0],
                    [_exprs.expr_leaf_cols(forms[k][0], colmap) for k in members],
                ),
                _exprs.compile_family_effects(
                    forms[start][1],
                    [_exprs.effect_leaf_cols(forms[k][1], colmap) for k in members],
                    [[item.place.name for item in forms[k][1]] for k in members],
                ),
            )
        else:
            end = start + 1
            unit = (start, end, None, None)
        for k in range(start, end):
            plan.unit_of_row[k] = len(plan.units)
        plan.units.append(unit)
        start = end

    plan.delay_consts = [
        float(a.distribution.value)
        if isinstance(a.distribution, Deterministic)
        else None
        for a in lane0._timed
    ]
    plan.timed_keys = [a.qualified_name for a in lane0._timed]
    plan.rate_fns = []
    plan.den_fns = []
    plan.warmups = []
    for reward in lane0._rate_rewards:
        expr, den, _sig = _reward_form(reward)
        plan.rate_fns.append(_exprs.compile_vector_rate(expr, colmap))
        plan.den_fns.append(
            _exprs.compile_vector_rate(den, colmap) if den is not None else None
        )
        plan.warmups.append(reward.warmup)
    tick = lane0._tick_activity
    plan.tick_index = (
        lane0._timed.index(tick) if tick is not None and tick in lane0._timed else -1
    )
    try:
        lane0.model._vector_plan_cache = plan
    except AttributeError:
        pass  # models with __slots__ simply skip the cache
    return plan


def run_vectorized(
    plan: _VectorPlan, lanes: Sequence[Any], until: float
) -> Dict[str, int]:
    """Advance every lane to ``until`` through the shared token matrix."""
    R = len(lanes)
    n_act = len(plan.acts)
    n_inst = plan.n_inst
    n_timed = n_act - n_inst
    rounds = 0
    lane_steps = 0
    begun: List[Any] = []
    try:
        for lane in lanes:
            lane._begin_run(until)
            begun.append(lane)

        # -- gather ----------------------------------------------------------
        lane_cells = [_lane_cells(lane, plan.names) for lane in lanes]
        M = numpy.empty((R, len(plan.names)), dtype=numpy.int64)
        for r, cells in enumerate(lane_cells):
            row = M[r]
            for col, cell in enumerate(cells):
                row[col] = cell.tokens
        now = numpy.array([lane.clock.now for lane in lanes], dtype=numpy.float64)
        pending_time = numpy.full((n_timed, R), math.inf, dtype=numpy.float64)
        pending_seq = numpy.full((n_timed, R), _BIG_SEQ, dtype=numpy.int64)
        next_seq = numpy.array(
            [lane._queue._sequence for lane in lanes], dtype=numpy.int64
        )
        lane_timed = [lane._timed for lane in lanes]
        lane_rngs = [
            [lane._rngs[activity] for activity in lane._timed] for lane in lanes
        ]
        for r, lane in enumerate(lanes):
            pending = lane._pending
            for j, key in enumerate(plan.timed_keys):
                event = pending.get(key)
                if event is not None:
                    pending_time[j, r] = event.time
                    pending_seq[j, r] = event.sequence

        # Per-lane accumulators mirrored back into the lane objects at exit.
        completions = numpy.zeros(R, dtype=numpy.int64)
        ticks = numpy.zeros(R, dtype=numpy.int64)
        # Gate-evaluation accounting is uniform across lanes (a refresh
        # evaluates a row for every lane at once), so a scalar suffices.
        evals_all = 0
        n_rewards = len(plan.rate_fns)
        integral = numpy.empty((n_rewards, R), dtype=numpy.float64)
        den_integral = numpy.empty((n_rewards, R), dtype=numpy.float64)
        observed = numpy.empty((n_rewards, R), dtype=numpy.float64)
        warmup = numpy.array(plan.warmups, dtype=numpy.float64)
        for r, lane in enumerate(lanes):
            for k, reward in enumerate(lane._rate_rewards):
                integral[k, r] = reward._integral
                observed[k, r] = reward._observed_time
                den_integral[k, r] = (
                    reward._denominator_integral
                    if isinstance(reward, RatioRateReward)
                    else 0.0
                )

        # Row-level enablement cache: en[k] is trusted while stale[k] is
        # clear; a constant row is pinned at plan time and never refreshed.
        # Staleness lives in plain Python lists — the refresh scan touches
        # every row once per settle pass, and list indexing is an order of
        # magnitude cheaper than numpy scalar access at these widths.
        en = numpy.zeros((n_act, R), dtype=bool)
        stale = [True] * n_act
        for index, const in enumerate(plan.consts):
            if const is not None:
                en[index, :] = const
                stale[index] = False
        preds = plan.preds
        costs = plan.costs
        effects = plan.effects
        deps_lists = [[int(d) for d in deps] for deps in plan.deps_after_fire]
        rate_fns = plan.rate_fns
        den_fns = plan.den_fns
        units = plan.units
        unit_of_row = plan.unit_of_row
        units_inst = [u for u in units if u[1] <= n_inst]
        units_timed = [u for u in units if u[0] >= n_inst]
        #: Fixed delay per timed row, NaN marking sampled distributions.
        delay_consts = numpy.array(
            [math.nan if d is None else d for d in plan.delay_consts],
            dtype=numpy.float64,
        )

        def refresh(subset) -> None:
            nonlocal evals_all
            for a, b, fam, _fx in subset:
                if fam is None:
                    if stale[a]:
                        stale[a] = False
                        pred = preds[a]
                        if pred is not None:
                            en[a] = pred(M)
                            # Every lane pays the row's gate count,
                            # matching the serial engines' accounting.
                            evals_all += costs[a]
                else:
                    # One kernel refreshes the whole family; members
                    # whose verdict was already trusted recompute the
                    # same value, and only stale members are charged —
                    # exactly the rows the lazy path would have paid.
                    cost = 0
                    for k in range(a, b):
                        if stale[k]:
                            cost += costs[k]
                            stale[k] = False
                    if cost:
                        en[a:b] = fam(M).T
                        evals_all += cost

        # Rewards sharing a warmup share one dt vector per round.
        by_warmup: Dict[float, List[int]] = {}
        for k in range(n_rewards):
            by_warmup.setdefault(float(warmup[k]), []).append(k)
        warm_groups = sorted(by_warmup.items())

        def advance_rewards(rows, end_r) -> None:
            """Accumulate [now, end) per lane over the pre-event state.

            Full-width arithmetic with a zeroed dt on masked lanes: adding
            ``rate * 0.0`` is the identity on these monotone non-negative
            accumulators, and it avoids the boolean fancy-indexing that
            dominated the first cut of this loop.
            """
            if not n_rewards:
                return
            valid = rows & (end_r > now)
            for w, ks in warm_groups:
                if w <= 0.0:
                    # valid implies end > now >= 0 >= w: no extra mask.
                    cond = valid
                    dtw = numpy.where(cond, end_r - now, 0.0)
                else:
                    cond = valid & (end_r > w)
                    dtw = numpy.where(
                        cond, end_r - numpy.maximum(now, w), 0.0
                    )
                for k in ks:
                    integral[k] += rate_fns[k](M) * dtw
                    den = den_fns[k]
                    if den is not None:
                        den_integral[k] += den(M) * dtw
                    observed[k] += dtw

        max_chain = min(lane.max_instantaneous_chain for lane in lanes)
        en_inst = en[:n_inst]
        en_timed = en[n_inst:]
        #: Index meaning "every lane" — basic slicing beats fancy indexing
        #: for the common all-lanes-fire-together rounds (aligned clocks).
        _ALL = slice(None)

        unit_row = numpy.array(unit_of_row, dtype=numpy.intp)

        def apply_fires(lane_idx, ks) -> None:
            """Apply effects for fired (lane, activity-row) pairs.

            Pairs group by kernel family: one fused scatter per family
            per effect item, instead of one masked apply per distinct
            activity.  Within an item the (row, column) pairs never
            alias — each lane fires at most one activity here — so the
            scatter order matches the serial item-by-item applies (and
            makes the cross-family apply order immaterial: different
            pairs touch different lane rows).
            """
            us = unit_row[ks]
            order = numpy.argsort(us, kind="stable")
            sorted_ks = ks[order]
            sorted_rs = lane_idx[order]
            sorted_us = us[order]
            cuts = numpy.flatnonzero(sorted_us[1:] != sorted_us[:-1]) + 1
            bounds = [0, *cuts.tolist(), int(sorted_us.size)]
            for i in range(len(bounds) - 1):
                lo, hi = bounds[i], bounds[i + 1]
                seg_k = sorted_ks[lo:hi]
                a, _b, _fam, fx = units[int(sorted_us[lo])]
                if fx is None:
                    k = int(seg_k[0])
                    effects[k](
                        M, _ALL if hi - lo == R else sorted_rs[lo:hi]
                    )
                    for d in deps_lists[k]:
                        stale[d] = True
                else:
                    fx(M, sorted_rs[lo:hi], seg_k - a)
                    for k in set(seg_k.tolist()):
                        for d in deps_lists[k]:
                            stale[d] = True

        # -- main loop: one head event per active lane per round -------------
        while True:
            heads = pending_time.min(axis=0) if n_timed else numpy.full(R, math.inf)
            active = heads < until
            act_idx = numpy.flatnonzero(active)
            if act_idx.size == 0:
                break
            rounds += 1
            lane_steps += act_idx.size
            # Fire selection: per lane, the pending event with minimal
            # (time, sequence) — the event-queue tie-break, lane-local.
            seqs = numpy.where(pending_time == heads, pending_seq, _BIG_SEQ)
            j_star = seqs.argmin(axis=0)
            # Rewards integrate over [now, head) in the pre-event state,
            # then the clock advances — exactly the serial _step order.
            advance_rewards(active, heads)
            now = numpy.where(active, heads, now)
            fired_j = j_star[act_idx]
            pending_time[fired_j, act_idx] = math.inf
            pending_seq[fired_j, act_idx] = _BIG_SEQ
            if act_idx.size == R:
                completions += 1
            else:
                completions[act_idx] += 1
            if plan.tick_index >= 0:
                tick_rows = act_idx[fired_j == plan.tick_index]
                if tick_rows.size:
                    ticks[tick_rows] += 1
            apply_fires(act_idx, fired_j + n_inst)

            # Settle: repeated find-first-enabled passes.  All predicate
            # evaluation for a pass happens before any of its effects
            # (each lane fires exactly one activity per pass), exactly
            # like the serial scan-restart loop.
            seeking = active.copy()
            chain = 0
            while n_inst:
                refresh(units_inst)
                sub = en_inst & seeking
                seeking &= sub.any(axis=0)
                seek_idx = numpy.flatnonzero(seeking)
                if seek_idx.size == 0:
                    break
                chain += 1
                if chain > max_chain:
                    raise SimulationError(
                        f"instantaneous chain exceeded {max_chain} "
                        f"completions in the vectorized batch at "
                        f"t={float(now[seeking].max())} — the model likely "
                        "livelocks"
                    )
                first = sub.argmax(axis=0)
                if seek_idx.size == R:
                    completions += 1
                else:
                    completions[seek_idx] += 1
                apply_fires(seek_idx, first[seek_idx])

            # Reschedule timed activities in registration order: cancel
            # newly disabled pending events, sample newly enabled ones
            # from each lane's own per-activity stream.  Both masks come
            # from the same pre-cancel pending snapshot, and j-major
            # nonzero order reproduces the serial per-lane registration
            # order for sequence assignment.
            refresh(units_timed)
            pend = pending_time != math.inf
            cancel = numpy.nonzero((pend & ~en_timed) & active)
            if cancel[0].size:
                pending_time[cancel] = math.inf
                pending_seq[cancel] = _BIG_SEQ
            sched_j, sched_r = numpy.nonzero((en_timed & ~pend) & active)
            n_sched = sched_j.size
            if n_sched:
                # Sequence numbers: nonzero yields pairs j-major, i.e.
                # per lane in registration order, so each lane's new
                # events take consecutive numbers from its own counter
                # — the serial assignment, computed as a grouped rank.
                order = numpy.argsort(sched_r, kind="stable")
                sr = sched_r[order]
                positions = numpy.arange(n_sched)
                group_start = numpy.empty(n_sched, dtype=numpy.int64)
                group_start[0] = 0
                group_start[1:] = numpy.where(sr[1:] != sr[:-1], positions[1:], 0)
                numpy.maximum.accumulate(group_start, out=group_start)
                ranks = numpy.empty(n_sched, dtype=numpy.int64)
                ranks[order] = positions - group_start
                pending_seq[sched_j, sched_r] = next_seq[sched_r] + ranks
                next_seq += numpy.bincount(sched_r, minlength=R)
                # Deterministic delays come straight from the plan (the
                # distribution never touches the RNG stream); only the
                # sampled rows run Python.  Streams are per-activity
                # per-lane, so sampling order across pairs is free.
                delays = delay_consts[sched_j]
                sampled = numpy.flatnonzero(numpy.isnan(delays))
                if sampled.size:
                    for i in sampled.tolist():
                        j = int(sched_j[i])
                        r = int(sched_r[i])
                        delays[i] = lane_timed[r][j].sample_delay(
                            lane_rngs[r][j]
                        )
                pending_time[sched_j, sched_r] = now[sched_r] + delays

        # -- horizon: final reward stretch, then scatter back ----------------
        advance_rewards(
            numpy.ones(R, dtype=bool), numpy.full(R, float(until))
        )

        for r, lane in enumerate(lanes):
            cells = lane_cells[r]
            row = M[r]
            table = lane.model.places()
            for col, name in enumerate(plan.names):
                value = int(row[col])
                if cells[col].tokens != value:
                    table[name].tokens = value
            for k, reward in enumerate(lane._rate_rewards):
                reward._integral = float(integral[k, r])
                reward._observed_time = float(observed[k, r])
                if isinstance(reward, RatioRateReward):
                    reward._denominator_integral = float(den_integral[k, r])
            lane._completions += int(completions[r])
            lane.ticks_fired += int(ticks[r])
            lane._own_gate_evaluations += evals_all
            _gates.count_evaluations(evals_all)
            # Rebuild the real event wheel: surviving pending events in
            # virtual-sequence order, so any later serial continuation
            # sees the same relative tie-breaks the virtual wheel held.
            queue = lane._queue
            queue.clear()
            lane._pending.clear()
            order = sorted(
                (j for j in range(n_timed) if pending_time[j, r] != math.inf),
                key=lambda j: int(pending_seq[j, r]),
            )
            for j in order:
                lane._pending[plan.timed_keys[j]] = queue.schedule(
                    float(pending_time[j, r]), lane._timed[j]
                )
            # The scatter wrote markings out-of-band of the lane's own
            # compiled arrays: distrust every cached verdict.
            lane._stale[:] = b"\x01" * len(lane._stale)
            lane.clock.advance_to(until)
    finally:
        for lane in begun:
            lane._finish_run()
    return {"waves": rounds, "lane_steps": lane_steps, "vectorized": 1}
