"""Property-based tests of the abstract domains (intervals, congruences, state)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domains.congruence import Congruence
from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import (
    STACK_BASE,
    AbstractMemory,
    AbstractState,
    AbstractValue,
)

small_ints = st.integers(-1000, 1000)


def intervals(draw_bounds=small_ints):
    """Strategy for (non-bottom) intervals, including half-open ones."""
    return st.builds(
        lambda a, b, open_lo, open_hi: Interval(
            None if open_lo else min(a, b), None if open_hi else max(a, b)
        ),
        small_ints,
        small_ints,
        st.booleans(),
        st.booleans(),
    )


def members(interval: Interval, candidates):
    return [value for value in candidates if interval.contains(value)]


# --------------------------------------------------------------------------- #
# Interval lattice laws
# --------------------------------------------------------------------------- #
class TestIntervalLattice:
    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_join_is_upper_bound(self, a, b):
        joined = a.join(b)
        assert joined.includes(a) and joined.includes(b)

    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_meet_is_lower_bound(self, a, b):
        met = a.meet(b)
        assert a.includes(met) and b.includes(met)

    @given(intervals())
    @settings(max_examples=100, deadline=None)
    def test_join_with_bottom_is_identity(self, a):
        assert a.join(Interval.bottom()) == a

    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_widening_over_approximates_join(self, a, b):
        widened = a.widen(b)
        assert widened.includes(a.join(b))

    @given(intervals())
    @settings(max_examples=100, deadline=None)
    def test_top_includes_everything(self, a):
        assert Interval.top().includes(a)

    def test_bottom_properties(self):
        bottom = Interval.bottom()
        assert bottom.is_bottom and not bottom.contains(0) and bottom.width() == 0

    def test_constant_interval(self):
        c = Interval.const(5)
        assert c.is_constant and c.constant_value == 5 and c.width() == 1


# --------------------------------------------------------------------------- #
# Interval arithmetic soundness: f(a) in F(A) whenever a in A
# --------------------------------------------------------------------------- #
class TestIntervalArithmeticSoundness:
    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_add_sound(self, A, B, a, b):
        if A.contains(a) and B.contains(b):
            assert A.add(B).contains(a + b)

    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_sub_sound(self, A, B, a, b):
        if A.contains(a) and B.contains(b):
            assert A.sub(B).contains(a - b)

    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_mul_sound(self, A, B, a, b):
        if A.contains(a) and B.contains(b):
            assert A.mul(B).contains(a * b)

    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_divide_sound(self, A, B, a, b):
        if b == 0 or not (A.contains(a) and B.contains(b)):
            return
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        assert A.divide(B).contains(quotient)

    @given(intervals(), small_ints)
    @settings(max_examples=150, deadline=None)
    def test_neg_sound(self, A, a):
        if A.contains(a):
            assert A.neg().contains(-a)

    @given(st.integers(0, 4000), st.integers(0, 4000), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_shift_left_sound(self, a, b, shift):
        A = Interval(min(a, b), max(a, b))
        assert A.shift_left(Interval.const(shift)).contains(a << shift)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_bit_and_mask_bound(self, value, mask):
        A = Interval(0, 255)
        result = A.bit_and(Interval.const(mask))
        assert result.contains(value & mask)

    def test_compare_lt_definitive(self):
        assert Interval(0, 3).compare_lt(Interval(5, 9)) == Interval.const(1)
        assert Interval(10, 12).compare_lt(Interval(0, 9)) == Interval.const(0)
        assert Interval(0, 9).compare_lt(Interval(5, 6)) == Interval(0, 1)

    def test_refinement_lt(self):
        refined = Interval(0, 100).refine_lt(Interval.const(10))
        assert refined == Interval(0, 9)

    def test_refinement_ne_trims_endpoints(self):
        assert Interval(0, 10).refine_ne(Interval.const(10)) == Interval(0, 9)
        assert Interval(0, 10).refine_ne(Interval.const(0)) == Interval(1, 10)


# --------------------------------------------------------------------------- #
# Congruence domain
# --------------------------------------------------------------------------- #
congruences = st.builds(
    lambda m, o: Congruence(m, o), st.integers(0, 64), st.integers(-64, 64)
)


class TestCongruence:
    @given(congruences, congruences)
    @settings(max_examples=200, deadline=None)
    def test_join_is_upper_bound(self, a, b):
        joined = a.join(b)
        assert joined.includes(a) and joined.includes(b)

    @given(congruences, congruences, st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_add_sound(self, A, B, ka, kb):
        a = A.offset + ka * A.modulus if not A.is_bottom else 0
        b = B.offset + kb * B.modulus if not B.is_bottom else 0
        if A.contains(a) and B.contains(b):
            assert A.add(B).contains(a + b)

    @given(congruences, congruences, st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_mul_sound(self, A, B, ka, kb):
        a = A.offset + ka * A.modulus if not A.is_bottom else 0
        b = B.offset + kb * B.modulus if not B.is_bottom else 0
        if A.contains(a) and B.contains(b):
            assert A.mul(B).contains(a * b)

    def test_constants(self):
        c = Congruence.const(7)
        assert c.is_constant and c.contains(7) and not c.contains(8)

    def test_stride_membership(self):
        stride4 = Congruence(4, 2)
        assert stride4.contains(2) and stride4.contains(6) and not stride4.contains(4)

    def test_meet_incompatible_is_bottom(self):
        assert Congruence(4, 0).meet(Congruence(4, 1)).is_bottom

    def test_meet_compatible_crt(self):
        met = Congruence(4, 1).meet(Congruence(6, 3))
        assert not met.is_bottom
        assert met.contains(9) and met.contains(21)


# --------------------------------------------------------------------------- #
# Abstract values / memory / state
# --------------------------------------------------------------------------- #
class TestAbstractState:
    def test_address_values_keep_their_base(self):
        pointer = AbstractValue.address("buf", Interval.const(8))
        moved = pointer.add(AbstractValue.const(4))
        assert moved.bases == frozenset({"buf"})
        assert moved.interval == Interval.const(12)

    def test_pointer_difference_is_numeric(self):
        a = AbstractValue.address("buf", Interval.const(8))
        b = AbstractValue.address("buf", Interval.const(4))
        assert a.sub(b).bases == frozenset()

    def test_float_values_are_top_intervals(self):
        assert AbstractValue.float_value().interval.is_top

    def test_strong_update_then_load(self):
        memory = AbstractMemory()
        memory.store_strong("buf", 4, AbstractValue.const(42))
        assert memory.load("buf", 4).constant_value == 42

    def test_unknown_cell_is_top(self):
        assert AbstractMemory().load("buf", 0).is_top

    def test_weak_update_joins(self):
        memory = AbstractMemory()
        memory.store_strong("buf", 0, AbstractValue.const(1))
        memory.store_weak("buf", AbstractValue.const(5))
        loaded = memory.load("buf", 0)
        assert loaded.interval == Interval(1, 5)

    def test_clobber_all_keeps_selected_bases(self):
        memory = AbstractMemory()
        memory.store_strong(STACK_BASE, 0, AbstractValue.const(1))
        memory.store_strong("globals", 0, AbstractValue.const(2))
        memory.clobber_all(keep_bases={STACK_BASE})
        assert memory.load(STACK_BASE, 0).constant_value == 1
        assert memory.load("globals", 0).is_top

    def test_state_join_keeps_common_facts_only(self):
        a = AbstractState()
        b = AbstractState()
        a.set("r1", AbstractValue.const(1))
        b.set("r1", AbstractValue.const(3))
        joined = a.join(b)
        assert joined.get("r1").interval == Interval(1, 3)

    def test_setting_register_kills_dependent_facts(self):
        from repro.analysis.domains.memstate import PredicateFact
        from repro.ir.instructions import Opcode

        state = AbstractState()
        state.set("r1", AbstractValue.const(1))
        state.set_fact("r2", PredicateFact(Opcode.SLT, ("reg", "r1"), ("const", 5)))
        state.set("r1", AbstractValue.const(9))
        assert "r2" not in state.facts

    def test_unreachable_state_join_identity(self):
        state = AbstractState()
        state.set("r1", AbstractValue.const(4))
        joined = state.join(AbstractState.unreachable())
        assert joined.get("r1").constant_value == 4

    def test_includes_is_reflexive(self):
        state = AbstractState()
        state.set("r1", AbstractValue(Interval(0, 5)))
        assert state.includes(state)


class TestIntervalInterning:
    """Interning invariants: shared singletons and identity-returning lattice ops."""

    def test_nullary_constructors_are_singletons(self):
        assert Interval.top() is Interval.top()
        assert Interval.bottom() is Interval.bottom()

    def test_small_constants_are_pooled(self):
        for value in (-1024, -1, 0, 1, 255, 4096):
            assert Interval.const(value) is Interval.const(value)

    def test_degenerate_range_is_the_pooled_constant(self):
        assert Interval.range(7, 7) is Interval.const(7)
        assert Interval.range(5, 3) is Interval.bottom()

    def test_out_of_pool_constants_still_compare_equal(self):
        assert Interval.const(1 << 20) == Interval(1 << 20, 1 << 20)

    def test_join_returns_operand_when_result_equals_it(self):
        a = Interval.const(1)
        wide = Interval(1, 5)
        assert a.join(a) is a
        assert wide.join(a) is wide
        assert a.join(wide) is wide

    def test_meet_returns_operand_when_result_equals_it(self):
        narrow = Interval(2, 3)
        wide = Interval(0, 10)
        assert wide.meet(narrow) is narrow
        assert narrow.meet(wide) is narrow

    def test_widen_self_identity(self):
        a = Interval(0, 8)
        assert a.widen(a) is a
        assert Interval.top().widen(Interval.top()) is Interval.top()

    def test_abstract_value_singletons(self):
        assert AbstractValue.top() is AbstractValue.top()
        assert AbstractValue.bottom() is AbstractValue.bottom()
        assert AbstractValue.float_value() is AbstractValue.float_value()
        assert AbstractValue.const(42) is AbstractValue.const(42)

    def test_abstract_value_join_identity_fast_path(self):
        value = AbstractValue.const(3)
        assert value.join(value) is value
        wide = AbstractValue(Interval(0, 9))
        assert wide.join(value) is wide

    def test_state_includes_short_circuits_on_shared_dicts(self):
        state = AbstractState()
        state.set("r1", AbstractValue.const(4))
        clone = state.copy()
        # The copy shares registers/facts/memory; includes() must answer
        # True without a per-register walk (pointer fast path).
        assert state.includes(clone)
        assert clone.includes(state)

    def test_join_all_matches_pairwise_fold(self):
        a = AbstractState()
        a.set("r1", AbstractValue.const(1))
        a.set("r2", AbstractValue.const(7))
        b = AbstractState()
        b.set("r1", AbstractValue.const(5))
        c = AbstractState()
        c.set("r1", AbstractValue(Interval(-3, 0)))
        batched = AbstractState.join_all([a, b, c])
        pairwise = a.join(b).join(c)
        # AbstractState has no __eq__; mutual inclusion is lattice equality.
        assert batched.includes(pairwise) and pairwise.includes(batched)
        assert batched.get("r1") == pairwise.get("r1")
        assert batched.get("r2") == pairwise.get("r2")

    def test_join_all_of_nothing_is_unreachable(self):
        assert not AbstractState.join_all([]).reachable
        unreachable = AbstractState.unreachable()
        assert not AbstractState.join_all([unreachable]).reachable
