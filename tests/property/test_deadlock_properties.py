"""Property-based tests for the deadlock machinery.

Three laws:

* the static lock-order pass flags a module iff a reference DFS finds a
  cycle in the union of its random acquisition orderings;
* the runtime wait-for-graph walk agrees with a reference graph search
  on random hold/wait states;
* the LockHeldAnalysis fixpoint terminates on random CFGs with values
  that respect the intersection-join (must-hold) lattice laws.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import LockHeldAnalysis, solve
from repro.analysis.ir import (AddrOf, Function, Instruction, Module, Reg,
                               imm, mem)
from repro.analysis.lockorder import analyze_module
from repro.races.deadlock import DeadlockDetector

LOCKS = [f"L{i}" for i in range(4)]

# -- random acquisition histories -> static lock-order ----------------------

#: One nesting: acquire ``outer`` then ``inner`` (released in LIFO order).
nestings = st.lists(
    st.tuples(st.sampled_from(LOCKS), st.sampled_from(LOCKS))
    .filter(lambda pair: pair[0] != pair[1]),
    min_size=0, max_size=8)


def module_from_nestings(pairs) -> Module:
    module = Module(name="prop")
    for index, (outer, inner) in enumerate(pairs):
        outer_ptr, inner_ptr = f"po{index}", f"pi{index}"
        module.functions.append(Function(
            name=f"f{index}",
            instructions=[
                Instruction("cmpxchg", (mem(outer_ptr), Reg("eax")),
                            lock_prefix=True, site=f"s{index}.outer",
                            source=("prop.c", index * 10)),
                Instruction("cmpxchg", (mem(inner_ptr), Reg("eax")),
                            lock_prefix=True, site=f"s{index}.inner",
                            source=("prop.c", index * 10 + 1)),
                Instruction("mov", (mem(inner_ptr), imm(0))),
                Instruction("mov", (mem(outer_ptr), imm(0))),
            ],
            pointer_facts=[AddrOf(outer_ptr, outer),
                           AddrOf(inner_ptr, inner)]))
    return module


def reference_has_cycle(edges) -> bool:
    """Plain DFS three-color cycle check over the edge set."""
    graph: dict[str, set[str]] = {}
    for first, second in edges:
        graph.setdefault(first, set()).add(second)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in
             set(graph) | {s for t in graph.values() for s in t}}

    def visit(node) -> bool:
        color[node] = GRAY
        for succ in graph.get(node, ()):
            if color[succ] == GRAY:
                return True
            if color[succ] == WHITE and visit(succ):
                return True
        color[node] = BLACK
        return False

    return any(visit(node) for node in color if color[node] == WHITE)


class TestLockOrderProperties:
    @settings(max_examples=60, deadline=None)
    @given(pairs=nestings)
    def test_candidates_iff_reference_cycle(self, pairs):
        report = analyze_module(module_from_nestings(pairs))
        assert report.edges == frozenset(pairs)
        assert bool(report.candidates) == reference_has_cycle(pairs)

    @settings(max_examples=60, deadline=None)
    @given(pairs=nestings)
    def test_every_candidate_cycle_is_a_real_cycle(self, pairs):
        report = analyze_module(module_from_nestings(pairs))
        edge_set = set(pairs)
        for candidate in report.candidates:
            count = len(candidate.cycle)
            for i, first in enumerate(candidate.cycle):
                assert (first, candidate.cycle[(i + 1) % count]) in edge_set
            assert candidate.witnesses

    @settings(max_examples=40, deadline=None)
    @given(pairs=nestings)
    def test_analysis_is_deterministic(self, pairs):
        one = analyze_module(module_from_nestings(pairs))
        two = analyze_module(module_from_nestings(pairs))
        assert [c.cycle for c in one.candidates] == \
            [c.cycle for c in two.candidates]


# -- random hold/wait states -> runtime wait-for graph -----------------------

THREADS = [f"t{i}" for i in range(4)]
WORDS = [0x10, 0x20, 0x30, 0x40]

#: thread index -> (word it holds, word it waits on).
hold_wait_states = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)),
    min_size=1, max_size=4)


class TestWaitForGraphProperties:
    @settings(max_examples=80, deadline=None)
    @given(states=hold_wait_states)
    def test_detector_agrees_with_reference_cycle_check(self, states):
        detector = DeadlockDetector()
        holder_of: dict[int, str] = {}
        for index, (hold, _want) in enumerate(states):
            tid = f"v0:{THREADS[index]}"
            if hold not in holder_of:  # first claimant owns the word
                holder_of[hold] = tid
                detector.sync_op(
                    type("VM", (), {"index": 0})(),
                    type("T", (), {"global_id": tid})(),
                    type("Op", (), {"op": "cas", "addr": hold,
                                    "args": (0, 1), "site": None})(),
                    0)
        for index, (_hold, want) in enumerate(states):
            detector.futex_park(0, f"v0:{THREADS[index]}", want)
        # Reference: edge waiter -> holder(wanted word), cycle via DFS.
        edges = []
        for index, (_hold, want) in enumerate(states):
            holder = holder_of.get(want)
            if holder is not None:
                edges.append((f"v0:{THREADS[index]}", holder))
        assert detector.report.deadlocked == reference_has_cycle(edges)

    @settings(max_examples=80, deadline=None)
    @given(states=hold_wait_states)
    def test_records_name_genuinely_wedged_threads(self, states):
        detector = DeadlockDetector()
        holder_of: dict[int, str] = {}
        for index, (hold, _want) in enumerate(states):
            tid = f"v0:{THREADS[index]}"
            if hold not in holder_of:
                holder_of[hold] = tid
                detector._acquire(0, hold, tid, None)
        for index, (_hold, want) in enumerate(states):
            detector.futex_park(0, f"v0:{THREADS[index]}", want)
        for record in detector.report.records:
            for thread in record.threads:
                assert thread.holds  # every cycle member owns something
                assert thread.wants in WORDS


# -- LockHeldAnalysis lattice laws on random CFGs ----------------------------


def pointsto(ptr):
    return frozenset({ptr[2:]}) if ptr.startswith("p_") else frozenset()


@st.composite
def random_functions(draw):
    """A random function over acquires/releases/branches with valid
    labels (every jump target exists)."""
    block_count = draw(st.integers(min_value=1, max_value=4))
    labels = [f"lab{i}" for i in range(block_count)]
    instructions = []
    for label in labels:
        instructions.append(Instruction("label", (label,)))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            lock = draw(st.sampled_from(LOCKS))
            if draw(st.booleans()):
                instructions.append(Instruction(
                    "cmpxchg", (mem(f"p_{lock}"), Reg("eax")),
                    lock_prefix=True))
            else:
                instructions.append(Instruction(
                    "mov", (mem(f"p_{lock}"), imm(0))))
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            instructions.append(Instruction("ret", ()))
        elif choice == 1:
            instructions.append(Instruction(
                "jmp", (draw(st.sampled_from(labels)),)))
        else:
            instructions.append(Instruction(
                "jcc", (draw(st.sampled_from(labels)),)))
    return Function(name="f", instructions=instructions)


class TestFixpointProperties:
    @settings(max_examples=80, deadline=None)
    @given(function=random_functions())
    def test_terminates_within_budget_with_lattice_values(self, function):
        cfg = build_cfg(function)
        result = solve(cfg, LockHeldAnalysis(pointsto, frozenset(LOCKS)))
        # Termination is the raise-free return; values stay in the lattice.
        for block in cfg.blocks:
            for value in (result.value_before(block),
                          result.value_after(block)):
                if value is not None:
                    assert value <= frozenset(LOCKS)

    @settings(max_examples=80, deadline=None)
    @given(function=random_functions())
    def test_join_lower_bounds_incoming_edges(self, function):
        """Must-analysis soundness: a block's entry value is contained in
        every reached predecessor's exit value (intersection join)."""
        cfg = build_cfg(function)
        result = solve(cfg, LockHeldAnalysis(pointsto, frozenset(LOCKS)))
        for block in cfg.blocks:
            value_in = result.value_before(block)
            if value_in is None or block is cfg.entry:
                continue
            for pred in block.predecessors:
                pred_out = result.value_after(cfg.blocks[pred])
                if pred_out is not None:
                    assert value_in <= pred_out

    @settings(max_examples=60, deadline=None)
    @given(function=random_functions(),
           smaller=st.sets(st.sampled_from(LOCKS)),
           extra=st.sets(st.sampled_from(LOCKS)))
    def test_transfer_is_monotone(self, function, smaller, extra):
        """v1 ⊆ v2 implies transfer(i, v1) ⊆ transfer(i, v2) — the
        property the fixpoint budget diagnostic assumes."""
        problem = LockHeldAnalysis(pointsto, frozenset(LOCKS))
        v1 = frozenset(smaller)
        v2 = v1 | frozenset(extra)
        for instruction in function.instructions:
            out1 = problem.transfer_instruction(instruction, v1)
            out2 = problem.transfer_instruction(instruction, v2)
            assert out1 <= out2
