"""Operational x86-TSO reference model.

Implements the abstract machine of Sewell et al.'s *x86-TSO* (the model the
paper's diy litmus tests target): each hardware thread owns a FIFO store
buffer; stores enter the buffer, loads read the youngest buffered store to
the same address (store forwarding) or, failing that, shared memory; fences
wait for the thread's own buffer to drain; and at any point the oldest entry
of any buffer may be flushed to memory.

:func:`enumerate_tso_outcomes` explores every interleaving of instruction
execution and buffer flushes for a litmus test and returns the set of
reachable final states — the oracle the simulator-observed outcomes are
checked against.  :func:`enumerate_sc_outcomes` does the same for
sequential consistency (no store buffers), which is useful for asserting
that TSO is a strict relaxation (every SC outcome is TSO-allowed, and e.g.
the SB test has a TSO-only outcome).

Enumeration is the hot path of a fuzz campaign
(:mod:`repro.consistency.fuzz` enumerates one allowed-set per generated
test), so :func:`enumerate_tso_outcomes` does not walk every interleaving.
It runs an exact suffix DP with partial-order reduction (Godefroid,
*Partial-Order Methods for the Verification of Concurrent Systems*, 1996):

* **Suffix sets.**  Register contents never decide which transitions are
  enabled, so the DP explores ``(pcs, buffers, memory)`` states only and
  memoizes, per state, the set of register assignments (and final
  memories) its runs can end with.  When final memory is not reported, a
  variable no thread can still load is left out of the memory part of
  the state key, which merges states that differ only in unobservable
  values.
* **Packed encoding.**  Each variable's values are numbered, 0 first.
  Memory gives every variable a bit field wide enough for its numbers,
  and every load gets one too.  A register assignment (with the final
  memory, when reported) is then one int, and a suffix set a frozenset of
  ints: prepending a load's value is one OR, and outcomes are decoded
  into ``(name, value)`` tuples once, at the end.
* **Eager steps.**  A step that commutes with every other transition and
  stays enabled until it is taken runs at once instead of branching.
  Every complete run takes it at some point, and moving it to the front
  leaves the outcome unchanged.  Four steps qualify:

  1. *A thread's next store.*  It only appends to its own buffer.  No
     other transition reads that buffer's tail: flushes take the head,
     and the thread's own later ops wait for the store anyway.
  2. *A fence on an empty buffer.*  It is a no-op, and only its own
     thread could refill the buffer, which it cannot do before the fence.
  3. *A load of a variable no other thread has buffered or will still
     store.*  Its value is fixed.  Only its own thread's flushes can still
     change that variable, and they do not change what the load reads: it
     forwards the youngest own buffered store to the variable, and memory
     holds that same value once the store is flushed.  With no such store
     buffered, nobody writes the variable before the load.
  4. *When final memory is not reported: the flush of a buffered store to
     a variable no thread will load again.*  The value it writes is never
     read or reported.  The flush only has to leave the buffer before its
     own thread's later entries and fences, which wait for it anyway.

  Only flushes of live variables and loads of contended variables still
  branch.
* **The trap.**  A load that forwards from its own buffer is *not*
  independent when another thread writes its variable.  Its own flush of
  the forwarded store may come first, and another thread's store to the
  variable may reach memory after it; the load then reads that store.
  Treating such a load as eager loses outcomes (fuzz-smoke's seed-2 test,
  2 threads x 5 ops over 2 variables, keeps only 4 of its 10).
* **Cross-call memoization.**  Campaigns check the same test against many
  protocols, so results are cached per canonical test structure
  (:func:`clear_outcome_cache` empties the cache).

The DP requires every load to target a distinct register (true for the
canonical corpus and everything
:func:`~repro.consistency.litmus.generate_random_test` emits).  Tests with
aliased registers fall back to the exhaustive walk, which is also kept as
the differential oracle for the DP (``tests/test_consistency.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.consistency.litmus import LitmusTest

#: A final outcome: sorted tuple of (register or "var", value) pairs.
Outcome = Tuple[Tuple[str, int], ...]

#: Cross-call memo: canonical test structure -> frozenset of outcomes.
#: Bounded (entries are small; a campaign touches a few thousand tests) and
#: clearable for tests and long-lived processes.
_OUTCOME_CACHE: Dict[Tuple[object, bool], FrozenSet[Outcome]] = {}

#: Entry bound after which the whole memo is dropped (simple and safe: the
#: cache is a pure performance device).
_OUTCOME_CACHE_LIMIT = 8192


def _canonical_test(test: LitmusTest) -> Tuple[object, ...]:
    """A hashable, content-only encoding of a litmus test (names and
    descriptions excluded — they do not affect outcomes)."""
    return tuple(
        tuple((op.kind, op.var, op.value, op.register) for op in thread.ops)
        for thread in test.threads
    ) + (tuple(test.variables),)


def clear_outcome_cache() -> None:
    """Drop every memoized outcome set (tests / long-lived processes)."""
    _OUTCOME_CACHE.clear()


def _make_outcome(registers: Dict[str, int], memory: Dict[str, int],
                  include_memory: bool) -> Outcome:
    items = dict(registers)
    if include_memory:
        items.update({f"[{var}]": value for var, value in memory.items()})
    return tuple(sorted(items.items()))


def enumerate_tso_outcomes(test: LitmusTest, include_memory: bool = False) -> Set[Outcome]:
    """Enumerate every final state reachable under x86-TSO.

    Uses the reduced suffix DP (see module docstring) when every load
    targets a distinct register, else the exhaustive walk; results are
    cached across calls per canonical test structure.

    Args:
        test: the litmus test.
        include_memory: also include final memory values (as ``[var]`` keys)
            in each outcome, not just registers.

    Returns:
        A set of outcomes; each outcome is a sorted tuple of
        ``(register, value)`` pairs.
    """
    cache_key = (_canonical_test(test), include_memory)
    cached = _OUTCOME_CACHE.get(cache_key)
    if cached is not None:
        return set(cached)
    registers = test.registers
    if len(registers) == len(set(registers)):
        outcomes = _enumerate_tso_reduced(test, include_memory)
    else:
        outcomes = enumerate_tso_outcomes_exhaustive(test, include_memory)
    if len(_OUTCOME_CACHE) >= _OUTCOME_CACHE_LIMIT:
        _OUTCOME_CACHE.clear()
    _OUTCOME_CACHE[cache_key] = frozenset(outcomes)
    return outcomes


def _enumerate_tso_reduced(test: LitmusTest,
                           include_memory: bool) -> Set[Outcome]:
    """The reduced suffix DP of the module docstring: packed suffix sets,
    eager independent steps, branching only on flushes of live variables
    and loads of contended ones.  Exact for tests whose loads target
    distinct registers (callers check)."""
    threads = [thread.ops for thread in test.threads]
    num_threads = len(threads)

    # Each variable's values, numbered with 0 first: a field holds a
    # number, and the all-zero int is the initial memory.  Final memory
    # reports the declared variables and every stored one.
    alphabets: Dict[str, List[int]] = {var: [0] for var in test.variables}
    reported = set(alphabets)
    for ops in threads:
        for op in ops:
            if op.var is not None:
                alphabet = alphabets.setdefault(op.var, [0])
                if op.kind == "store":
                    reported.add(op.var)
                    if op.value not in alphabet:
                        alphabet.append(op.value)
    index = {var: v for v, var in enumerate(alphabets)}

    # One bit field per variable (memory), then one per load (registers).
    field_shift: List[int] = []
    field_mask: List[int] = []
    width = 0
    for alphabet in alphabets.values():
        bits = (len(alphabet) - 1).bit_length()
        field_shift.append(width)
        field_mask.append((1 << bits) - 1)
        width += bits
    decoders: List[Tuple[str, int, int, List[int]]] = [
        (f"[{var}]", field_shift[v], field_mask[v], alphabets[var])
        for var, v in index.items() if include_memory and var in reported]

    # Per thread: compiled ops ``(kind, variable, store entry or load
    # shift)`` and, per pc, the variables still to be stored and loaded
    # (bit masks) and the memory fields of the latter.
    program: List[List[Tuple[str, int, object]]] = []
    future_stores: List[List[int]] = []
    future_loads: List[List[int]] = []
    future_fields: List[List[int]] = []
    for ops in threads:
        compiled: List[Tuple[str, int, object]] = []
        for op in ops:
            if op.kind == "store":
                v = index[op.var]
                compiled.append(("store", v,
                                 (v, alphabets[op.var].index(op.value))))
            elif op.kind == "load":
                v = index[op.var]
                compiled.append(("load", v, width))
                decoders.append((op.register, width, field_mask[v],
                                 alphabets[op.var]))
                width += field_mask[v].bit_length()
            elif op.kind == "fence":
                compiled.append(("fence", 0, None))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown litmus op kind {op.kind!r}")
        stores = [0] * (len(ops) + 1)
        loads = [0] * (len(ops) + 1)
        fields = [0] * (len(ops) + 1)
        for pc in range(len(ops) - 1, -1, -1):
            kind, v, _ = compiled[pc]
            stores[pc] = stores[pc + 1] | (1 << v if kind == "store" else 0)
            loads[pc] = loads[pc + 1] | (1 << v if kind == "load" else 0)
            fields[pc] = fields[pc + 1] | (
                field_mask[v] << field_shift[v] if kind == "load" else 0)
        program.append(compiled)
        future_stores.append(stores)
        future_loads.append(loads)
        future_fields.append(fields)
    decoders.sort(key=lambda decoder: decoder[0])
    thread_range = range(num_threads)

    def read(buffer: Tuple[Tuple[int, int], ...], memory: int,
             v: int) -> int:
        """The code a load of variable ``v`` reads: the youngest own
        buffered store to it, else memory."""
        for entry in reversed(buffer):
            if entry[0] == v:
                return entry[1]
        return (memory >> field_shift[v]) & field_mask[v]

    def flush(memory: int, entry: Tuple[int, int]) -> int:
        """``memory`` with a buffered store written to it."""
        v, code = entry
        return ((memory & ~(field_mask[v] << field_shift[v]))
                | (code << field_shift[v]))

    memo: Dict[Tuple[object, ...], FrozenSet[int]] = {}

    def explore(pcs: List[int], buffers: List[Tuple[Tuple[int, int], ...]],
                memory: int) -> Tuple[int, FrozenSet[int]]:
        """``(prefix, suffixes)``: the packed values the eager steps load
        from this state, and the memoized suffix set of the branching
        state they reach.  Updates ``pcs`` and ``buffers`` in place."""
        prefix = 0
        progress = True
        while progress:
            progress = False
            for t in thread_range:
                ops = program[t]
                pc = start = pcs[t]
                buffer = buffers[t]
                contended = -1
                while pc < len(ops):
                    kind, v, arg = ops[pc]
                    if kind == "store":  # eager step 1
                        buffer += (arg,)
                    elif kind == "fence":  # eager step 2
                        if buffer:
                            break
                    else:  # eager step 3
                        if contended < 0:
                            # Variables another thread has buffered or
                            # will still store (unchanged while only t
                            # moves).
                            contended = 0
                            for u in thread_range:
                                if u != t:
                                    contended |= future_stores[u][pcs[u]]
                                    for entry in buffers[u]:
                                        contended |= 1 << entry[0]
                        if (contended >> v) & 1:
                            break
                        prefix |= read(buffer, memory, v) << arg
                    pc += 1
                if pc != start:
                    pcs[t] = pc
                    buffers[t] = buffer
                    progress = True
            if not include_memory:  # eager step 4
                live = 0
                for t in thread_range:
                    live |= future_loads[t][pcs[t]]
                for t in thread_range:
                    buffer = buffers[t]
                    while buffer and not (live >> buffer[0][0]) & 1:
                        memory = flush(memory, buffer[0])
                        buffer = buffer[1:]
                        progress = True
                    buffers[t] = buffer

        if include_memory:
            key = (memory, *pcs, *buffers)
        else:
            live = 0
            for t in thread_range:
                live |= future_fields[t][pcs[t]]
            key = (memory & live, *pcs, *buffers)
        suffixes = memo.get(key)
        if suffixes is not None:
            return prefix, suffixes

        # Branch: every buffer's head is live (or memory is reported), and
        # every thread is done, waits at a fence, or loads a contended
        # variable.
        found: Set[int] = set()
        done = True
        for t in thread_range:
            buffer = buffers[t]
            if buffer:
                done = False
                branch = list(buffers)
                branch[t] = buffer[1:]
                head, rest = explore(list(pcs), branch,
                                     flush(memory, buffer[0]))
                found.update(map(head.__or__, rest) if head else rest)
            pc = pcs[t]
            if pc < len(program[t]):
                done = False
                kind, v, shift = program[t][pc]
                if kind == "load":
                    value = read(buffer, memory, v) << shift
                    advanced = list(pcs)
                    advanced[t] = pc + 1
                    head, rest = explore(advanced, list(buffers), memory)
                    found.update(map((value | head).__or__, rest))
        if done:
            found.add(memory if include_memory else 0)
        suffixes = frozenset(found)
        memo[key] = suffixes
        return prefix, suffixes

    prefix, suffixes = explore([0] * num_threads, [()] * num_threads, 0)
    return {tuple((name, alphabet[((prefix | packed) >> shift) & mask])
                  for name, shift, mask, alphabet in decoders)
            for packed in suffixes}


def enumerate_tso_outcomes_exhaustive(
    test: LitmusTest, include_memory: bool = False
) -> Set[Outcome]:
    """The naive exhaustive walk over full machine states (registers
    included).  Exact for every test — the fallback for aliased registers
    and the differential oracle for the DP — but re-visits each machine
    state once per register history, so it is exponentially slower on
    load-heavy tests."""
    num_threads = len(test.threads)
    init_memory = tuple(sorted((var, 0) for var in test.variables))
    initial = (
        (0,) * num_threads,                      # per-thread program counters
        ((),) * num_threads,                     # per-thread store buffers
        init_memory,                             # shared memory
        (),                                      # registers written so far
    )
    outcomes: Set[Outcome] = set()
    visited = set()
    stack = [initial]
    while stack:
        state = stack.pop()
        if state in visited:
            continue
        visited.add(state)
        pcs, buffers, memory_t, regs_t = state
        memory = dict(memory_t)
        registers = dict(regs_t)

        done = all(pcs[t] >= len(test.threads[t].ops) for t in range(num_threads))
        buffers_empty = all(not buf for buf in buffers)
        if done and buffers_empty:
            outcomes.add(_make_outcome(registers, memory, include_memory))
            continue

        progressed = False

        # Transition 1: flush the oldest entry of any non-empty buffer.
        for t in range(num_threads):
            if buffers[t]:
                var, value = buffers[t][0]
                new_memory = dict(memory)
                new_memory[var] = value
                new_buffers = list(buffers)
                new_buffers[t] = buffers[t][1:]
                stack.append((pcs, tuple(new_buffers),
                              tuple(sorted(new_memory.items())), regs_t))
                progressed = True

        # Transition 2: execute the next instruction of any thread.
        for t in range(num_threads):
            if pcs[t] >= len(test.threads[t].ops):
                continue
            op = test.threads[t].ops[pcs[t]]
            new_pcs = list(pcs)
            new_pcs[t] += 1
            if op.kind == "store":
                new_buffers = list(buffers)
                new_buffers[t] = buffers[t] + ((op.var, op.value),)
                stack.append((tuple(new_pcs), tuple(new_buffers), memory_t, regs_t))
                progressed = True
            elif op.kind == "load":
                value = None
                for var, buffered in reversed(buffers[t]):
                    if var == op.var:
                        value = buffered
                        break
                if value is None:
                    value = memory.get(op.var, 0)
                new_regs = dict(registers)
                new_regs[op.register] = value
                stack.append((tuple(new_pcs), buffers, memory_t,
                              tuple(sorted(new_regs.items()))))
                progressed = True
            elif op.kind == "fence":
                if not buffers[t]:
                    stack.append((tuple(new_pcs), buffers, memory_t, regs_t))
                    progressed = True
                # A fence with a non-empty buffer must wait; the flush
                # transition above provides the progress.
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown litmus op kind {op.kind!r}")

        if not progressed and not (done and buffers_empty):  # pragma: no cover
            raise RuntimeError("x86-TSO model stuck (should be impossible)")
    return outcomes


def enumerate_sc_outcomes(test: LitmusTest, include_memory: bool = False) -> Set[Outcome]:
    """Enumerate every final state reachable under sequential consistency."""
    num_threads = len(test.threads)
    init_memory = tuple(sorted((var, 0) for var in test.variables))
    initial = ((0,) * num_threads, init_memory, ())
    outcomes: Set[Outcome] = set()
    visited = set()
    stack = [initial]
    while stack:
        state = stack.pop()
        if state in visited:
            continue
        visited.add(state)
        pcs, memory_t, regs_t = state
        memory = dict(memory_t)
        registers = dict(regs_t)
        if all(pcs[t] >= len(test.threads[t].ops) for t in range(num_threads)):
            outcomes.add(_make_outcome(registers, memory, include_memory))
            continue
        for t in range(num_threads):
            if pcs[t] >= len(test.threads[t].ops):
                continue
            op = test.threads[t].ops[pcs[t]]
            new_pcs = list(pcs)
            new_pcs[t] += 1
            if op.kind == "store":
                new_memory = dict(memory)
                new_memory[op.var] = op.value
                stack.append((tuple(new_pcs), tuple(sorted(new_memory.items())), regs_t))
            elif op.kind == "load":
                new_regs = dict(registers)
                new_regs[op.register] = memory.get(op.var, 0)
                stack.append((tuple(new_pcs), memory_t, tuple(sorted(new_regs.items()))))
            else:  # fence is a no-op under SC
                stack.append((tuple(new_pcs), memory_t, regs_t))
    return outcomes


def outcome_matches(outcome: Outcome, assignment: Dict[str, int]) -> bool:
    """``True`` iff ``outcome`` agrees with ``assignment`` on every key the
    assignment mentions (used to look up "interesting" partial outcomes)."""
    as_dict = dict(outcome)
    return all(as_dict.get(key) == value for key, value in assignment.items())


def any_outcome_matches(outcomes: Set[Outcome], assignment: Dict[str, int]) -> bool:
    """``True`` iff some outcome in ``outcomes`` matches ``assignment``."""
    return any(outcome_matches(outcome, assignment) for outcome in outcomes)
