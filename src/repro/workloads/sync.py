"""TSO synchronization library used by the workload programs.

Everything here is built from plain loads, stores and atomic RMWs — exactly
the way the paper's workloads synchronize (§3.1: "synchronization constructs
themselves are typically constructed using unsynchronized writes (releases)
and reads (acquires)") — so running these on TSO-CC exercises precisely the
write-propagation and ordering machinery the protocol provides.

All primitives are *sub-generators*: call them with ``yield from`` inside a
program.  Spin loops include a polling backoff (``Work``) both for realism
(PAUSE-style spinning) and to keep simulated event counts reasonable.
"""

from __future__ import annotations

from typing import Generator

from repro.cpu.instruction import Load, RMW, Store, Work

#: Default polling backoff (cycles) in spin loops.
DEFAULT_BACKOFF = 4

#: Safety bound on spin iterations — hitting it almost certainly means the
#: coherence protocol failed to propagate a write (a protocol bug), so the
#: workload fails loudly instead of hanging the simulation.
MAX_SPINS = 2_000_000


class SpinTimeout(RuntimeError):
    """Raised when a spin loop exceeds :data:`MAX_SPINS` iterations."""


def spin_until_equals(address: int, expected: int,
                      backoff: int = DEFAULT_BACKOFF) -> Generator:
    """Spin-read ``address`` until it equals ``expected``."""
    spins = 0
    while True:
        value = yield Load(address)
        if value == expected:
            return value
        spins += 1
        if spins > MAX_SPINS:
            raise SpinTimeout(f"spin_until_equals({address:#x}, {expected}) "
                              f"exceeded {MAX_SPINS} iterations")
        yield Work(backoff)


def spin_until_changed(address: int, old: int,
                       backoff: int = DEFAULT_BACKOFF) -> Generator:
    """Spin-read ``address`` until it differs from ``old``; returns the new
    value."""
    spins = 0
    while True:
        value = yield Load(address)
        if value != old:
            return value
        spins += 1
        if spins > MAX_SPINS:
            raise SpinTimeout(f"spin_until_changed({address:#x}) exceeded "
                              f"{MAX_SPINS} iterations")
        yield Work(backoff)


# ---------------------------------------------------------------------------
# Test-and-set spinlock
# ---------------------------------------------------------------------------

def lock_acquire(lock_address: int, backoff: int = DEFAULT_BACKOFF) -> Generator:
    """Acquire a test-and-test-and-set spinlock at ``lock_address``."""
    spins = 0
    while True:
        old = yield RMW.test_and_set(lock_address)
        if old == 0:
            return None
        # Locked by someone else: spin on reads until it looks free, then
        # retry the atomic (test-and-test-and-set).
        while True:
            value = yield Load(lock_address)
            if value == 0:
                break
            spins += 1
            if spins > MAX_SPINS:
                raise SpinTimeout(f"lock_acquire({lock_address:#x}) exceeded "
                                  f"{MAX_SPINS} iterations")
            yield Work(backoff)


def lock_release(lock_address: int) -> Generator:
    """Release a spinlock (a plain store — the TSO release)."""
    yield Store(lock_address, 0)


# ---------------------------------------------------------------------------
# Ticket lock (FIFO fairness; used by the queue-based workloads)
# ---------------------------------------------------------------------------

def ticket_lock_acquire(next_ticket_address: int, now_serving_address: int,
                        backoff: int = DEFAULT_BACKOFF) -> Generator:
    """Acquire a ticket lock (fetch-add a ticket, spin on now-serving)."""
    ticket = yield RMW.fetch_add(next_ticket_address, 1)
    spins = 0
    while True:
        serving = yield Load(now_serving_address)
        if serving == ticket:
            return ticket
        spins += 1
        if spins > MAX_SPINS:
            raise SpinTimeout("ticket_lock_acquire exceeded spin bound")
        yield Work(backoff)


def ticket_lock_release(now_serving_address: int, ticket: int) -> Generator:
    """Release a ticket lock held with ``ticket``."""
    yield Store(now_serving_address, ticket + 1)


# ---------------------------------------------------------------------------
# Sense-reversing centralized barrier
# ---------------------------------------------------------------------------

def barrier_wait(count_address: int, generation_address: int, participants: int,
                 backoff: int = DEFAULT_BACKOFF) -> Generator:
    """Wait on a centralized sense-reversing barrier.

    The barrier is two line-aligned words: an arrival counter and a
    generation number.  The last arriver resets the counter and bumps the
    generation; everyone else spins on the generation.
    """
    generation = yield Load(generation_address)
    arrived = yield RMW.fetch_add(count_address, 1)
    if arrived == participants - 1:
        yield Store(count_address, 0)
        yield Store(generation_address, generation + 1)
        return None
    yield from spin_until_changed(generation_address, generation, backoff=backoff)
    return None


# ---------------------------------------------------------------------------
# Sequence lock (reader side used by read-mostly workloads)
# ---------------------------------------------------------------------------

def seqlock_read(seq_address: int, read_body, backoff: int = DEFAULT_BACKOFF) -> Generator:
    """Read under a sequence lock.

    ``read_body`` is a zero-argument sub-generator performing the reads and
    returning a value; it is re-executed until the sequence number is even
    and unchanged across the body.
    """
    attempts = 0
    while True:
        start = yield Load(seq_address)
        if start % 2 == 1:
            attempts += 1
            if attempts > MAX_SPINS:
                raise SpinTimeout("seqlock_read starved")
            yield Work(backoff)
            continue
        value = yield from read_body()
        end = yield Load(seq_address)
        if end == start:
            return value
        attempts += 1
        if attempts > MAX_SPINS:
            raise SpinTimeout("seqlock_read starved")
