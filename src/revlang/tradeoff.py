"""Exact-count simulators of the two ways to visit a computation backwards.

`bennett_run` recursively partitions a step chain into k sectors, computes
them forward (P), then uncomputes all but the last (Q); with length k^n it
performs exactly (2k-1)^n step applications and holds at most n(k-1)+2
states at once. `treeverse_run` is the binomial checkpointing schedule:
with d snapshot slots it replays every state exactly once in reverse
order using at most t*T forward steps, where t is the smallest integer
with eta(t, d) = C(t+d, d) >= T. The closed-form cost model for the
recursive uncomputation trade-off is in `analytic_rev_cost`.
"""

import math
from copy import deepcopy
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBudget, InvalidPartition, NonConformingLength, \
    RevDomainError, ScheduleError


@dataclass
class StepProgram:
    """A T-step chain: state_{i} = step(i, state_{i-1}) for i = 1..T.
    `step` must be pure (schedules replay it)."""

    length: int
    step: object                   # (i, state) -> new state
    initial: object
    copy: object = field(default=deepcopy)


@dataclass
class ScheduleCounters:
    forward_steps: int = 0
    inverse_steps: int = 0
    peak_states: int = 0
    snapshots_peak: int = 0

    @property
    def total_steps(self):
        return self.forward_steps + self.inverse_steps

    def to_dict(self):
        return {"forward_steps": self.forward_steps,
                "inverse_steps": self.inverse_steps,
                "total_steps": self.total_steps,
                "peak_states": self.peak_states,
                "snapshots_peak": self.snapshots_peak}


def eta(t, d):
    """Binomial reach: C(t+d, d), exact integer arithmetic."""
    if t < 0 or d < 0:
        raise ScheduleError(f"eta needs non-negative arguments, got ({t}, {d})")
    return math.comb(t + d, d)


def bennett_counts(k, n):
    """Closed forms: total step applications (2k-1)^n and peak
    simultaneously-live states n(k-1)+2."""
    if k < 2:
        raise InvalidPartition(f"need k >= 2, got {k}")
    if n < 0:
        raise ScheduleError(f"need n >= 0, got {n}")
    return (2 * k - 1) ** n, n * (k - 1) + 2


def bennett_run(prog, k, strict=False):
    """Advance the chain its `prog.length` steps from the initial state
    with the k-way recursive compute/uncompute schedule, erasing every
    intermediate state as it goes.

    States live in a dict keyed by 1-based chain position; `peak_states`
    is the largest number of simultaneously stored states.
    Returns (final_state, counters).
    """
    if k < 2:
        raise InvalidPartition(f"need k >= 2, got {k}")
    length = prog.length
    if length < 1:
        raise ScheduleError(f"need length >= 1, got {length}")
    if strict:
        m = length
        while m % k == 0:
            m //= k
        if m != 1:
            raise NonConformingLength(
                f"length {length} is not a power of {k}")

    states = {1: prog.copy(prog.initial)}
    counters = ScheduleCounters(peak_states=1, snapshots_peak=1)

    def note_peak():
        if len(states) > counters.peak_states:
            counters.peak_states = len(states)
            counters.snapshots_peak = counters.peak_states

    def forward_unit(i):
        # state_{i+1} <- 0 ; state_{i+1} += step(i, state_i)
        states[i + 1] = prog.step(i, states[i])
        counters.forward_steps += 1
        note_peak()

    def inverse_unit(i):
        # state_{i+1} -= step(i, state_i) ; state_{i+1} -> 0
        recomputed = prog.step(i, states[i])
        counters.inverse_steps += 1
        if not _states_equal(states[i + 1], recomputed):
            raise ScheduleError(
                f"uncompute mismatch at step {i}: the step function is not pure")
        del states[i + 1]

    def bennett(b, ln, uncall):
        if ln == 1:
            (inverse_unit if uncall else forward_unit)(b)
            return
        sector = -(-ln // k)  # ceil; the closing sector may be shorter
        starts = list(range(0, ln, sector))
        if not uncall:
            for off in starts:
                bennett(b + off, min(sector, ln - off), False)
            for off in reversed(starts[:-1]):
                bennett(b + off, sector, True)
        else:
            for off in starts[:-1]:
                bennett(b + off, sector, False)
            for off in reversed(starts):
                bennett(b + off, min(sector, ln - off), True)

    bennett(1, length, False)
    return states[1 + length], counters


def _states_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def treeverse_run(prog, d, backstep, acc=None):
    """Visit states T, T-1, ..., 1 exactly once each, threading
    `backstep(i, state_i, acc) -> acc`, while holding at most d snapshots
    beyond the working state.

    The schedule: hold the segment base in a slot, advance eta(t-1, d)
    steps, solve the right segment with one slot fewer, then rewind to the
    base and solve the left segment. With d >= T it degenerates to full
    caching (T forward steps); with d = 1 it is quadratic replay from the
    first computed state.
    """
    if d < 1:
        raise InvalidBudget(f"need at least one snapshot slot, got {d}")
    T = prog.length
    if T < 1:
        raise ScheduleError(f"need at least one step, got length {T}")

    counters = ScheduleCounters()
    snapshots = []

    def push(state):
        snapshots.append(prog.copy(state))
        if len(snapshots) > d:
            raise InvalidBudget("snapshot budget exceeded (internal)")
        counters.snapshots_peak = max(counters.snapshots_peak, len(snapshots))

    def advance(state, lo, count):
        for i in range(lo + 1, lo + count + 1):
            state = prog.step(i, state)
            counters.forward_steps += 1
        return state

    def solve(lo, hi, budget, w):
        # visit states hi..lo (inclusive); w currently holds state lo
        nonlocal acc
        if lo == hi:
            acc = backstep(lo, w, acc)
            return
        if budget < 1:
            raise InvalidBudget("snapshot budget exhausted (internal)")
        L = hi - lo
        t = 1
        while eta(t, budget) < L + 1:
            t += 1
        kappa = min(eta(t - 1, budget), L)
        push(w)
        w2 = advance(w, lo, kappa)
        solve(lo + kappa, hi, budget - 1, w2)
        w = snapshots.pop()
        solve(lo, lo + kappa - 1, budget, w)

    working = advance(prog.copy(prog.initial), 0, 1)
    solve(1, T, d, working)
    counters.peak_states = counters.snapshots_peak + 1
    return acc, counters


def treeverse_time_bound(T, d):
    """t*T with t minimal such that eta(t, d) >= T (t at least 1: a single
    state still costs one forward step to reach)."""
    t = 1
    while eta(t, d) < T:
        t += 1
    return t * T


def analytic_rev_cost(T, S, k):
    """Closed-form time/space of the k-way recursive uncomputation
    schedule applied to a T-step, S-space program:

        T_r = T * (T/S) ** (ln(2 - 1/k) / ln k)
        S_r = (k - 1) / ln(k) * S * ln(T/S)

    The logarithm in S_r is natural: the recursion has ln(T/S)/ln(k)
    levels and each level pins k-1 extra states of size S.
    """
    if T <= 0 or S <= 0:
        raise RevDomainError(f"need positive T and S, got ({T}, {S})")
    if T < S:
        raise RevDomainError(f"need T >= S, got ({T}, {S})")
    if k < 2:
        raise InvalidPartition(f"need k >= 2, got {k}")
    ratio = T / S
    t_r = T * ratio ** (math.log(2.0 - 1.0 / k) / math.log(k))
    s_r = (k - 1) / math.log(k) * S * math.log(ratio)
    return t_r, s_r
