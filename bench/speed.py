"""How fast this CPU runs Python right now, from a fixed reference kernel.

On a shared host a process's CPU speed can wander for seconds to
minutes at a time, whatever the process does; on the 2-core host the
benchmark was built on it wandered by up to 1.7x. A median over one run
cannot average that out, so the benchmark times the kernel below just
before and just after each timed piece of work, on the same pinned CPU,
and reports the work's time as ``elapsed * REF_S / kernel``: seconds on
a CPU that runs the kernel in REF_S. The raw times are printed beside
the corrected ones.
"""

from __future__ import annotations

import os
import time

# The kernel's time on the baseline host at full speed (it measured
# 3.8-7.8 ms there), so corrected times read as that host's wall seconds
# when it is quiet.
REF_S = 0.004


def pin() -> None:
    """Keep this process, and the processes it starts, on one CPU, so the
    reference is timed on the CPU that runs the work."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class _Fact:
    __slots__ = ("args", "at")

    def __init__(self, args: tuple[str, str], at: int) -> None:
        self.args, self.at = args, at


class _Slice:
    __slots__ = ("entity", "at")

    def __init__(self, entity: str, at: int) -> None:
        self.entity, self.at = entity, at

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Slice) and (self.entity, self.at) == (other.entity, other.at)

    def __hash__(self) -> int:
        return hash((self.entity, self.at))


_FACTS = tuple(_Fact((f"p{i % 300}", f"g{i % 150}"), 2000 + i % 10) for i in range(3000))
_LIFESPANS = {f"p{i}": (1950, 2050) for i in range(300)}


def _kernel(pattern: tuple[str, str], tick: int) -> int:
    # A pattern scan like tempcoll's core.extension: attribute reads, a
    # generator test per fact, dict lookups and a set of hashed objects.
    hole = pattern.index("_")
    members = set()
    for fact in _FACTS:
        if any(fact.args[i] != pattern[i] for i in range(len(pattern)) if i != hole):
            continue
        span = _LIFESPANS.get(fact.args[hole])
        if span is None or not span[0] <= tick <= span[1] or fact.at != tick:
            continue
        members.add(_Slice(fact.args[hole], tick))
    return len(members)


def reference_s() -> float:
    """The kernel's time now: the fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel(("_", "g7"), 2007)
        _kernel(("_", "g8"), 2008)
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn):
    """(fn(), elapsed seconds, kernel seconds around the call)."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, elapsed, (before + reference_s()) / 2


def corrected(elapsed: float, kernel: float) -> float:
    return elapsed * REF_S / kernel
