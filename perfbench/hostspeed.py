"""Scaling of measured times by the speed of the host, sampled as they run.

The benchmark shares a small machine whose speed for the same Python code
switches between about 1x and 2x, in phases from seconds to minutes, from
load it does not control; no length of run averages that away.  So the
end-to-end run also times a fixed pure-Python probe: between ops, once
``PROBE_PERIOD_S`` has passed since the last one, and a few times around
each set-up (``verify``: inside each CLI child, before and after its work).
An op that took ``t`` seconds is reported as ``t * REF_PROBE_S * mean(1 / p)``
over the probe times ``p`` around it: the time it would take on a host
where the probe takes ``REF_PROBE_S``.  A change to ``specker`` moves the
op and not the probe, so it shows in full.

A probe never runs inside a timed op of this process, so it cannot
disturb one; the probes a CLI child runs are taken out of its op's time.
(A probe run from a timer signal inside the ops was tried first: it read
the host as slower or faster than the ops themselves ran by up to 30%.)

The probe does what ``specker`` does most: object churn, small-int and
bit arithmetic, dicts, sorting and ``Fraction`` arithmetic.  It imports
nothing from ``specker``.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.01
REF_PROBE_S = 0.0003  # about the probe's time on the 2-core machine this was made on
WINDOW_S = 0.02  # probes this close to a span count for it
MIN_PROBES = 6  # else the nearest this many count


class _Node:
    def __init__(self, value: int, mask: int) -> None:
        self.value = value
        self.mask = mask

    def combine(self, other: "_Node") -> "_Node":
        return _Node(self.value + other.value, self.mask & other.mask)


def probe() -> int:
    """One run of the reference load (about 0.3 ms); returns a checksum.

    Object churn like ``specker``'s: small instances, tuples, frozensets,
    dict grouping, sorting, and a few ``Fraction`` sums.
    """
    nodes = [_Node((i * 37) % 101 - 50, (i * 2654435761) & 0xFFFF) for i in range(120)]
    pairs = [a.combine(b) for a, b in zip(nodes, nodes[1:]) if a.mask & b.mask]
    groups: dict = {}
    for node in pairs:
        groups.setdefault(node.value, []).append(node.mask)
    keyed = sorted((value, frozenset(masks)) for value, masks in groups.items())
    total = sum(value * len(masks) for value, masks in keyed)
    share = sum(Fraction(value, len(masks) + 1) for value, masks in keyed[:8])
    return total + len({m for _, masks in keyed for m in masks}) + share.numerator


_EXPECTED = probe()


class HostSpeed:
    """Probe times and the times they ended, on the ``perf_counter`` clock.

    With ``local=False`` this process runs no probe (``tick`` and
    ``bracket`` do nothing) and only collects those of its CLI children
    (``merge``).  ``spent`` is the time spent probing so far; a caller
    subtracts its growth over a span from the span's length.
    """

    def __init__(self, local: bool = True) -> None:
        self.local = local
        self.ends: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        began = time.perf_counter()
        checksum = probe()
        ended = time.perf_counter()
        if checksum != _EXPECTED:
            raise RuntimeError("the host-speed probe computed a wrong checksum")
        self.ends.append(ended)
        self.times.append(ended - began)
        self.spent += ended - began

    def tick(self) -> None:
        """Probe once if ``PROBE_PERIOD_S`` has passed since the last probe."""
        if self.local and (not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_PERIOD_S):
            self.sample()

    def bracket(self, count: int = MIN_PROBES // 2) -> None:
        """Probe ``count`` times now, as before or after a long span."""
        if self.local:
            for _ in range(count):
                self.sample()

    def to_json(self) -> dict:
        return {"ends": self.ends, "times": self.times, "spent": self.spent}

    def merge(self, data: dict) -> None:
        """Add the probes a child process took (``perf_counter`` is system-wide)."""
        for end, took in zip(data["ends"], data["times"]):
            at = bisect.bisect_right(self.ends, end)
            self.ends.insert(at, end)
            self.times.insert(at, took)
        self.spent += data["spent"]

    def factor(self, start: float, end: float) -> float:
        """Scale factor for a span, from the probes within ``WINDOW_S`` of it.

        When fewer than ``MIN_PROBES`` are that close, the ``MIN_PROBES``
        nearest to the span count instead.
        """
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.ends)):
            if hi == len(self.ends) or (lo > 0 and start - self.ends[lo - 1] <= self.ends[hi] - end):
                lo -= 1
            else:
                hi += 1
        near = self.times[lo:hi]
        return REF_PROBE_S * sum(1 / took for took in near) / len(near)
