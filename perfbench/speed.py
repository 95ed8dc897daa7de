"""The machine's speed, sampled next to every timed region.

The benchmark runs on a shared virtual machine whose speed drifts with
its neighbours' load: the kernel below ran up to 45% slower in some 30 s
stretches than in others, and the benchmark's ops slowed with it. This
fixed kernel of pure-Python work, run just before and just after each
timed region, reads that speed. The end-to-end times are scaled by REFERENCE_S over the
kernel's mean time around them: they are the seconds the region would have
taken at the speed where the kernel takes REFERENCE_S. The kernel belongs
to the benchmark and never calls the package.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# a round figure near the median time of kernel() on a shared 2-core VM with
# Python 3.11.7, over 15 minutes of mixed load
REFERENCE_S = 0.012


class _Pair:
    __slots__ = ("key", "items")

    def __init__(self, key, items):
        self.key = key
        self.items = items


def kernel():
    """About 10 ms of the operations the package spends its time on:
    integer arithmetic, small objects in dicts and lists, a sort, floats
    and Fractions."""
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    table = {}
    for i in range(6_000):
        pair = _Pair(i * 0.5, [i, i + 1])
        table[i % 97] = pair
        if i % 500 == 0:
            acc += len(sorted(table.values(), key=lambda p: p.key)[:3])
        pair.items.append(pair.key * 1.0001)
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i, i + 3)
    return acc + len(table) + total.denominator % 7


def sample():
    """Seconds one kernel() takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale(before, after):
    """Factor that takes a time measured between the kernel samples
    `before` and `after` to the reference speed."""
    return 2 * REFERENCE_S / (before + after)
