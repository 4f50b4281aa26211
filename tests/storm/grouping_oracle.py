"""Per-tuple reference policies the compiled routers are held to.

One plain statement per shipped grouping of which task(s) receive a
tuple, driven one ``choose(values)`` call at a time.  The parity tests
compare every ``Grouping.compile_router`` closure against these.
"""

import math

from repro.storm.tuples import Tuple, stable_hash


class ShuffleOracle:
    def __init__(self, tasks, rng):
        self.tasks = list(tasks)
        self.next = int(rng.integers(0, len(self.tasks)))

    def choose(self, values):
        t = self.tasks[self.next]
        self.next = (self.next + 1) % len(self.tasks)
        return [t]


class FieldsOracle:
    def __init__(self, tasks, fields, declared):
        self.ordered = sorted(tasks)
        self.fields, self.declared = tuple(fields), tuple(declared)

    def choose(self, values):
        key = Tuple(values=values, fields=self.declared).select(self.fields)
        return [self.ordered[stable_hash(key) % len(self.ordered)]]


class GlobalOracle:
    def __init__(self, tasks):
        self.tasks = list(tasks)

    def choose(self, values):
        return [min(self.tasks)]


class DynamicOracle:
    def __init__(self, tasks, control):
        self.tasks, self.control = list(tasks), control
        self.credit = [0.0] * len(self.tasks)
        self.version = -1  # forces a ratio read on the first tuple

    def choose(self, values):
        if self.control.version != self.version:
            self.credit = [0.0] * len(self.tasks)
            self.ratios = self.control.ratios.tolist()
            self.version = self.control.version
        top, winner = -math.inf, 0
        for i, ratio in enumerate(self.ratios):
            self.credit[i] += ratio
            if self.credit[i] > top:
                top, winner = self.credit[i], i
        self.credit[winner] -= 1.0
        return [self.tasks[winner]]
