"""Allocation policies: which unused blocks a create claims, in what order.

The factor engine keeps running under every policy; only the choice differs.
"""

import random

from .priority import top_unused, unused_addresses

APEX = "apex"
FIRST_FIT = "first-fit"
RANDOM = "random"
KINDS = (APEX, FIRST_FIT, RANDOM)


class ApexPolicy:
    """Ranking-driven: claim the highest-scored unused blocks first."""

    name = APEX

    def select(self, disk, count: int) -> list:
        return top_unused(disk, count)


class FirstFitPolicy:
    """Recovery-blind baseline: lowest addresses first."""

    name = FIRST_FIT

    def select(self, disk, count: int) -> list:
        return unused_addresses(disk, count)[:count].tolist()


class RandomPolicy:
    """Uniform without replacement, from a private seeded stream."""

    name = RANDOM

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def select(self, disk, count: int) -> list:
        return self._rng.sample(unused_addresses(disk, count).tolist(), count)


def make_policy(kind: str, seed: int = 0):
    if kind == APEX:
        return ApexPolicy()
    if kind == FIRST_FIT:
        return FirstFitPolicy()
    if kind == RANDOM:
        return RandomPolicy(seed)
    raise ValueError(f"unknown policy {kind!r}")
