"""Allocation policies: which unused blocks a create claims, in what order.

The factor engine keeps running under every policy; only the choice differs.
A policy's copy() carries whatever state its choices depend on, so a copied
file system allocates as the original would.
"""

import random

from .priority import top_unused, unused_addresses

APEX = "apex"
FIRST_FIT = "first-fit"
RANDOM = "random"
KINDS = (APEX, FIRST_FIT, RANDOM)
SEED_FREE = (APEX, FIRST_FIT)  # the kinds whose choices never read the seed


class ApexPolicy:
    """Ranking-driven: claim the highest-scored unused blocks first."""

    name = APEX

    def select(self, disk, count: int) -> list:
        return top_unused(disk, count)

    def copy(self) -> "ApexPolicy":
        return self  # stateless


class FirstFitPolicy:
    """Recovery-blind baseline: lowest addresses first."""

    name = FIRST_FIT

    def select(self, disk, count: int) -> list:
        return unused_addresses(disk, count)[:count].tolist()

    def copy(self) -> "FirstFitPolicy":
        return self  # stateless


class RandomPolicy:
    """Uniform without replacement, from a private seeded stream."""

    name = RANDOM

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def select(self, disk, count: int) -> list:
        return self._rng.sample(unused_addresses(disk, count).tolist(), count)

    def copy(self) -> "RandomPolicy":
        """A policy whose stream goes on from where this one's stands."""
        twin = RandomPolicy()
        twin._rng.setstate(self._rng.getstate())
        return twin


def make_policy(kind: str, seed: int = 0):
    if kind == APEX:
        return ApexPolicy()
    if kind == FIRST_FIT:
        return FirstFitPolicy()
    if kind == RANDOM:
        return RandomPolicy(seed)
    raise ValueError(f"unknown policy {kind!r}")
