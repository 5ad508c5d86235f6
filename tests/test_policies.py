"""Policy copies: a copied policy chooses as the original would, and keeps
no state in common with it."""

import random

import numpy as np
import pytest

from apexsim.policies import APEX, FIRST_FIT, RandomPolicy, make_policy

from conftest import BlockLists, make_disk


def test_random_copy_goes_on_with_the_stream_and_leaves_the_original():
    """On two identical disks the copy draws what the original draws next;
    drawing from the copy first leaves the original's stream where it was."""
    disk, twin_disk = make_disk(rows=8, cols=8), make_disk(rows=8, cols=8)
    policy = RandomPolicy(seed=4)
    files, twin_files = BlockLists(), BlockLists()
    first = policy.select(disk, 3)  # move the stream off its seed
    files.claim(disk, first, 1)
    twin_files.claim(twin_disk, first, 1)
    twin = policy.copy()
    assert twin is not policy and twin._rng is not policy._rng
    twin_picks = []
    for fid in range(2, 8):
        twin_picks.append(twin.select(twin_disk, 5))
        twin_files.claim(twin_disk, twin_picks[-1], fid)
    for fid, want in enumerate(twin_picks, start=2):
        got = policy.select(disk, 5)
        assert got.tolist() == want.tolist()
        files.claim(disk, got, fid)


@pytest.mark.parametrize("kind", [APEX, FIRST_FIT])
def test_stateless_copy_selects_as_the_original(kind):
    disk, twin_disk = make_disk(rows=8, cols=8), make_disk(rows=8, cols=8)
    policy = make_policy(kind)
    twin = policy.copy()
    files, twin_files = BlockLists(), BlockLists()
    for fid in range(1, 7):
        want = policy.select(disk, 5)
        got = twin.select(twin_disk, 5)
        assert got.tolist() == want.tolist()
        files.claim(disk, want, fid)
        twin_files.claim(twin_disk, got, fid)


@pytest.mark.parametrize("used", [0, 30, 60])
@pytest.mark.parametrize("count", [0, 1, 4])
def test_random_select_draws_what_sampling_the_free_list_draws(used, count):
    """The random policy samples positions of the free addresses; that is the
    draw random.sample makes on the list of them, on either side of sample's
    switch from a pool to a set of picks."""
    disk = make_disk(rows=8, cols=8)
    disk.used_mask[random.Random(used).sample(range(64), used)] = True
    free = np.flatnonzero(~disk.used_mask).tolist()
    policy, reference = RandomPolicy(seed=used + count), random.Random(used + count)
    for _ in range(3):
        got = policy.select(disk, count)
        assert got.dtype == np.intp and got.tolist() == reference.sample(free, count)
