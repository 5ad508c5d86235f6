import numpy as np
import pytest

from apexsim.disk import claim, new_disk
from apexsim.model import DiskGeometry, Hyperparams, Neighborhood
from apexsim.policies import ApexPolicy
from apexsim.vfs import FileSystem
from apexsim.workload import apply_ops, generate_ops


def make_disk(rows=4, cols=4, hp=(4, 7, 1, 9), neighborhood="grid-row"):
    geo = DiskGeometry(rows=rows, cols=cols, neighborhood=Neighborhood.parse(neighborhood))
    return new_disk(geo, Hyperparams(*hp))


def make_fs(disk=None, policy=None, invert_link_rule=False, **disk_kw):
    if disk is None:
        disk = make_disk(**disk_kw)
    return FileSystem(disk, policy=policy or ApexPolicy(), invert_link_rule=invert_link_rule)


class BlockLists(dict):
    """Each file's block list by id, an np.intp array as the file layer keeps
    it, for claims on a bare disk, where no file layer keeps them: a claim
    reads its prior owners' lists from here."""

    def claim(self, disk, addrs, file_id):
        emptied = claim(disk, addrs, file_id, self.__getitem__)
        self[file_id] = np.array(addrs, dtype=np.intp)
        return emptied


def applied_ops(cfg, fs):
    """cfg's seeded op stream for fs, a fresh file system: each
    op is applied to fs, as run_simulation applies it, before it is
    yielded."""
    for op in generate_ops(cfg, fs.disk.geometry.total_blocks):
        apply_ops((op,), fs)
        yield op


def claim_over(fs, addrs, file_id):
    """Stamp new content onto freed blocks of fs's disk under a file id the
    file system never hands out: prior owners' blocks are read from its
    recoverable table, as a create reads them."""
    return claim(fs.disk, list(addrs), file_id, lambda owner: fs._recoverable[owner].block_list)


class ScriptedPolicy:
    """Hands out pre-chosen addresses, one np.intp array per create call, as
    a policy's select does."""

    name = "scripted"

    def __init__(self, *picks):
        self._picks = list(picks)

    def select(self, disk, count):
        pick = self._picks.pop(0)
        assert len(pick) == count, f"script expected {len(pick)} blocks, create wants {count}"
        return np.array(pick, dtype=np.intp)


@pytest.fixture
def fs4():
    """4x4 disk with the reference coefficients and an apex policy."""
    return make_fs(rows=4, cols=4)
