import pytest

from apexsim.disk import claim, new_disk
from apexsim.model import DiskGeometry, Hyperparams, Neighborhood
from apexsim.policies import ApexPolicy
from apexsim.vfs import FileSystem


def make_disk(rows=4, cols=4, hp=(4, 7, 1, 9), neighborhood="grid-row", block_size=4096):
    geo = DiskGeometry(
        rows=rows,
        cols=cols,
        block_size_bytes=block_size,
        neighborhood=Neighborhood.parse(neighborhood),
    )
    return new_disk(geo, Hyperparams(*hp))


def make_fs(disk=None, policy=None, invert_link_rule=False, **disk_kw):
    if disk is None:
        disk = make_disk(**disk_kw)
    return FileSystem(disk, policy=policy or ApexPolicy(), invert_link_rule=invert_link_rule)


class BlockLists(dict):
    """Each file's block list by id, for claims on a bare disk, where no file
    layer keeps them: a claim reads its prior owners' lists from here."""

    def claim(self, disk, addrs, file_id):
        emptied = claim(disk, addrs, file_id, self.__getitem__)
        self[file_id] = list(addrs)
        return emptied


def claim_over(fs, addrs, file_id):
    """Stamp new content onto freed blocks of fs's disk under a file id the
    file system never hands out: prior owners' blocks are read from its
    recoverable table, as a create reads them."""
    return claim(fs.disk, list(addrs), file_id, lambda owner: fs._recoverable[owner].block_list)


class ScriptedPolicy:
    """Hands out pre-chosen address lists, one per create call."""

    name = "scripted"

    def __init__(self, *picks):
        self._picks = list(picks)

    def select(self, disk, count):
        pick = self._picks.pop(0)
        assert len(pick) == count, f"script expected {len(pick)} blocks, create wants {count}"
        return list(pick)


@pytest.fixture
def fs4():
    """4x4 disk with the reference coefficients and an apex policy."""
    return make_fs(rows=4, cols=4)
