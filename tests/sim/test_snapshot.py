"""Copy-on-write forked branches (``repro.sim.snapshot``)."""

import gc

import pytest

from repro.sim.snapshot import HAVE_FORK, BranchError, ForkBranch, cow_fork_map

pytestmark = pytest.mark.skipif(not HAVE_FORK, reason="os.fork unavailable")


def test_child_freezes_the_inherited_heap_and_the_parent_does_not():
    """The child moves everything it inherited into the permanent
    generation, so its collector never walks (and copies) the parent's
    pages; the parent's own collector is left as it was."""
    before = gc.get_freeze_count()
    branch = ForkBranch(gc.get_freeze_count)
    assert branch.result() > 0
    assert gc.get_freeze_count() == before


def test_cow_fork_map_returns_results_in_branch_order():
    seen = []

    def square(i):
        seen.append(i)          # mutates only the child's copy
        return i * i

    branches = [lambda i=i: square(i) for i in range(5)]
    assert cow_fork_map(branches, max_live=2) == [0, 1, 4, 9, 16]
    assert seen == []


def test_failing_branch_raises_with_the_child_traceback():
    def boom():
        raise ValueError("tail exploded")

    branch = ForkBranch(boom)
    with pytest.raises(BranchError, match="tail exploded"):
        branch.result()
    with pytest.raises(BranchError):
        branch.result()
