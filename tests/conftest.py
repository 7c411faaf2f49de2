import os

import pytest

_FDS = "/proc/self/fd"


def _open_fds():
    """This process's open file descriptors and what each refers to.  The
    listing's own descriptor is closed by the time it is read, so it is
    left out."""
    fds = {}
    for fd in os.listdir(_FDS):
        try:
            fds[fd] = os.readlink(os.path.join(_FDS, fd))
        except FileNotFoundError:
            pass
    return fds


# ResourceWarning sees a file object left open, not a descriptor that
# os.open or os.dup returned: a test that leaves any new descriptor open
# fails.  Without /proc there is nothing to list, and nothing is checked.
@pytest.fixture(autouse=True)
def no_leaked_descriptors():
    if not os.path.isdir(_FDS):
        yield
        return
    before = _open_fds()
    yield
    after = _open_fds()
    leaked = {fd: after[fd] for fd in after.keys() - before.keys()}
    assert not leaked, f"descriptors left open: {leaked}"
