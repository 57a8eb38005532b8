"""Shared fixtures: the 6-cache/21-user worked example and small helpers."""


import pytest

from seccache import BinaryField, Pda, SystemConfig, run_session, secrecy
from seccache.scheme import helper_memory_for

# The 4x6 reference array used throughout: (Lambda, F, Z, S) = (6, 4, 2, 4).
WORKED_GRID = (
    (None, None, None, 1, 2, 3),
    (None, 1, 2, None, None, 4),
    (1, None, 3, None, 4, None),
    (2, 3, None, 4, None, None),
)

WORKED_PROFILE = (6, 5, 4, 3, 2, 1)

# Expected per-user expansion of the reference array for the profile above,
# written user-major (column k of the array is row k here).
WORKED_G_COLUMNS = (
    (None, None, (1, 1), (2, 1)),
    (None, None, (1, 2), (2, 2)),
    (None, None, (1, 3), (2, 3)),
    (None, None, (1, 4), (2, 4)),
    (None, None, (1, 5), (2, 5)),
    (None, None, (1, 6), (2, 6)),
    (None, (1, 1), None, (3, 1)),
    (None, (1, 2), None, (3, 2)),
    (None, (1, 3), None, (3, 3)),
    (None, (1, 4), None, (3, 4)),
    (None, (1, 5), None, (3, 5)),
    (None, (2, 1), (3, 1), None),
    (None, (2, 2), (3, 2), None),
    (None, (2, 3), (3, 3), None),
    (None, (2, 4), (3, 4), None),
    ((1, 1), None, None, (4, 1)),
    ((1, 2), None, None, (4, 2)),
    ((1, 3), None, None, (4, 3)),
    ((2, 1), None, (4, 1), None),
    ((2, 2), None, (4, 2), None),
    ((3, 1), (4, 1), None, None),
)


@pytest.fixture(scope="session")
def gf8():
    return BinaryField(8)


@pytest.fixture(scope="session")
def gf3():
    return BinaryField(3)


@pytest.fixture(scope="session")
def gf2():
    return BinaryField(2)


@pytest.fixture
def worked_pda():
    return Pda.from_grid(WORKED_GRID)


def make_worked_session(seed=7, file_bytes=4, field=None, strip_pads=False,
                        demands=None):
    """The full 21-user reference run (N = 21, M = 21, distinct demands)."""
    pda = Pda.from_grid(WORKED_GRID)
    field = field or BinaryField(3)
    config = SystemConfig(
        num_caches=6,
        num_users=21,
        num_files=21,
        helper_memory=helper_memory_for(pda, 21),
        file_bytes=file_bytes,
        field=field,
        seed=seed,
    )
    session = run_session(pda, config, profile=WORKED_PROFILE, demands=demands)
    return secrecy.strip_pads(session) if strip_pads else session


@pytest.fixture
def worked_session():
    return make_worked_session()
