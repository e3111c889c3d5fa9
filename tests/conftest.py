import json
from pathlib import Path

import pytest

from milnorhodge.arrangement import boolean_arrangement, ceva_arrangement, parse_arrangement
from milnorhodge.assembly import SurfaceH3Data
from milnorhodge.repring import HodgeTable, ReprClass

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture
def boolean():
    return boolean_arrangement()


@pytest.fixture
def generic3():
    return parse_arrangement((DATA / "generic3.txt").read_text())


@pytest.fixture
def ceva():
    return ceva_arrangement()


def ceva_h3(weight3_mult: int = 2) -> SurfaceH3Data:
    """H3(X) data for the Ceva arrangement: the two-dimensional pieces sit at
    the primitive cube-root characters (exponents 6 and 3 for d = 9)."""
    return SurfaceH3Data(
        HodgeTable(
            9,
            {
                (2, 1): ReprClass.character(9, 6, weight3_mult),
                (1, 2): ReprClass.character(9, 3, weight3_mult),
            },
        )
    )


@pytest.fixture
def h3_ceva() -> SurfaceH3Data:
    loaded = json.loads((DATA / "ceva_h3x.json").read_text())
    return SurfaceH3Data(HodgeTable.from_json_dict(loaded))
