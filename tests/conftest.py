import tempfile
import time

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from aplab.characters import CharacterTable, build_group
from aplab.cli import build_levels
from aplab.discrepancy import certify_constants
from aplab.mixed_norm import ExponentSchedule

SEED = 7

# Property tests draw the same examples on every run and keep no example
# database; hypothesis's other caches go to a directory removed at exit.
settings.register_profile("aplab", derandomize=True, database=None, deadline=None)
settings.load_profile("aplab")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="aplab-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def power_schedule():
    return ExponentSchedule.power(0.5)


@pytest.fixture(scope="session")
def log_schedule():
    return ExponentSchedule.log_rate()


@pytest.fixture(scope="session")
def small_data():
    """Levels 0..5: exhaustive searches where small, seeded random above."""
    return build_levels(max_level=5, seed=SEED, budget=512, sign_budget=48)


@pytest.fixture(scope="session")
def full_bundle():
    """Levels 0..9 plus certified constants over levels 0..8, with timings."""
    t0 = time.time()
    data = build_levels(max_level=9, seed=SEED, budget=2048, sign_budget=64)
    build_seconds = time.time() - t0
    t1 = time.time()
    constants = certify_constants(range(0, 9), data)
    certify_seconds = time.time() - t1
    return {
        "data": data,
        "constants": constants,
        "build_seconds": build_seconds,
        "certify_seconds": certify_seconds,
    }


@pytest.fixture(scope="session")
def tables_through_8():
    return [CharacterTable(build_group(n)) for n in range(9)]
