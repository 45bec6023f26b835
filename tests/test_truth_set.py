"""The committed truth set recomputed on the backend under test.

Wire transcripts and operation counts are exact, so any difference is a
behaviour change, not noise: a speed-up must leave ``tests/data/truth_set.json``
untouched.  The message names the first differing scheme and field.
``REPRO_FIELD_BACKEND`` picks the backend (plain by default; the CI matrix
runs a montgomery leg).  See ``tests/truthset.py`` to regenerate the file.
"""

import pytest

import truthset
from repro.field.backend import default_backend_name


@pytest.fixture(scope="module")
def truth():
    return truthset.load()


def test_wire_transcripts_match(truth):
    actual = {name: truthset.transcript(name) for name in truth["transcripts"]}
    assert set(truth["transcripts"]) == set(truthset.available_schemes())
    problem = truthset.first_difference(truth["transcripts"], actual, "transcript")
    assert problem is None, f"truth set on {default_backend_name()}: {problem}"


def test_batch_tallies_match(truth):
    problem = truthset.first_difference(truth["batch"], truthset.batch_cells(), "batch")
    assert problem is None, f"truth set on {default_backend_name()}: {problem}"
