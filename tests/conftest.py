"""Fixtures shared across the test modules."""

import pytest

from nonloose.atlas import classify
from nonloose.checks import knot_classes


@pytest.fixture(scope="session")
def sweep_atlases():
    """classify(p, q, max_torsion2=2) of every coprime 1 < p < |q| <= 40,
    keyed by (p, q) in sweep order: built once per session and held here,
    so the tests that read them do not lean on classify's bounded cache."""
    return {(p, q): classify(p, q, max_torsion2=2) for p, q in knot_classes(39, 40)}
