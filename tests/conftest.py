"""Fixtures shared across the test modules."""

import pytest

from nonloose.atlas import classify
from nonloose.checks import knot_classes


@pytest.fixture(scope="session")
def sweep_atlases():
    """classify(p, q, max_torsion2=2) of every coprime 1 < p < |q| <= 40,
    keyed by (p, q) in sweep order: built once per session and held here,
    since classify's cache keeps only the last 128 atlases.  A test that
    calls classify over the sweep itself (check_structural in criterion 7)
    builds most of them again."""
    return {(p, q): classify(p, q, max_torsion2=2) for p, q in knot_classes(39, 40)}
