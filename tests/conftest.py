"""Fixtures shared across the test modules."""

import pytest

from nonloose.atlas import classify
from nonloose.checks import knot_classes


@pytest.fixture(scope="session")
def sweep_atlases():
    """classify(p, q, max_torsion2=2) of every coprime 1 < p < |q| <= 40,
    keyed by (p, q) in sweep order: built once per session and held here,
    since classify's cache keeps only the last 128 atlases.  A test that
    walks the sweep reads them here, and hands them to a check that takes
    atlases (check_structural in criterion 7), rather than classify the
    sweep again."""
    return {(p, q): classify(p, q, max_torsion2=2) for p, q in knot_classes(39, 40)}
