"""A ledger of the wrong answers: one test per row of ROADMAP's state table.

Each test asserts the correct behaviour and is marked strict xfail with
raises=AssertionError, so it fails on its assertion while the row stands,
a crash does not pass as the expected failure, and the fix turns it into
an XPASS that fails the suite until the fixing change removes the marker.

Validates (expected to fail today):
- row 6: the ellipsoid scaled by 1e-12 meets the Morse criteria, as it
  does at scale 1 and 1e30
- row 7: a spike narrower than the extrema lattice is seen, so max|f|
  breaks condition (ii) and its maximum is counted
"""

import numpy as np
import pytest

from bmcflow.morse import check_conditions
from bmcflow.prescribed import parse_f_spec
from bmcflow.spectral import make_grid


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5, row 6")
def test_row6_scaled_ellipsoid_meets_the_criteria():
    """4 + 0.3x^2 + 0.6y^2 + 1.05z^2 times 1e-12 has the same critical
    points and m = (2, 0, 0); the absolute degeneracy tolerance calls it
    not Morse instead."""
    rep = check_conditions(parse_f_spec("4e-12 + 3e-13x^2 + 6e-13y^2 + 1.05e-12z^2"), make_grid(31))
    assert rep["criteria_hold"] is True


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5, row 7")
def test_row7_narrow_spike_breaks_condition_ii():
    """1 + 0.1z + 0.6bump(10000; p), p the normalized sum of the L = 31
    nodes [10, 5], [10, 6], [11, 5] and [11, 6]: f(p) = 1.5535 exceeds
    sqrt(2) mean f, and the spike's peak is a second counted maximum."""
    nodes = make_grid(31).nodes()
    p = nodes[10, 5] + nodes[10, 6] + nodes[11, 5] + nodes[11, 6]
    p = p / np.linalg.norm(p)
    rep = check_conditions(parse_f_spec(f"1 + 0.1z + 0.6bump(10000; {','.join(repr(float(v)) for v in p)})"),
                           make_grid(31))
    assert rep["m"] == [2, 0, 0]
    assert rep["conditions"]["simple_bubble_ratio"] is False
