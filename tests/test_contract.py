"""The typed-error contract at the public boundary, on drawn inputs.

Every public result is finite and verified, or the call raises a typed
error.  The draws are derandomised, so every run checks the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilayer1d import DoubleLayerSpec, build_chi_problem, find_roots, verify_ladder
from bilayer1d.oracle import level_count

# |V| up to 1e4 and widths up to 14, so sqrt|V| * l reaches 1400 (about
# 450 levels in one layer); zero widths, zero depths and a zero gap are
# drawn too.  One layer, either one, is drawn with V <= 0, so that most
# draws have a bound sector.
widths = st.floats(0.0, 14.0)
drawn = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def specs(draw):
    well = draw(st.floats(-1e4, 0.0)), draw(widths)
    other = draw(st.floats(-1e4, 1e4)), draw(widths)
    first, second = (other, well) if draw(st.booleans()) else (well, other)
    return DoubleLayerSpec.make(*first, *second, draw(st.floats(0.0, 5.0)))


@drawn
@given(specs())
def test_find_roots_gives_an_ordered_ladder_or_a_value_error(spec):
    try:
        ladder = find_roots(build_chi_problem(spec))
    except ValueError:
        return
    kappas = ladder.kappas
    assert np.all(np.isfinite(kappas))
    assert np.all(kappas > 0.0)
    assert np.all(kappas < math.sqrt(max(-spec.v1, -spec.v2)))
    assert np.all(np.diff(kappas) >= 0.0)
    # levels closer than the float spacing come back equal or adjacent,
    # a doublet that the count cannot certify
    if np.any(kappas[1:] <= np.nextafter(kappas[:-1], np.inf)):
        assert not verify_ladder(spec, ladder).ok


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md line 39: verify_ladder certifies a ladder that misses a level just "
    "below threshold; a weak or thin well such as make(-2e-171, 2, 0, 0, 0) has one "
    "level at kappa ~ 2e-171, where the float phase G(0) is exactly 0, so N(0) = 0 "
    "and the empty ladder is certified"))
@drawn
@given(specs())
def test_a_certified_ladder_holds_every_level(spec):
    try:
        ladder = find_roots(build_chi_problem(spec))
    except ValueError:
        return
    if verify_ladder(spec, ladder).ok:
        assert ladder.n == level_count(spec, 0.0)
