"""The typed-error contract at the public boundary, on drawn inputs.

Every public result is finite and verified, or the call raises a typed
error.  The draws are derandomised, so every run checks the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bilayer1d import (
    DoubleLayerSpec,
    SqueezeFamily,
    amplitude_grid,
    build_chi_problem,
    find_roots,
    matrix_entries,
    reflection_transmission,
    scattering_data,
    total_matrix,
    verify_ladder,
)
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


# ---------------------------------------------------------------------------
# construction


@drawn
@given(st.tuples(*[st.floats()] * 5))
def test_a_spec_is_built_exactly_when_its_fields_are_valid(fields):
    # st.floats() draws NaN, infinities and negative zero among the rest
    _, l1, _, l2, r = fields
    valid = all(math.isfinite(x) for x in fields) and min(l1, l2, r) >= 0.0
    try:
        DoubleLayerSpec(*fields)
    except ValueError:
        assert not valid
    else:
        assert valid


FAMILY_FIELDS = ("mu", "nu", "tau", "h1", "h2", "d1", "d2", "c")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.tuples(*[st.one_of(*[st.floats(0.25, 3.0)] * 4, st.floats())] * 8))
def test_a_family_is_built_exactly_when_its_fields_are_valid(fields):
    # most fields are plausible, so that valid families are drawn too; the
    # rest are any float, NaN and infinities among them
    mu, nu, tau, _, _, d1, d2, c = fields
    valid = (all(math.isfinite(x) for x in fields)
             and min(mu, nu, tau, d1, d2, c) > 0.0 and 1.0 - mu + nu > 0.0)
    try:
        SqueezeFamily(*fields)
    except ValueError as err:
        assert not valid
        # the message names an offending field, or the width condition
        bad = [n for n, x in zip(FAMILY_FIELDS, fields)
               if not math.isfinite(x) or (x <= 0.0 and n not in ("h1", "h2"))]
        assert any(f"field {n} " in str(err) for n in bad) if bad else "1 - mu + nu" in str(err)
    else:
        assert valid


# ---------------------------------------------------------------------------
# scattering


def _scattering_values(spec, ks):
    """Every number the four scattering functions give on ks."""
    a, b = amplitude_grid(spec, ks)
    values = [a, b, *matrix_entries(spec, ks * ks)]
    for k in ks.tolist():
        data, rt = scattering_data(spec, k), reflection_transmission(spec, k)
        values.append([data.a, data.b, rt.r_right, rt.t, rt.r_left])
    return values


@st.composite
def layers(draw, opacity):
    """(V, l) with V in [-1e4, 1e4] and, for a barrier, sqrt(V) * l at most
    opacity."""
    v = draw(st.floats(-1e4, 1e4))
    longest = 14.0 if v <= 0.0 else min(14.0, opacity / math.sqrt(v))
    return v, draw(st.floats(0.0, longest))


# wavenumbers from 1e-12 to 1e12 nm^-1, spread over the decades
wavenumbers = st.lists(st.floats(-12.0, 12.0).map(lambda e: 10.0**e), min_size=1, max_size=4)


@drawn
@given(layers(150.0), layers(150.0), st.floats(0.0, 5.0), wavenumbers)
def test_scattering_is_finite_below_the_opacity_bound(first, second, r, ks):
    # the sum of sqrt(max(V, 0)) * l over both layers is at most 300
    spec = DoubleLayerSpec(*first, *second, r)
    for value in _scattering_values(spec, np.array(ks)):
        assert np.all(np.isfinite(value)), (spec, ks)


# below about 1.6e-162, k^2 underflows to 0
tiny_wavenumbers = st.floats(-323.5, -162.0).map(lambda e: 10.0**e)


@drawn
@given(layers(150.0), layers(150.0), st.floats(0.0, 5.0), tiny_wavenumbers)
@example((0.0, 0.0), (0.0, 0.0), 0.0, 1e-300)
def test_a_wavenumber_whose_square_underflows_is_refused(first, second, r, k):
    # once a ZeroDivisionError from scattering_data, and NaN amplitudes
    # with only a RuntimeWarning from amplitude_grid
    spec = DoubleLayerSpec(*first, *second, r)
    assert k > 0.0 and k * k == 0.0
    for call in (lambda: scattering_data(spec, k), lambda: reflection_transmission(spec, k),
                 lambda: amplitude_grid(spec, [k, 1.0]), lambda: amplitude_grid(spec, [1.0, k])):
        with pytest.raises(ValueError, match="square underflows to 0") as err:
            call()
        assert repr(k) in str(err.value)


# above about 1.3e154, k^2 overflows
huge_wavenumbers = st.floats(154.2, 308.0).map(lambda e: 10.0**e)


@drawn
@given(layers(150.0), layers(150.0), st.floats(0.0, 5.0), huge_wavenumbers)
@example((1.0, 1.0), (-1.0, 1.0), 1.0, 1e200)
@example((1.0, 1.0), (-1.0, 1.0), 1.0, math.inf)
def test_a_wavenumber_whose_square_overflows_is_refused(first, second, r, k):
    # once NaN amplitudes and a NaN propagator, with no error
    spec = DoubleLayerSpec(*first, *second, r)
    assert k > 0.0 and math.isinf(k * k)
    for call in (lambda: scattering_data(spec, k), lambda: reflection_transmission(spec, k),
                 lambda: total_matrix(spec, k), lambda: amplitude_grid(spec, [k, 1.0]),
                 lambda: amplitude_grid(spec, [1.0, k])):
        with pytest.raises(ValueError, match="square overflows") as err:
            call()
        assert repr(k) in str(err.value)


@st.composite
def opaque_specs(draw):
    """One barrier with sqrt(V) * l in [720, 1400] beside any layer."""
    v = draw(st.floats(3000.0, 1e4))
    barrier = v, draw(st.floats(720.0, 1400.0)) / math.sqrt(v)
    other = draw(layers(1400.0))
    first, second = (other, barrier) if draw(st.booleans()) else (barrier, other)
    return DoubleLayerSpec(*first, *second, draw(st.floats(0.0, 5.0)))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item C: a barrier with sqrt(V) * l > 710 overflows cosh and sinh, "
    "so the amplitudes come back NaN with only a RuntimeWarning"))
@drawn
@given(opaque_specs(), wavenumbers)
def test_scattering_of_opaque_barriers_is_finite(spec, ks):
    with np.errstate(all="ignore"):
        values = _scattering_values(spec, np.array(ks))
    for value in values:
        assert np.all(np.isfinite(value)), (spec, ks)
