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
    SqueezedInteraction,
    SqueezeFamily,
    Wavenumber,
    amplitude_grid,
    build_chi_problem,
    delta_prime_pairing,
    eps_log_grid,
    find_roots,
    forced_branch,
    interaction_limit,
    matrix_entries,
    probes,
    realize,
    reflection_transmission,
    scattering_data,
    scattering_wavefunction,
    sweep_ladder,
    verify_ladder,
)
from bilayer1d.oracle import exact_amplitudes, integrate_bound, level_count

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
                 lambda: amplitude_grid(spec, [k, 1.0]), lambda: amplitude_grid(spec, [1.0, k])):
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


@drawn
@given(opaque_specs(), wavenumbers)
def test_exact_amplitudes_of_opaque_barriers_are_finite(spec, ks):
    # the mpmath oracle is the reference where the float amplitudes overflow
    log_a, arg_a, ratio = exact_amplitudes(spec, np.array(ks))
    for value in (log_a, arg_a, ratio):
        assert np.all(np.isfinite(value)), (spec, ks)
    # |b/a| < 1, and rounding each part of b/a to a float can add an ulp
    assert np.all(np.abs(ratio) <= 1.0 + 2.0**-52), (spec, ks)


# ---------------------------------------------------------------------------
# refusals and edge values of single calls


# a well beside a barrier, a family with a well and one with none
WELL = DoubleLayerSpec(-2.0, 1.0, 1.0, 0.5, 0.3)
FAMILY = SqueezeFamily(2.0, 2.0, 2.0, 1.3, -1.3, 1.0, 0.6, 2.0)
NO_WELL = SqueezeFamily(2.0, 2.0, 2.0, 1.3, 1.3, 1.0, 0.6, 2.0)
# on resonance, verdict Y at the default tolerances
K2 = SqueezeFamily(1.5, 1.0, 1.0, 2.5296155177944195, -1.31232, 1.0, 1.0, 2.0)
SEPARATED = SqueezedInteraction("separated")

REFUSALS = {
    "branch-1-on-a-barrier": (lambda: build_chi_problem(DoubleLayerSpec(1.0, 0.5, -2.0, 1.0, 0.3),
                                                        branch=1),
                              "branch 1 requires an attractive first layer"),
    "branch-2-on-a-barrier": (lambda: build_chi_problem(WELL, branch=2),
                              "branch 2 requires an attractive second layer"),
    "branch-3": (lambda: build_chi_problem(WELL, branch=3), "branch must be 1 or 2, got 3"),
    "kappa-at-real-k": (lambda: Wavenumber(1.0).kappa, "kappa is defined only for imaginary"),
    "reflection-at-imaginary-k": (lambda: reflection_transmission(WELL, 1j), "requires real k"),
    # i*kappa picks the bound state, and kappa = 1 is no level of WELL
    "scatter-wave-at-imaginary-k": (lambda: scattering_wavefunction(WELL, 1j),
                                    "kappa=1.0 is not a bound level"),
    "realize-at-eps-0": (lambda: realize(FAMILY, 0.0), "eps must lie in"),
    "realize-above-eps-1": (lambda: realize(FAMILY, 1.5), "eps must lie in"),
    "realize-at-eps-nan": (lambda: realize(FAMILY, math.nan), "eps must lie in"),
    "eps-grid-stop-at-start": (lambda: eps_log_grid(1e-2, 1e-2), "need 0 < stop < start <= 1"),
    "eps-grid-stop-above-start": (lambda: eps_log_grid(1e-3, 1e-2), "need 0 < stop < start"),
    "forced-branch-without-a-well": (lambda: forced_branch(NO_WELL), "neither layer is attractive"),
    "sweep-on-an-empty-grid": (lambda: sweep_ladder(FAMILY, []), "eps_grid must be a nonempty"),
    # a negative or NaN tolerance once turned K2 "separated"
    "limit-at-negative-res_tol": (lambda: interaction_limit(K2, res_tol=-1.0),
                                  "tolerances must be >= 0"),
    "limit-at-negative-spread_tol": (lambda: interaction_limit(K2, spread_tol=-1.0),
                                     "tolerances must be >= 0"),
    "limit-at-nan-res_tol": (lambda: interaction_limit(K2, res_tol=math.nan),
                             "tolerances must be >= 0"),
    "limit-at-nan-spread_tol": (lambda: interaction_limit(K2, spread_tol=math.nan),
                                "tolerances must be >= 0"),
    "sweep-at-negative-tol": (lambda: sweep_ladder(K2, [0.1], tol=-1.0),
                              "tolerances must be >= 0"),
    "separated-amplitudes": (lambda: SEPARATED.amplitudes(1.0), "no finite amplitudes"),
    "separated-connection-matrix": (lambda: SEPARATED.connection_matrix(),
                                    "no finite connection matrix"),
    "level-count-below-0": (lambda: level_count(WELL, -1e-3), "kappa must be >= 0"),
    # a NaN kappa once counted 0 levels
    "level-count-at-nan": (lambda: level_count(WELL, math.nan), "kappa must be >= 0"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_refused_call_raises_value_error(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_a_separated_limit_transmits_nothing_and_binds_nothing():
    assert SEPARATED.transmission(1.0) == 0.0
    assert SEPARATED.bound_level() is None


def test_a_structure_without_a_well_has_no_oracle_levels():
    levels = integrate_bound(DoubleLayerSpec(1.0, 0.5, 0.0, 1.0, 0.3))
    assert isinstance(levels, np.ndarray) and levels.size == 0


def test_a_tabulated_probe_vanishes_outside_its_table():
    probe = probes.tabulated(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
                             np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
    for x in (-2.5, 2.0 + 1e-9, 7.0):
        assert probe.f(x) == 0.0
        assert probe.df(x) == 0.0
    assert probe.df(-0.5) != 0.0


def test_a_pairing_skips_a_slab_outside_the_probe_support():
    # at eps = 1 the slabs are [0, 1] and [3, 3.6]; the bump's support
    # (-1, 2) misses the second, so its depth cannot change the pairing,
    # and a bump right of the structure pairs to 0
    probe = probes.bump(width=1.5, center=0.5)
    value = delta_prime_pairing(FAMILY, 1.0, probe).value
    assert value != 0.0
    other = SqueezeFamily(2.0, 2.0, 2.0, 1.3, -7.0, 1.0, 0.6, 2.0)
    assert delta_prime_pairing(other, 1.0, probe).value == value
    assert delta_prime_pairing(FAMILY, 1.0, probes.bump(width=1.0, center=6.0)).value == 0.0


@pytest.mark.parametrize("mode", ["scatter", "bound"])
def test_wave_derivative_is_the_slope_of_the_wave(mode):
    # one point inside each of the five regions: left of 0, layer 1, the
    # gap, layer 2 and right of the structure
    k = 1.3 if mode == "scatter" else 1j * find_roots(build_chi_problem(WELL)).kappas[0]
    wave = scattering_wavefunction(WELL, k)
    xs = np.array([-0.7, 0.5, 1.15, 1.55, 2.6])
    h = 1e-6
    slope = (wave(xs + h) - wave(xs - h)) / (2.0 * h)
    got = wave.derivative(xs)
    assert np.all(np.abs(got - slope) <= 1e-7 * np.maximum(1.0, np.abs(got)))
    # left of 0 the wave is the incoming exp(-ikx)
    left = np.array([-3.0, -0.25])
    assert np.allclose(wave.derivative(left), -1j * k * np.exp(-1j * k * left),
                       rtol=1e-15, atol=0.0)
