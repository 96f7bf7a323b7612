"""Transfer matrices, scattering data, wavefunctions and trig identities."""

import math

import numpy as np
import pytest

from bilayer1d import (
    DoubleLayerSpec,
    NotAnEigenvalueError,
    Wavenumber,
    amplitude_grid,
    amplitude_ratio_expressions,
    as_wavenumber,
    build_chi_problem,
    cancellation_gap,
    divergence_residual,
    find_roots,
    matrix_entries,
    reflection_transmission,
    scattering_data,
    scattering_wavefunction,
)

from helpers import draw_cancelling_spec, random_spec, random_wavenumbers


def test_transfer_matrix_is_real_with_unit_determinant():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng)
        for k in (rng.uniform(0.2, 3.0), 1j * rng.uniform(0.05, 2.0)):
            l11, l12, l21, l22 = matrix_entries(spec, as_wavenumber(k).k2)
            assert np.isrealobj([l11, l12, l21, l22])
            # normalized: below the threshold entries can reach ~1e5 and the
            # raw determinant cancellation loses that many digits
            scale = max(1.0, abs(l11 * l22), abs(l12 * l21))
            worst = max(worst, abs(l11 * l22 - l12 * l21 - 1.0) / scale)
    assert worst < 1e-12


def test_closed_form_amplitudes_match_matrix_route():
    rng = np.random.default_rng(13)
    for _ in range(200):
        spec = random_spec(rng)
        k = rng.uniform(0.2, 3.0)
        closed = scattering_data(spec, k, method="closed")
        via_matrix = scattering_data(spec, k, method="matrix")
        assert abs(closed.a - via_matrix.a) < 1e-10 * abs(closed.a)
        assert abs(closed.b - via_matrix.b) < 1e-10 * max(1.0, abs(closed.b))
        # k = i*kappa, as the bound-state wavefunction uses; a may vanish there
        k = 1j * rng.uniform(0.05, 2.0)
        closed = scattering_data(spec, k, method="closed")
        via_matrix = scattering_data(spec, k, method="matrix")
        tol = 1e-10 * max(1.0, abs(closed.a), abs(closed.b))
        assert abs(closed.a - via_matrix.a) < tol
        assert abs(closed.b - via_matrix.b) < tol


def test_closed_route_is_finite_at_small_wavenumber():
    # ks1*ks2/k^2 was formed before the sin(kr) factor, so at k = 1e-100
    # it overflowed and the closed route gave NaN where a ~ 3.2e219i
    spec = DoubleLayerSpec.make(6698.051758639278, 1.6331239048819945,
                                6698.051758639278, 1.6331239048819945, 3.0535924439563096)
    for k in (1e-100, 1e-60, 1e-20):
        closed = scattering_data(spec, k, method="closed")
        via_matrix = scattering_data(spec, k, method="matrix")
        for got, want in ((closed.a, via_matrix.a), (closed.b, via_matrix.b)):
            assert np.isfinite(got)
            assert abs(got - want) < 1e-12 * abs(want)


def test_amplitude_grid_matches_pointwise_routes():
    rng = np.random.default_rng(15)
    for _ in range(25):
        spec = random_spec(rng)
        ks = random_wavenumbers(rng, 8)
        for method in ("closed", "matrix"):
            a_arr, b_arr = amplitude_grid(spec, ks, method=method)
            assert a_arr.shape == ks.shape and b_arr.shape == ks.shape
            for i, k in enumerate(ks):
                one = scattering_data(spec, float(k), method=method)
                assert abs(a_arr[i] - one.a) < 1e-12 * abs(one.a)
                assert abs(b_arr[i] - one.b) < 1e-12 * max(1.0, abs(one.b))


@pytest.mark.parametrize("bad", [-1.0, 0.0, -0.0, math.nan, 1e-300, 1e200, math.inf])
def test_amplitude_grid_refuses_by_the_wavenumber_rule(bad):
    # the grid once had its own checks and messages
    spec = DoubleLayerSpec.make(1.0, 0.8, -2.0, 0.5, 0.4)
    with pytest.raises(ValueError) as rule:
        Wavenumber(bad)
    with pytest.raises(ValueError) as grid:
        amplitude_grid(spec, [0.5, bad, -2.0])
    assert str(grid.value) == str(rule.value)


def test_amplitude_grid_of_an_empty_grid_is_empty():
    a, b = amplitude_grid(DoubleLayerSpec.make(1.0, 0.8, -2.0, 0.5, 0.4), [])
    assert a.shape == b.shape == (0,)


def test_amplitude_grid_rejects_bad_input():
    spec = DoubleLayerSpec.make(1.0, 0.8, -2.0, 0.5, 0.4)
    with pytest.raises(ValueError):
        amplitude_grid(spec, np.array([0.5, -1.0]))
    with pytest.raises(ValueError):
        amplitude_grid(spec, np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        amplitude_grid(spec, np.array([1.0]), method="fancy")


def test_unitarity_of_scattering_data():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(150):
        spec = random_spec(rng)
        for k in random_wavenumbers(rng, 5):
            worst = max(worst, scattering_data(spec, k).unitarity_defect())
    assert worst < 1e-9


@pytest.mark.parametrize("v, l, k", [(200.0, 25.0, 1.0), (200.0, 25.0, 2.025), (60.0, 10.0, 0.5)])
def test_unitarity_defect_of_an_opaque_barrier_is_its_rounding(v, l, k):
    # as an absolute |a|^2 - |b|^2 - 1 these read 4.99e291, 1.0 and 1.0
    data = scattering_data(DoubleLayerSpec.make(v, l, 0.0, 0.0, 0.0), k)
    assert abs(data.a) > 1e30
    assert data.unitarity_defect() < 1e-15


def test_matrix_entries_vectorizes_over_energy():
    spec = DoubleLayerSpec.make(1.0, 0.8, -2.0, 0.5, 0.4)
    k2 = np.linspace(-3.0, 3.0, 17)
    l11, l12, l21, l22 = matrix_entries(spec, k2)
    assert l11.shape == k2.shape
    for i, e in enumerate(k2):
        one = matrix_entries(spec, float(e))
        got = (l11[i], l12[i], l21[i], l22[i])
        assert np.allclose(got, one, rtol=1e-12, atol=1e-12)
    dets = l11 * l22 - l12 * l21
    assert np.max(np.abs(dets - 1.0)) < 1e-10


def test_free_structure_is_transparent():
    spec = DoubleLayerSpec.make(0.0, 1.0, 0.0, 0.7, 0.5)
    for k in (0.3, 1.1, 2.6):
        data = scattering_data(spec, k)
        assert data.a == pytest.approx(1.0, abs=1e-12)
        assert abs(data.b) < 1e-12
        rt = reflection_transmission(spec, k)
        assert abs(rt.t) == pytest.approx(1.0, abs=1e-12)
        assert abs(rt.r_right) < 1e-12
        wave = scattering_wavefunction(spec, k)
        xs = np.linspace(-2.0, spec.extent + 2.0, 101)
        assert np.max(np.abs(np.abs(wave(xs)) - 1.0)) < 1e-10


def test_reflection_transmission_probabilities():
    rng = np.random.default_rng(15)
    for _ in range(100):
        spec = random_spec(rng)
        k = rng.uniform(0.2, 3.0)
        rt = reflection_transmission(spec, k)
        data = scattering_data(spec, k)
        assert rt.t == pytest.approx(1.0 / data.a, rel=1e-12)
        assert rt.r_right == pytest.approx(data.b / data.a, rel=1e-12, abs=1e-12)
        assert abs(rt.t) ** 2 + abs(rt.r_right) ** 2 == pytest.approx(1.0, abs=1e-9)
        assert abs(rt.r_left) == pytest.approx(abs(rt.r_right), abs=1e-9)


def test_scattering_wavefunction_is_continuous():
    rng = np.random.default_rng(16)
    for _ in range(25):
        spec = random_spec(rng)
        k = rng.uniform(0.2, 3.0)
        wave = scattering_wavefunction(spec, k)
        assert wave.continuity_defect() < 1e-9
        h = 1e-7
        for x0 in wave.breaks:
            left = wave(x0 - h)
            right = wave(x0 + h)
            assert abs(left - right) < 1e-5 * max(1.0, abs(right))


def test_bound_wavefunction_decays_and_validates_kappa():
    spec = DoubleLayerSpec.make(-2.5, 1.4, -1.0, 0.9, 0.5)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.chis.size >= 1
    kappa = ladder.kappas[0]
    wave = scattering_wavefunction(spec, Wavenumber.bound(kappa))
    assert wave.continuity_defect() < 1e-8
    tail_near = abs(wave(spec.extent + 1.0))
    tail_far = abs(wave(spec.extent + 3.0))
    assert tail_far < tail_near * np.exp(-1.5 * kappa)
    above_ladder = ladder.kappas[-1] * 1.5 + 0.2
    with pytest.raises(NotAnEigenvalueError):
        scattering_wavefunction(spec, Wavenumber.bound(above_ladder))


def _level_residual(spec, kappa):
    """2 e^(kappa L) a(i kappa) of the matrix route, as a float.

    l11 + l22 + kappa l12 + l21/kappa of the total propagator: real, free
    of poles on kappa > 0, and zero exactly at the bound levels.
    """
    a = scattering_data(spec, 1j * kappa, method="matrix").a
    value = 2.0 * np.exp(kappa * spec.extent) * a
    assert value.imag == 0.0
    return value.real


def test_bound_state_residual_crosses_zero_at_each_level():
    # xfer's propagator against the levels of find_roots' Pruefer phase
    spec = DoubleLayerSpec.make(-2.5, 1.4, -1.0, 0.9, 0.5)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.n > 0
    for kappa in ladder.kappas:
        lo = _level_residual(spec, kappa * (1 - 1e-4))
        hi = _level_residual(spec, kappa * (1 + 1e-4))
        assert lo * hi < 0.0


def test_pure_barriers_have_positive_residual():
    spec = DoubleLayerSpec.make(2.0, 1.0, 1.0, 0.5, 0.3)
    values = [_level_residual(spec, kap) for kap in np.linspace(0.05, 3.0, 40)]
    assert min(values) > 0.0


def test_amplitude_ratio_expressions_collapse_when_gap_closes():
    rng = np.random.default_rng(17)
    for _ in range(60):
        spec, k = draw_cancelling_spec(rng)
        assert abs(divergence_residual(spec, k)) < 1e-9
        ratios, reciprocal = amplitude_ratio_expressions(spec, k)
        ratios = np.asarray(ratios)
        scale = max(1.0, np.max(np.abs(ratios)))
        assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * scale
        assert reciprocal == pytest.approx(1.0 / ratios[0], rel=1e-9)


def test_cancellation_gap_is_the_unique_zero():
    rng = np.random.default_rng(18)
    spec, k = draw_cancelling_spec(rng)
    base = DoubleLayerSpec.make(spec.v1, spec.l1, spec.v2, spec.l2, spec.r * 1.7)
    assert abs(divergence_residual(base, k)) > 1e-6
    assert cancellation_gap(base, k) == pytest.approx(spec.r, rel=1e-9)
