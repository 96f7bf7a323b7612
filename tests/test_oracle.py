"""Independent direct-integration checks of the closed-form layer."""

import ast
import math
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import bilayer1d
from bilayer1d import DoubleLayerSpec, amplitude_grid, matrix_entries, oracle
from bilayer1d.bound import _count, _params, _phase
from bilayer1d.oracle import (
    exact_amplitudes,
    integrate_bound,
    level_count,
    oracle_entries,
    scatter_grid,
)
from bilayer1d import build_chi_problem, find_roots, scattering_data

from helpers import fault_specs, fixed_digit_amplitudes, random_spec


SPECS = [
    DoubleLayerSpec.make(1.0, 0.8, -2.0, 0.5, 0.4),
    DoubleLayerSpec.make(-3.0, 1.5, 2.5, 0.3, 0.9),
    DoubleLayerSpec.make(-0.7, 2.0, -1.9, 1.1, 0.0),
    DoubleLayerSpec.make(0.0, 1.0, 3.0, 0.2, 1.2),
]


def _exact_entries(spec, k2):
    """(l11, l12, l21, l22) of the mpmath slab product at 30 digits."""
    with mp.workdps(30):
        ((l11, l21), (l12, l22)), _ = oracle._product(oracle._pieces(spec), mp.mpf(k2))
        return [float(x) for x in (l11, l12, l21, l22)]


def test_exact_stepping_reproduces_closed_form_entries():
    # negative k2 keeps the bound sector covered
    k2 = np.linspace(-3.0, 3.0, 13)
    for spec in SPECS:
        want = np.array(matrix_entries(spec, k2))
        got = np.array([_exact_entries(spec, float(e)) for e in k2]).T
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_exact_amplitudes_match_both_library_routes():
    rng = np.random.default_rng(33)
    for _ in range(40):
        spec = random_spec(rng, v_lo=-20.0, v_hi=20.0)
        ks = rng.uniform(0.05, 5.0, 3)
        log_a, arg_a, ratio = exact_amplitudes(spec, ks)
        a = np.exp(log_a + 1j * arg_a)
        for route in ("closed", "matrix"):
            a_lib, b_lib = amplitude_grid(spec, ks, route)
            assert np.all(np.abs(a_lib - a) <= 1e-12 * np.abs(a)), (spec, route)
            assert np.all(np.abs(b_lib - ratio * a) <= 1e-12 * np.abs(a)), (spec, route)


def test_exact_amplitudes_take_more_digits_where_a_cancels():
    # two barriers with sqrt(V) * l = 30, at the float nearest a transmission
    # resonance: the terms of a are ~1e16 times a, so a 30-digit product
    # alone is off in the last bits; the added digits give the 120-digit result
    spec = DoubleLayerSpec(100.0, 3.0, 100.0, 3.0, 1.0)
    k = 2.612880016739022
    got = tuple(x[0] for x in exact_amplitudes(spec, [k]))
    want = fixed_digit_amplitudes(spec, k, 120)
    assert got == want
    assert fixed_digit_amplitudes(spec, k, 30) != want


def _barrier_log_a(v, length, k):
    """log|a| of one barrier, from |a|^2 = 1 + (rho sinh(w l))^2 with
    rho = (w^2 + k^2) / (2 k w), written so that it does not overflow."""
    w = math.sqrt(v - k * k)
    rho = (w * w + k * k) / (2.0 * k * w)
    scaled = rho * -math.expm1(-2.0 * w * length) / 2.0  # rho sinh(w l) e^{-w l}
    return w * length + math.log(scaled) + 0.5 * math.log1p((math.exp(-w * length) / scaled) ** 2)


@pytest.mark.parametrize("opacity", [1.0, 10.0, 100.0, 700.0, 720.0, 1400.0])
def test_exact_amplitudes_of_a_barrier_match_the_formula(opacity):
    # sqrt(V) * l from 1 to 1400, past the float overflow of cosh at 710
    rng = np.random.default_rng(int(opacity))
    for v in (3.0, 300.0, 1e4):
        length = opacity / math.sqrt(v)
        ks = math.sqrt(v) * rng.uniform(0.05, 0.95, 3)
        for spec in (DoubleLayerSpec(v, length, 0.0, 0.0, 0.0),
                     DoubleLayerSpec(0.0, 0.0, v, length, 0.0)):
            log_a, arg_a, ratio = exact_amplitudes(spec, ks)
            assert np.all(np.isfinite(log_a) & np.isfinite(arg_a) & np.isfinite(ratio))
            assert np.all(np.abs(ratio) <= 1.0 + 2.0**-52)  # |b/a| < 1, up to an ulp
            want = np.array([_barrier_log_a(v, length, k) for k in ks])
            assert np.all(np.abs(log_a - want) <= 1e-14 * want), (v, length, ks)


def test_rk4_stepping_converges_to_closed_form_entries():
    k2 = np.linspace(-2.5, 2.5, 9)
    for spec in SPECS:
        want = np.array(matrix_entries(spec, k2))
        got = np.array([oracle_entries(spec, float(e)) for e in k2]).T
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


def test_scatter_grid_matches_scattering_data():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = random_spec(rng)
        k = rng.uniform(0.2, 3.0)
        closed = scattering_data(spec, k)
        (a,), (b,) = scatter_grid(spec, [k])
        assert abs(a - closed.a) < 1e-6 * abs(closed.a)
        assert abs(b - closed.b) < 1e-6 * max(1.0, abs(closed.b))
        assert abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) < 1e-6


def test_scatter_grid_matches_pointwise_calls():
    spec = SPECS[0]
    ks = np.linspace(0.2, 2.8, 15)
    a_arr, b_arr = scatter_grid(spec, ks)
    for i, k in enumerate(ks):
        (a,), (b,) = scatter_grid(spec, [float(k)])
        # the grid runner may pick its own step, so allow integrator-level slack
        assert abs(a_arr[i] - a) < 1e-8 * abs(a)
        assert abs(b_arr[i] - b) < 1e-8 * max(1.0, abs(b))


def test_integrate_bound_matches_root_solver():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(12):
        spec = DoubleLayerSpec.make(
            -rng.uniform(0.5, 4.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(-4.0, 1.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.0, 1.5),
        )
        ladder = find_roots(build_chi_problem(spec))
        reference = np.sort(np.asarray(integrate_bound(spec)))
        assert ladder.chis.size == reference.size
        if reference.size:
            assert np.max(np.abs(np.sort(ladder.kappas) - reference) / reference) < 1e-12
            checked += 1
    assert checked >= 5


# the fault inputs and the equal doublet, whose members differ by ~1e-11
BOUND_SPECS = {**fault_specs(), "equal-doublet": DoubleLayerSpec.make(-45, 1.2, -45, 1.2, 3.5)}


@pytest.mark.parametrize("name", sorted(BOUND_SPECS))
def test_integrate_bound_finds_every_level(name):
    # gapped doublets, a level near threshold and thin wells: each level is
    # bracketed alone by the mpmath count, and the count still brackets it
    # within 1e-12 relative once it is narrowed
    spec = BOUND_SPECS[name]
    levels = integrate_bound(spec)
    assert levels.size == level_count(spec, 0.0)
    assert np.all(np.diff(levels) > 0.0)
    for kappa in levels:
        lo, hi = kappa * (1.0 - 1e-12), kappa * (1.0 + 1e-12)
        assert level_count(spec, lo) - level_count(spec, hi) == 1, kappa


def test_integrate_bound_needs_no_scipy():
    src = str(pathlib.Path(bilayer1d.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); sys.modules['scipy'] = None; "
            "from bilayer1d import DoubleLayerSpec; from bilayer1d.oracle import integrate_bound; "
            "print(integrate_bound(DoubleLayerSpec.make(-45, 1.2, -45, 1.2, 3.5)).size)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "6"


def test_scatter_requires_positive_wavenumber():
    # a NaN k once gave NaN amplitudes, and an infinite k a ZeroDivisionError
    spec = SPECS[0]
    for route in (scatter_grid, exact_amplitudes):
        for ks in ([0.0], np.array([0.5, -1.0]), [math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError, match="scattering oracle needs k > 0"):
                route(spec, ks)


@pytest.mark.parametrize("k2", [[math.nan], [math.inf], [1.0, -math.inf]])
def test_rk4_entries_refuse_a_non_finite_k2(k2):
    # NaN once gave four NaN arrays, and an infinity a ZeroDivisionError
    with pytest.raises(ValueError, match="RK4 oracle needs finite k2"):
        oracle_entries(SPECS[0], k2)


@pytest.mark.parametrize("k", [1e6, 1e150])
def test_rk4_refuses_a_step_count_above_its_cap(k):
    # about 1.1e8 and 1e152 steps, which once ran without end
    with pytest.raises(ValueError, match=r"RK4 oracle would take \S+ steps"):
        oracle_entries(SPECS[0], [k * k])
    with pytest.raises(ValueError, match=r"RK4 oracle would take \S+ steps"):
        scatter_grid(SPECS[0], [0.5, k])


def test_an_empty_grid_gives_empty_amplitudes():
    # the RK4 route once raised NumPy's zero-size reduction error
    a, b = scatter_grid(SPECS[0], [])
    assert a.shape == b.shape == (0,) and a.dtype == b.dtype == complex
    assert all(got.shape == (0,) for got in exact_amplitudes(SPECS[0], []))


def _kmax(spec):
    return float(np.sqrt(max(-spec.v1, -spec.v2, 0.0)))


def _phase_count(spec, kappa):
    return _count(kappa, _phase(_params(spec), kappa))


def test_phase_count_matches_the_mpmath_count_on_random_wells():
    # gapped double wells with up to ~40 levels, either layer a barrier,
    # zero widths included, and shallow structures that may hold no level
    rng = np.random.default_rng(31)
    for i in range(240):
        if i % 4 == 3:
            spec = random_spec(rng, v_lo=-6.0, v_hi=3.0)
        else:
            v = (-rng.uniform(1.0, 3000.0), rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3000.0))
            v1, v2 = v[::-1] if i % 2 else v
            spec = DoubleLayerSpec.make(v1, rng.uniform(0.0, 2.0), v2, rng.uniform(0.0, 2.0),
                                        rng.uniform(0.0, 1.0) * (i % 5 != 0))
        for kappa in (0.0, *rng.uniform(0.0, 1.1 * _kmax(spec) + 0.1, 3)):
            assert _phase_count(spec, kappa) == level_count(spec, kappa), (spec, kappa)


# one point per branch of _phase, as (v1, l1, v2, l2, r) and kappa; layer 2
# is the matching layer unless the layers swap
PHASE_BRANCHES = {
    "layer1-oscillating": ((-2.0, 1.0, -5.0, 1.5, 0.5), 0.8),
    "layer1-barrier": ((4.0, 0.5, -5.0, 1.5, 0.5), 1.0),
    # v1 + kappa^2 == 0.0: layer 1 is linear
    "layer1-flat": ((-4.0, 1.0, -9.0, 1.5, 0.3), 2.0),
    "layer1-zero-width": ((-3.0, 0.0, -5.0, 1.0, 0.5), 1.2),
    "no-gap": ((-2.0, 1.0, -5.0, 1.5, 0.0), 0.8),
    # kappa^2 underflows to 0.0, so the gap is linear
    "gap-flat": ((-2.0, 1.0, -5.0, 1.5, 0.5), 1e-170),
    # kappa^2 is subnormal, and sqrt(kappa^2) differs from kappa
    "gap-subnormal": ((-2.0, 1.0, -5.0, 1.5, 0.5), 1e-160),
    "swapped": ((-5.0, 1.5, -2.0, 1.0, 0.5), 0.8),
    "swapped-barrier": ((-5.0, 1.5, 4.0, 0.5, 0.5), 1.0),
}


@pytest.mark.parametrize("name", sorted(PHASE_BRANCHES))
def test_phase_count_matches_the_mpmath_count_in_each_branch(name):
    s, kappa = PHASE_BRANCHES[name]
    spec = DoubleLayerSpec.make(*s)
    assert _phase_count(spec, kappa) == level_count(spec, kappa)
    # and across the whole range, below and above each level
    for kappa in np.linspace(0.0, _kmax(spec), 9):
        assert _phase_count(spec, kappa) == level_count(spec, kappa), kappa


@pytest.mark.parametrize("name", sorted(fault_specs()))
def test_phase_count_matches_the_mpmath_count_on_fault_inputs(name):
    spec = fault_specs()[name]
    rng = np.random.default_rng(32)
    for kappa in (0.0, *rng.uniform(0.0, _kmax(spec), 20)):
        assert _phase_count(spec, kappa) == level_count(spec, kappa), kappa


def test_importing_the_library_loads_no_oracle_dependency():
    # scipy.optimize was imported with the oracle module, so every import
    # of bilayer1d paid for it; orjson is the CLI's, loaded by its first table
    src = str(pathlib.Path(bilayer1d.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import bilayer1d, bilayer1d.cli; "
            "print(sorted({'scipy.optimize', 'scipy.integrate', 'scipy.interpolate', 'mpmath',"
            " 'orjson'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_oracle_imports_nothing_from_the_package():
    # the cross-check is independent only while the oracle shares no code
    # with the routes it checks
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            assert not (node.module or "").startswith("bilayer1d"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "bilayer1d" for a in node.names), ast.unparse(node)


@pytest.mark.parametrize("route", ["rk4", "exact"])
def test_a_structure_of_zero_width_is_the_identity(route):
    # no piece to integrate: the identity propagator, a = 1 and b = 0
    spec = DoubleLayerSpec(0.0, 0.0, 0.0, 0.0, 0.0)
    ks = np.array([0.3, 1.0, 4.0])
    one, zero = np.ones(3), np.zeros(3)
    if route == "exact":
        for got in exact_amplitudes(spec, ks):
            assert np.array_equal(got, zero)
        return
    for entries in (oracle_entries(spec, ks * ks), matrix_entries(spec, ks * ks)):
        for got, want in zip(entries, (one, zero, zero, one)):
            assert np.array_equal(got, want)
    for a, b in (scatter_grid(spec, ks), amplitude_grid(spec, ks)):
        assert np.array_equal(a, one) and np.array_equal(b, zero)
