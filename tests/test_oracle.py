"""Independent direct-integration checks of the closed-form layer."""

import ast
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import bilayer1d
from bilayer1d import DoubleLayerSpec, amplitude_grid, matrix_entries, oracle
from bilayer1d.bound import _count, _params, _phase
from bilayer1d.oracle import (
    integrate_bound,
    level_count,
    oracle_entries,
    scatter_grid,
)
from bilayer1d import build_chi_problem, find_roots, scattering_data

from helpers import fault_specs, random_spec


SPECS = [
    DoubleLayerSpec.make(1.0, 0.8, -2.0, 0.5, 0.4),
    DoubleLayerSpec.make(-3.0, 1.5, 2.5, 0.3, 0.9),
    DoubleLayerSpec.make(-0.7, 2.0, -1.9, 1.1, 0.0),
    DoubleLayerSpec.make(0.0, 1.0, 3.0, 0.2, 1.2),
]


def test_exact_stepping_reproduces_closed_form_entries():
    k2 = np.linspace(-3.0, 3.0, 13)
    for spec in SPECS:
        want = np.array(matrix_entries(spec, k2))
        got = np.array([oracle_entries(spec, float(e), method="exact") for e in k2]).T
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


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


def test_unknown_method_is_rejected():
    spec = SPECS[0]
    with pytest.raises(ValueError):
        oracle_entries(spec, 1.0, method="euler")


def test_scatter_requires_positive_wavenumber():
    spec = SPECS[0]
    with pytest.raises(ValueError):
        scatter_grid(spec, [0.0])
    with pytest.raises(ValueError):
        scatter_grid(spec, np.array([0.5, -1.0]))


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
    # of bilayer1d paid for it
    src = str(pathlib.Path(bilayer1d.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import bilayer1d, bilayer1d.cli; "
            "print(sorted({'scipy.optimize', 'scipy.integrate', 'scipy.interpolate', 'mpmath'}"
            " & set(sys.modules)))")
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


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_a_structure_of_zero_width_is_the_identity(method):
    # no piece to integrate: the identity propagator, a = 1 and b = 0
    spec = DoubleLayerSpec(0.0, 0.0, 0.0, 0.0, 0.0)
    ks = np.array([0.3, 1.0, 4.0])
    one, zero = np.ones(3), np.zeros(3)
    for entries in (oracle_entries(spec, ks * ks, method), matrix_entries(spec, ks * ks)):
        for got, want in zip(entries, (one, zero, zero, one)):
            assert np.array_equal(got, want)
    for a, b in (scatter_grid(spec, ks, method), amplitude_grid(spec, ks)):
        assert np.array_equal(a, one) and np.array_equal(b, zero)
