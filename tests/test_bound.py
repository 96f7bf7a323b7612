"""Bound-state ladders via the compact transcendental root problem."""

import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from bilayer1d import (
    BoundLadder,
    DoubleLayerSpec,
    SqueezeFamily,
    bound,
    build_chi_problem,
    find_roots,
    poles_of_y,
    realize,
    verify_ladder,
)
from bilayer1d.core import EV_TO_INV_NM2 as EV
from bilayer1d.oracle import integrate_bound
from bilayer1d.xfer import _level_condition

from helpers import random_spec, single_well_kappas


def _well_spec(rng):
    # at least one genuine well so ladders are usually nonempty
    v1 = -rng.uniform(0.5, 4.0)
    v2 = rng.uniform(-4.0, 1.0)
    return DoubleLayerSpec.make(
        v1, rng.uniform(0.3, 2.0), v2, rng.uniform(0.3, 2.0), rng.uniform(0.0, 1.5)
    )


def test_ladder_fields_are_consistent():
    spec = DoubleLayerSpec.make(-2.5, 1.4, -1.0, 0.9, 0.5)
    problem = build_chi_problem(spec)
    ladder = find_roots(problem)
    assert ladder.branch in (1, 2)
    assert np.all(ladder.chis > 0.0)
    assert np.all(ladder.chis < ladder.rho)
    # parallel arrays, ordered from shallowest to deepest binding
    assert np.all(np.diff(ladder.kappas) > 0.0)
    assert np.all(np.diff(ladder.chis) < 0.0)
    implied = np.sqrt(ladder.rho**2 - ladder.chis**2) / ladder.l
    assert np.allclose(ladder.kappas, implied, rtol=1e-12)


def test_single_layer_reduces_to_textbook_well():
    for depth, width in ((2.2, 1.7), (7.5, 2.4), (0.9, 0.8)):
        spec = DoubleLayerSpec.make(-depth, width, 0.0, 0.0, 0.0)
        ladder = find_roots(build_chi_problem(spec))
        reference = single_well_kappas(depth, width)
        assert ladder.chis.size == len(reference)
        got = np.sort(ladder.kappas)
        assert np.max(np.abs(got - reference)) < 1e-9


def test_ladders_match_direct_integration():
    rng = np.random.default_rng(21)
    compared = 0
    for _ in range(25):
        spec = _well_spec(rng)
        ladder = find_roots(build_chi_problem(spec))
        reference = integrate_bound(spec)
        assert ladder.chis.size == len(reference)
        if ladder.chis.size:
            got = np.sort(ladder.kappas)
            assert np.max(np.abs(got - np.sort(reference))) < 1e-7
            compared += 1
    assert compared >= 10


def test_barrier_pair_has_no_bound_sector():
    spec = DoubleLayerSpec.make(2.0, 1.0, 1.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        build_chi_problem(spec)


def test_both_branches_agree_for_symmetric_double_wells():
    # for mirror-symmetric wells neither branch can run out of headroom,
    # so referencing either layer must give the same physical ladder
    rng = np.random.default_rng(22)
    for _ in range(10):
        depth = rng.uniform(0.8, 3.0)
        width = rng.uniform(0.5, 1.5)
        spec = DoubleLayerSpec.make(
            -depth, width, -depth, width, rng.uniform(0.0, 1.0)
        )
        first = find_roots(build_chi_problem(spec, branch=1))
        second = find_roots(build_chi_problem(spec, branch=2))
        assert first.chis.size == second.chis.size
        if first.chis.size:
            assert np.max(np.abs(first.kappas - second.kappas)) < 1e-8


def test_auto_branch_matches_forced_choice():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = DoubleLayerSpec.make(
            -rng.uniform(0.5, 3.0),
            rng.uniform(0.4, 1.5),
            rng.uniform(-3.0, 1.0),
            rng.uniform(0.4, 1.5),
            rng.uniform(0.0, 1.0),
        )
        auto = find_roots(build_chi_problem(spec))
        forced = find_roots(build_chi_problem(spec, branch=auto.branch))
        assert np.array_equal(auto.chis, forced.chis)
        report = verify_ladder(spec, auto)
        assert report.ok


def test_verify_ladder_accepts_complete_and_flags_truncated():
    spec = DoubleLayerSpec.make(-2.5, 1.4, -1.0, 0.9, 0.5)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.chis.size >= 2
    report = verify_ladder(spec, ladder)
    assert report.ok
    assert len(report.missed) == 0
    assert max(abs(r) for r in report.residuals) < 1e-8
    truncated = BoundLadder(
        ladder.chis[1:], ladder.kappas[1:], ladder.rho, ladder.l, ladder.branch
    )
    broken = verify_ladder(spec, truncated)
    assert not broken.ok
    assert len(broken.missed) >= 1


# an explicit scan size, so that the tests below can rebuild the cells of
# verify_ladder's scan: GRID points from kmax * 1e-9 to kmax * (1 - 1e-12)
GRID = 4096
DEEP = DoubleLayerSpec.make(-30.0, 1.3, 5.0, 0.4, 0.3)


def _scan(spec):
    kmax = np.sqrt(max(-spec.v1, -spec.v2, 0.0))
    return np.linspace(kmax * 1e-9, kmax * (1.0 - 1e-12), GRID), kmax


def _with_kappas(ladder, kappas):
    # verify_ladder reads the levels and rho, never chis
    kappas = np.asarray(kappas, dtype=float)
    return BoundLadder(ladder.chis[: kappas.size], kappas, ladder.rho, ladder.l,
                       ladder.branch)


def _counting_brentq(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(bound, "brentq", counted)
    return calls


def test_verify_ladder_refines_only_uncertified_cells(monkeypatch):
    ladder = find_roots(build_chi_problem(DEEP))
    assert ladder.n == 3
    calls = _counting_brentq(monkeypatch)
    assert verify_ladder(DEEP, ladder, grid=GRID).ok
    # every level is certified by the sign change around it
    assert calls == []
    verify_ladder(DEEP, _with_kappas(ladder, ladder.kappas[1:]), grid=GRID)
    assert len(calls) == 1


@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_dropped_level_is_missed_at_its_brent_value(dropped):
    ladder = find_roots(build_chi_problem(DEEP))
    kappa = ladder.kappas[dropped]
    report = verify_ladder(
        DEEP, _with_kappas(ladder, np.delete(ladder.kappas, dropped)), grid=GRID
    )
    ks, kmax = _scan(DEEP)
    i = np.searchsorted(ks, kappa) - 1
    want = brentq(lambda k: _level_condition(DEEP, k)[0], ks[i], ks[i + 1],
                  xtol=1e-12 * kmax)
    assert not report.ok
    assert report.missed.tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("shift", [4e-9, -4e-9, 7e-9, -7e-9, 3e-8, -3e-8])
def test_moved_level_is_flagged_beyond_the_distance_tolerance(shift):
    # 4e-9 falls inside the certificate's window, 7e-9 outside it but
    # inside the 1e-8 tolerance, and 3e-8 outside both
    ladder = find_roots(build_chi_problem(DEEP))
    kappa = ladder.kappas[1]
    assert kappa > 1.0
    moved = ladder.kappas.copy()
    moved[1] = kappa * (1.0 + shift)
    report = verify_ladder(DEEP, _with_kappas(ladder, moved), grid=GRID)
    if abs(shift) < 1e-8:
        assert len(report.missed) == 0
    else:
        assert not report.ok
        assert len(report.missed) == 1
        assert abs(report.missed[0] - kappa) < 1e-12 * kappa


def test_level_on_a_scan_grid_point_passes(monkeypatch):
    # a single well whose ground level is a grid point of the scan: the
    # even condition q tan(q l / 2) = kappa, q = sqrt(V - kappa^2), solved
    # for the width l
    depth = 9.0
    ks, _ = _scan(DoubleLayerSpec.make(-depth, 1.0, 0.0, 0.0, 0.0))
    target = ks[2730]
    q = np.sqrt(depth - target * target)
    spec = DoubleLayerSpec.make(-depth, 2.0 * np.arctan(target / q) / q, 0.0, 0.0, 0.0)
    ladder = find_roots(build_chi_problem(spec))
    j = np.argmin(np.abs(ladder.kappas - target))
    assert abs(ladder.kappas[j] - target) < 1e-12 * target
    placed = ladder.kappas.copy()
    placed[j] = target
    calls = _counting_brentq(monkeypatch)
    report = verify_ladder(spec, _with_kappas(ladder, placed), grid=GRID)
    assert report.ok
    assert len(report.missed) == 0
    assert calls == []


def test_gapped_doublet_is_reported_missed():
    # an accidental doublet of two unequal wells behind a gap: find_roots
    # returns 34 of the 36 levels, and verify_ladder names the pair
    spec = DoubleLayerSpec.make(
        -10475.535340231465, 1.0009482984339129, -2631.446628040983,
        0.14540619918341677, 0.4187274250603946,
    )
    ladder = find_roots(build_chi_problem(spec))
    report = verify_ladder(spec, ladder)
    assert ladder.n == 34
    assert not report.ok
    assert report.missed == pytest.approx([17.826912, 17.838377], abs=1e-5)


def test_single_well_interface_pole_sits_at_rho_over_sqrt2():
    spec = DoubleLayerSpec.make(-3.0, 1.5, 0.0, 0.0, 0.0)
    problem = build_chi_problem(spec)
    poles = np.asarray(poles_of_y(problem))
    target = problem.rho / np.sqrt(2.0)
    assert np.min(np.abs(poles - target)) < 1e-9 * problem.rho


def test_edge_hugging_survivor_is_not_lost():
    # strongly squeezed realization whose only root sits within ~3e-9 of the
    # chi-interval edge; a uniform scan would step right over it
    family = SqueezeFamily(
        2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0121526769027671, 0.6, 2.0
    )
    spec = realize(family, 1e-4)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.chis.size == 1
    assert ladder.kappas[0] == pytest.approx(0.88417295, abs=5e-7)


@pytest.mark.parametrize(
    "spec",
    [
        DoubleLayerSpec.make(-20.0, 1.3, 5.0, 0.4, 0.3),
        DoubleLayerSpec.make(-20.0, 1.3, -8.0, 0.6, 0.3),
        DoubleLayerSpec.make(-9.0, 1.0, 0.0, 0.0, 0.0),
    ],
    ids=["barrier", "second-well", "single-well"],
)
def test_scalar_chi_calls_equal_array_elements(spec):
    # chi = 0 and chi = rho zero a divisor of the root equation, and the
    # second well puts tangent poles inside; outside (0, rho) s clamps to 0
    problem = build_chi_problem(spec)
    rho = problem.rho
    chis = np.concatenate((
        np.linspace(0.0, rho, 257),
        [np.nextafter(0.0, 1.0), np.nextafter(rho, 0.0), -0.5 * rho, 1.5 * rho],
        problem.tangent_pole_abscissae(),
    ))
    # zero divisors stay silent; only the overflow of c2 / 5e-324 warns
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        for method in (problem.cleared, problem.denominator, problem.s):
            want = method(chis)
            for chi, ref in zip(chis, want):
                got = method(float(chi))
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (
                    method.__name__, chi, got, ref)
