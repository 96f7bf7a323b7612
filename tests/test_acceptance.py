"""Acceptance gate: eleven pinned criteria, one test (and one verdict line) each.

Each test prints its measured numbers before asserting, so a failing
criterion documents exactly what was observed.  Tolerances are fixed
here on purpose; loosening them is not an option.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from bilayer1d import (
    DoubleLayerSpec,
    SqueezeFamily,
    amplitude_grid,
    amplitude_ratio_expressions,
    build_chi_problem,
    cli,
    delta_prime_pairing,
    find_roots,
    interaction_limit,
    probes,
    realize,
    scattering_data,
    scattering_wavefunction,
    sweep_ladder,
    verify_ladder,
)
from bilayer1d.core import EV_TO_INV_NM2 as EV
from bilayer1d.oracle import integrate_bound, level_count, scatter_grid
from bilayer1d.squeeze import eps_log_grid, resonance_residual_of
from bilayer1d.xfer import matrix_entries

from helpers import draw_cancelling_spec, random_spec, random_wavenumbers

# ---------------------------------------------------------------------------
# frozen workloads
# ---------------------------------------------------------------------------

H = 0.5 * EV  # 0.5 eV expressed in 1/nm^2


def _deep_double_well_family(d1):
    # two attractive layers 12 nm / 2.1 nm wide, 20 nm apart, squeezed
    # with exponents (2, 2, 2)
    return SqueezeFamily(2.0, 2.0, 2.0, -0.3 * EV, -0.5 * EV, d1, 12.0, 20.0)


def _barrier_well_family(d1):
    # one repulsive and one attractive layer, exponents (2, 2, 2)
    return SqueezeFamily(2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, d1, 0.6, 2.0)


BALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 12.0, 12.0, 20.0)
UNBALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 8.0, 12.0, 20.0)
DIPOLE = SqueezeFamily(1.5, 1.0, 1.0, H, -H, 12.0, 12.0, 20.0)
DIPOLE_UNBALANCED = SqueezeFamily(1.5, 1.0, 1.0, H, -H, 8.0, 12.0, 20.0)


def _refine_d1(make_family, lo, hi):
    return brentq(
        lambda d1: resonance_residual_of(make_family(d1)), lo, hi, xtol=1e-13
    )


def _sample(seed=101, n_specs=1000, n_k=10):
    rng = np.random.default_rng(seed)
    return [(random_spec(rng), random_wavenumbers(rng, n_k)) for _ in range(n_specs)]


def _tabulated_dipole_probe():
    # cubic-interpolated table whose second derivative vanishes at the origin
    xs = np.linspace(-6.0, 6.0, 61)
    b = 0.8423292192132454  # root of 2b^2 + 9b - 9 = 0
    ys = (xs + 2.0) * np.exp(-(((xs - b) / 3.0) ** 2))
    return probes.tabulated(xs, ys)


PAIRING_PROBES = (
    probes.gaussian(3.0, center=-3.0),
    probes.gaussian(4.0, center=4.0),
    _tabulated_dipole_probe(),
)


def _loglog_slope(eps, vals):
    return float(np.polyfit(np.log(np.asarray(eps)), np.log(np.asarray(vals)), 1)[0])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_unitarity():
    t0 = time.perf_counter()
    worst = 0.0
    for spec, ks in _sample():
        a, b = amplitude_grid(spec, ks)
        defect = np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0)
        worst = max(worst, float(defect.max()))
    elapsed = time.perf_counter() - t0
    print(f"criterion 01: max |a|^2-|b|^2-1 defect {worst:.3e} "
          f"(tol 1e-9), runtime {elapsed:.2f}s (limit 5s)")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_closed_form_vs_matrix_product():
    t0 = time.perf_counter()
    worst = 0.0
    for spec, ks in _sample():
        a_closed, b_closed = amplitude_grid(spec, ks, method="closed")
        a_product, b_product = amplitude_grid(spec, ks, method="matrix")
        worst = max(
            worst, float(np.max(np.abs(a_closed - a_product) / np.abs(a_closed)))
        )
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(b_closed - b_product)
                    / np.maximum(1.0, np.abs(b_closed))
                )
            ),
        )
    elapsed = time.perf_counter() - t0
    print(f"criterion 02: max relative spread between amplitude routes "
          f"{worst:.3e} (tol 1e-10), runtime {elapsed:.2f}s (limit 5s)")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_03_direct_integration_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        ks = np.linspace(0.15, 3.0, 50)
        a_arr, b_arr = scatter_grid(spec, ks)
        for i, k in enumerate(ks):
            closed = scattering_data(spec, float(k))
            worst = max(worst, abs(a_arr[i] - closed.a) / abs(closed.a))
            worst = max(worst, abs(b_arr[i] - closed.b) / max(1.0, abs(closed.b)))
    ladders_checked = 0
    worst_kappa = 0.0
    for _ in range(40):
        spec = DoubleLayerSpec.make(
            -rng.uniform(0.5, 4.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(-4.0, 1.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.0, 1.5),
        )
        ladder = find_roots(build_chi_problem(spec))
        reference = np.sort(np.asarray(integrate_bound(spec)))
        assert ladder.chis.size == reference.size, "ladder count mismatch"
        if reference.size:
            ladders_checked += 1
            worst_kappa = max(
                worst_kappa,
                float(np.max(np.abs(np.sort(ladder.kappas) - reference))),
            )
    elapsed = time.perf_counter() - t0
    print(f"criterion 03: scattering spread {worst:.3e} (tol 1e-6), "
          f"{ladders_checked} nonempty ladders, worst kappa gap "
          f"{worst_kappa:.3e} (tol 1e-6), runtime {elapsed:.1f}s (limit 60s)")
    assert worst < 1e-6
    assert ladders_checked >= 20
    assert worst_kappa < 1e-6
    assert elapsed < 60.0


def test_criterion_04_six_vs_five_deep_ladder():
    d1 = _refine_d1(_deep_double_well_family, 2.0, 2.2)
    spec = realize(_deep_double_well_family(d1), 1.0)
    ladder = find_roots(build_chi_problem(spec))
    print(f"criterion 04: refined d1 {d1:.10f} nm, rho {ladder.rho:.4f} "
          f"(target 13.7 +- 0.1), root count {ladder.chis.size} (target 6), "
          f"kappas {np.round(np.sort(ladder.kappas), 5)}")
    assert abs(ladder.rho - 13.7) < 0.1
    # The 12 nm well alone holds ceil(rho / pi) = ceil(4.376) = 5 levels;
    # the 2.118 nm well (sigma1 / pi = 0.598) adds one more.  By the
    # oscillation theorem the count equals the nodes of the zero-energy
    # solution, which the oracle counts in mpmath.
    assert level_count(spec, 0.0) == 6
    assert ladder.chis.size == 6, (
        f"root solver finds {ladder.chis.size} crossings on (0, rho); "
        "the zero-energy solution has 6 nodes"
    )


def test_criterion_05_survivor_trajectory_checkpoints():
    t0 = time.perf_counter()
    d1 = _refine_d1(_barrier_well_family, 0.95, 1.05)
    family = _barrier_well_family(d1)
    targets = {1.0: 0.320, 0.1: 0.773, 0.01: 0.864}
    observed = {}
    for eps, want in targets.items():
        ladder = find_roots(build_chi_problem(realize(family, eps)))
        assert ladder.chis.size >= 1
        observed[eps] = float(ladder.kappas[0])
    elapsed = time.perf_counter() - t0
    detail = ", ".join(
        f"eps={eps:g}: {observed[eps]:.6f} vs {want} "
        f"({abs(observed[eps] / want - 1) * 100:.2f}%)"
        for eps, want in targets.items()
    )
    print(f"criterion 05: refined d1 {d1:.10f}; {detail}; "
          f"runtime {elapsed:.2f}s (limit 10s)")
    for eps, want in targets.items():
        assert observed[eps] == pytest.approx(want, rel=0.02)
    assert elapsed < 10.0


def test_criterion_06_jump_ratio_matches_limit():
    family = _barrier_well_family(1.0)
    report = interaction_limit(family, res_tol=0.02, spread_tol=0.05)
    theta = report.theta
    spec = realize(family, 0.01)
    k = float(np.sqrt(0.4 * EV))  # 0.4 eV of kinetic energy
    wave = scattering_wavefunction(spec, k)
    jump = abs(wave(spec.extent)) / abs(wave(0.0))
    print(f"criterion 06: theta {theta:.6f} vs 2.23 "
          f"({abs(theta / 2.23 - 1) * 100:.2f}%, tol 1%); jump across the "
          f"structure at eps=0.01 {jump:.6f} vs theta "
          f"({abs(jump / theta - 1) * 100:.2f}%, tol 2%)")
    assert theta == pytest.approx(2.23, rel=0.01)
    assert jump == pytest.approx(theta, rel=0.02)


def test_criterion_07_survivor_extrapolates_to_limit():
    d1 = _refine_d1(_barrier_well_family, 0.95, 1.05)
    family = _barrier_well_family(d1)
    report = interaction_limit(family, res_tol=0.02, spread_tol=0.05)
    kappa_limit = report.kappa_limit
    tail = []
    for eps in (1e-2, 1e-3, 1e-4):
        ladder = find_roots(build_chi_problem(realize(family, eps)))
        tail.append(float(ladder.kappas[0]))
    d1_, d2_ = tail[1] - tail[0], tail[2] - tail[1]
    extrapolated = tail[2] + d2_ * d2_ / (d1_ - d2_)
    print(f"criterion 07: ladder tail {np.round(tail, 6)}, extrapolated "
          f"{extrapolated:.6f}, closed-form limit {kappa_limit:.6f} "
          f"({abs(extrapolated / kappa_limit - 1) * 100:.3f}%, tol 2%); "
          f"reference value 0.87 ({abs(kappa_limit / 0.87 - 1) * 100:.2f}%)")
    assert extrapolated == pytest.approx(kappa_limit, rel=0.02)
    assert kappa_limit == pytest.approx(0.87, rel=0.02)


def test_criterion_08_convergence_typology():
    lines = []
    failures = []

    # clause 1: deep double well -- shallow level survives, the rest blow up
    d1 = _refine_d1(_deep_double_well_family, 2.0, 2.2)
    deep = _deep_double_well_family(d1)
    first = find_roots(build_chi_problem(realize(deep, 1.0)))
    last = find_roots(build_chi_problem(realize(deep, 1e-3)))
    growth = [
        float(last.kappas[i] / first.kappas[i])
        for i in range(1, min(first.chis.size, last.chis.size))
    ]
    lines.append(
        f"deep family: survivor {first.kappas[0]:.4f} -> {last.kappas[0]:.4f}, "
        f"upper-level growth {np.round(growth, 1)} (need >= 10x each)"
    )
    if not (growth and min(growth) >= 10.0):
        failures.append("deep-family growth below 10x")

    # clause 2: balanced thin pair -- survivor tracks the edge identity and
    # should approach the closed-form limit
    report = interaction_limit(BALANCED_THIN, res_tol=1e-9, spread_tol=1e-9)
    kappa_limit = report.kappa_limit
    ratios = []
    for eps in (1e-6, 10 ** -6.5, 1e-7):
        spec = realize(BALANCED_THIN, eps)
        ladder = find_roots(build_chi_problem(spec))
        kappa_n = float(ladder.kappas[-1])
        s = float(np.sqrt(ladder.rho**2 - ladder.chis[-1] ** 2))
        edge_identity = ladder.rho**-4 * s * abs(spec.v2) ** 2 * spec.l2**3
        assert kappa_n == pytest.approx(edge_identity, rel=0.05), (
            "edge identity should hold within 5%"
        )
        ratios.append(kappa_n / kappa_limit)
    lines.append(
        f"balanced thin pair: kappa_N / closed-form-limit at eps "
        f"1e-6..1e-7 = {np.round(ratios, 4)} (need -> 1)"
    )
    if not abs(ratios[-1] - 1.0) < 0.05:
        failures.append(
            f"balanced thin pair approaches {ratios[-1]:.3f}x the closed-form "
            "limit"
        )

    # clause 3: unbalanced thin pair -- separated, survivor escapes.  The
    # net strength (h1 d1 + h2 d2) eps**(1 - mu) dominates the zero-energy
    # entry M21, so kappa_N ~ |h1 d1 + h2 d2| eps**(1 - mu) / 2 grows by
    # 10**(mu - 1) = sqrt(10) per decade.  The O(1) rest of M21 (about
    # 4.3e3 1/nm) shifts kappa_N * eps**(mu - 1) by 822 eps**(1/2)
    # relative, 0.026 at eps = 1e-9.
    sep = interaction_limit(UNBALANCED_THIN, res_tol=1e-9, spread_tol=1e-9)
    rates = []
    prev = None
    for eps in 10.0 ** -np.arange(10.0):
        spec = realize(UNBALANCED_THIN, eps)
        ladder = find_roots(build_chi_problem(spec))
        kappa_n = float(ladder.kappas[-1]) if ladder.n else np.nan
        if prev is not None:
            rates.append(kappa_n / prev)
        prev = kappa_n
    l21_start = matrix_entries(realize(UNBALANCED_THIN, 1.0), np.array([1.0]))[2][0]
    l21_end = matrix_entries(realize(UNBALANCED_THIN, 1e-6), np.array([1.0]))[2][0]
    l21_growth = abs(l21_end / l21_start)
    escape_law = kappa_n * eps ** (UNBALANCED_THIN.mu - 1.0) / (
        0.5 * abs(UNBALANCED_THIN.h1 * UNBALANCED_THIN.d1
                  + UNBALANCED_THIN.h2 * UNBALANCED_THIN.d2)
    )
    lines.append(
        f"unbalanced thin pair: verdict {sep.verdict}, kappa_N per-decade "
        f"rates {np.round(rates, 2)} (tend to sqrt(10)), "
        f"kappa_N eps^(mu-1) / (|h1 d1 + h2 d2| / 2) at eps {eps:g} = "
        f"{escape_law:.4f} (need within 0.05 of 1), off-diagonal growth "
        f"{l21_growth:.0f}x over six decades"
    )
    if sep.verdict != "separated":
        failures.append("unbalanced verdict not separated")
    if l21_growth < 100.0:
        failures.append("off-diagonal entry does not blow up")
    if ladder.n == 0 or not verify_ladder(spec, ladder):
        failures.append(
            f"the ladder at eps {eps:g} is empty or fails verify_ladder, so "
            "the escape law cannot be judged there"
        )
    elif not abs(escape_law - 1.0) < 0.05:
        failures.append(
            f"kappa_N eps^(mu-1) is {escape_law:.3f}x |h1 d1 + h2 d2| / 2; "
            "the level does not escape like eps^(1-mu)"
        )

    print("criterion 08: " + " | ".join(lines))
    assert not failures, "; ".join(failures)


def test_criterion_09_identity_suite():
    rng = np.random.default_rng(909)
    worst_spread = 0.0
    worst_reciprocal = 0.0
    for _ in range(200):
        spec, k = draw_cancelling_spec(rng)
        ratios, reciprocal = amplitude_ratio_expressions(spec, k)
        ratios = np.asarray(ratios)
        scale = max(1.0, float(np.max(np.abs(ratios))))
        worst_spread = max(
            worst_spread, float(np.max(np.abs(ratios - ratios[0]))) / scale
        )
        worst_reciprocal = max(
            worst_reciprocal,
            abs(reciprocal - 1.0 / ratios[0]) / max(1.0, abs(reciprocal)),
        )
    print(f"criterion 09: 200 cancelling draws, worst expression spread "
          f"{worst_spread:.3e}, worst reciprocal mismatch "
          f"{worst_reciprocal:.3e} (tol 1e-10)")
    assert worst_spread < 1e-10
    assert worst_reciprocal < 1e-10


def test_criterion_10_pairing_slopes():
    eps_grid = np.logspace(-1, -4, 13)
    slopes = []
    for probe in PAIRING_PROBES:
        gaps = []
        for eps in eps_grid:
            res = delta_prime_pairing(DIPOLE, eps, probe)
            gaps.append(abs(res.value - res.companion))
        slopes.append(_loglog_slope(eps_grid, gaps))
    bad_grid = np.logspace(-4, -7, 13)
    bad_slopes = []
    for probe in PAIRING_PROBES:
        vals = [abs(delta_prime_pairing(DIPOLE_UNBALANCED, eps, probe).value)
                for eps in bad_grid]
        bad_slopes.append(_loglog_slope(bad_grid, vals))
    print(f"criterion 10: balanced gap slopes {np.round(slopes, 3)} "
          f"(need > 0), unbalanced value slopes {np.round(bad_slopes, 3)} "
          f"(need within 0.15 of -0.5)")
    for slope in slopes:
        assert slope > 0.0
    for slope in bad_slopes:
        assert slope == pytest.approx(-0.5, abs=0.15)


def test_criterion_11_cli_determinism(tmp_path):
    config = {
        "units": "eV",
        "spec": {"v1": 0.5, "l1": 1.0, "v2": -0.5, "l2": 0.6, "r": 2.0},
        "k_grid": {"start": 0.2, "stop": 2.4, "count": 60},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    pairs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(
            ["scatter", "--config", str(cfg), "--out", str(out)]
        ) == 0
        assert cli.main(
            ["scatter", "--config", str(cfg), "--out", str(out / "j"),
             "--format", "json"]
        ) == 0
        pairs.append(
            (
                (out / "scatter.csv").read_bytes(),
                (out / "scatter.gp").read_bytes(),
                (out / "j" / "scatter.json").read_bytes(),
            )
        )
    same = all(a == b for a, b in zip(pairs[0], pairs[1]))
    print(f"criterion 11: two identical runs, byte-identical outputs: {same}")
    assert same
