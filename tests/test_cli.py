"""End-to-end checks of the command-line front end."""

import argparse
import json
import math
import pathlib
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilayer1d import (
    DoubleLayerSpec,
    SqueezeFamily,
    bound,
    cli,
    delta_prime_pairing,
    probes,
    scattering_data,
)
from bilayer1d.core import EV_TO_INV_NM2


SPEC_SECTION = {"v1": 0.5, "l1": 1.0, "v2": -0.5, "l2": 0.6, "r": 2.0}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(args):
    return cli.main([str(a) for a in args])


def test_scatter_csv_round_trips_against_library(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "eV",
            "spec": SPEC_SECTION,
            "k_grid": {"start": 0.2, "stop": 2.0, "count": 19},
        },
    )
    out = tmp_path / "out"
    assert _run(["scatter", "--config", cfg, "--out", out]) == 0
    text = (out / "scatter.csv").read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "k,re_a,im_a,re_b,im_b,transmission,reflection,unitarity_defect"
    assert len(lines) == 20
    spec = DoubleLayerSpec.from_ev(0.5, 1.0, -0.5, 0.6, 2.0)
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        data = scattering_data(spec, cells[0])
        assert cells[1] == pytest.approx(data.a.real, rel=1e-12)
        assert cells[4] == pytest.approx(data.b.imag, rel=1e-12, abs=1e-12)
        assert cells[5] == pytest.approx(1.0 / abs(data.a) ** 2, rel=1e-12)
    assert (out / "scatter.gp").exists()


def test_scatter_accepts_energy_grid_and_unit_override(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "spec": {
                "v1": 0.5 * EV_TO_INV_NM2,
                "l1": 1.0,
                "v2": -0.5 * EV_TO_INV_NM2,
                "l2": 0.6,
                "r": 2.0,
            },
            # an energy grid in nm^-2, as the wavenumbers sqrt(k^2)
            "k_grid": [math.sqrt(k2) for k2 in (0.4, 0.9, 1.6)],
        },
    )
    out = tmp_path / "out"
    assert _run(["scatter", "--config", cfg, "--out", out]) == 0
    lines = (out / "scatter.csv").read_text().strip().split("\n")
    ks = [float(line.split(",")[0]) for line in lines[1:]]
    assert ks == [math.sqrt(k2) for k2 in (0.4, 0.9, 1.6)]


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "eV",
            "spec": SPEC_SECTION,
            "k_grid": {"start": 0.3, "stop": 2.5, "count": 40},
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(["scatter", "--config", cfg, "--out", out1]) == 0
    assert _run(["scatter", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "scatter.csv").read_bytes() == (out2 / "scatter.csv").read_bytes()


def test_json_format_carries_version_field(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"units": "eV", "spec": SPEC_SECTION, "k_grid": [0.5, 1.0]},
    )
    out = tmp_path / "out"
    assert _run(["scatter", "--config", cfg, "--out", out, "--format", "json"]) == 0
    payload = json.loads((out / "scatter.json").read_text())
    assert payload["spec_version"] == 1
    assert payload["columns"][0] == "k"
    assert len(payload["rows"]) == 2


def test_boundstates_for_a_single_structure(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"units": "eV", "spec": {"v1": -0.9, "l1": 1.4, "v2": -0.4, "l2": 0.9, "r": 0.5}},
    )
    out = tmp_path / "out"
    assert _run(["boundstates", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "boundstates.json").read_text())
    assert summary["verified"] is True
    assert summary["count"] == len(summary["kappas"])
    assert summary["count"] >= 1
    lines = (out / "boundstates.csv").read_text().strip().split("\n")
    assert lines[0] == "eps,level_index,kappa"
    assert len(lines) == summary["count"] + 1


def test_boundstates_of_deep_equal_wells_exits_0_unverified(tmp_path):
    # 36 levels in 18 doublets split below the float spacing of kappa, so
    # the ladder cannot be certified; G lies within rounding of j * pi at
    # some bisection points, where Brent's ends can read one sign
    cfg = _write_config(
        tmp_path,
        {"units": "nm^-2", "spec": {"v1": -3000.0, "l1": 1.0, "v2": -3000.0, "l2": 1.0, "r": 5.0}},
    )
    out = tmp_path / "out"
    assert _run(["boundstates", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "boundstates.json").read_text())
    assert summary["verified"] is False
    assert summary["count"] == len(summary["kappas"]) == 36


def test_boundstates_family_sweep(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "eV",
            "family": {
                "mu": 2.0, "nu": 2.0, "tau": 2.0,
                "h1": 0.5, "h2": -0.5, "d1": 1.0, "d2": 0.6, "c": 2.0,
            },
            "eps_grid": [1.0, 0.1],
            "tol": 0.02,
        },
    )
    out = tmp_path / "out"
    assert _run(["boundstates", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "boundstates.json").read_text())
    assert summary["scenario"] == "shallowest_survives"
    assert summary["region"] == "P2"
    assert summary["branch"] == 2
    rows = (out / "boundstates.csv").read_text().strip().split("\n")[1:]
    eps_seen = sorted({float(r.split(",")[0]) for r in rows})
    assert eps_seen == [0.1, 1.0]


def test_resonance_report(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "family": {
                "mu": 1.5, "nu": 1.5, "tau": 1.0,
                "h1": 1.31232, "h2": -1.31232, "d1": 12.0, "d2": 12.0, "c": 20.0,
            },
            "eps_samples": [1e-2],
            "k": 1.0,
            "tol": 1e-9,
        },
    )
    out = tmp_path / "out"
    assert _run(["resonance", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "resonance.json").read_text())
    assert payload["region"] == "S2"
    assert payload["verdict"] == "Y"
    assert payload["theta"] == pytest.approx(1.0)
    assert payload["samples"][0]["transmission"] <= 1.0


def test_wavefunction_bound_mode(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "eV",
            "spec": {"v1": -0.9, "l1": 1.4, "v2": -0.4, "l2": 0.9, "r": 0.5},
            "mode": "bound",
            "level": 1,
            "x_grid": {"start": -2.0, "stop": 5.0, "count": 141},
        },
    )
    out = tmp_path / "out"
    assert _run(["wavefunction", "--config", cfg, "--out", out]) == 0
    lines = (out / "wavefunction.csv").read_text().strip().split("\n")
    assert lines[0] == "x,re_psi,im_psi,abs_psi"
    assert len(lines) == 142


def test_wavefunction_missing_level_is_domain_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "units": "eV",
            "spec": {"v1": -0.9, "l1": 1.4, "v2": -0.4, "l2": 0.9, "r": 0.5},
            "mode": "bound",
            "level": 40,
        },
    )
    assert _run(["wavefunction", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "domain error" in capsys.readouterr().err


def test_deltaprime_gap_table(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "family": {
                "mu": 1.5, "nu": 1.0, "tau": 1.0,
                "h1": 1.31232, "h2": -1.31232, "d1": 12.0, "d2": 12.0, "c": 20.0,
            },
            "eps_grid": [1e-3, 1e-4, 1e-5],
            "test_function": {"kind": "gaussian", "sigma": 3.0, "center": -3.0},
        },
    )
    out = tmp_path / "out"
    assert _run(["deltaprime", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "deltaprime.json").read_text())
    assert summary["region"] == "Q1"
    assert summary["gamma"] is not None
    rows = (out / "deltaprime.csv").read_text().strip().split("\n")[1:]
    gaps = [abs(float(r.split(",")[3])) for r in rows]
    assert gaps[-1] < gaps[0]


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert _run(["scatter", "--config", tmp_path / "nope.json", "--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert _run(["scatter", "--config", path, "--out", tmp_path]) == 2


def test_spec_and_family_together_is_config_error(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "units": "eV",
            "spec": SPEC_SECTION,
            "family": {
                "mu": 2.0, "nu": 2.0, "tau": 2.0,
                "h1": 0.5, "h2": -0.5, "d1": 1.0, "d2": 0.6, "c": 2.0,
            },
            "k_grid": [1.0],
        },
    )
    assert _run(["scatter", "--config", cfg, "--out", tmp_path]) == 2


def test_bad_units_is_config_error(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"units": "joule", "spec": SPEC_SECTION, "k_grid": [1.0]},
    )
    assert _run(["scatter", "--config", cfg, "--out", tmp_path]) == 2


@pytest.mark.parametrize("factor", [0.0, -2.0])
def test_non_positive_ev_to_inv_nm2_is_config_error(tmp_path, capsys, factor):
    # a negative factor once turned the barrier into a well; the key is now
    # retired, and refused as unknown whatever its value
    cfg = _write_config(
        tmp_path,
        {"units": "eV", "ev_to_inv_nm2": factor, "spec": SPEC_SECTION, "k_grid": [1.0]},
    )
    assert _run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error: unknown config key 'ev_to_inv_nm2'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_boundstates_null_spec_runs_the_family_sweep(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"units": "eV", "spec": None, "family": FAMILY_SECTION, "eps_grid": [1.0]},
    )
    out = tmp_path / "o"
    assert _run(["boundstates", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "boundstates.json").read_text())
    assert summary["region"] == "P2"
    assert summary["eps"] == [1.0]


def test_divergent_family_is_domain_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "family": {
                "mu": 1.5, "nu": 1.0, "tau": 0.75,
                "h1": 1.31232, "h2": -1.31232, "d1": 1.0, "d2": 1.0, "c": 2.0,
            },
        },
    )
    assert _run(["resonance", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "domain error" in capsys.readouterr().err


def test_numerical_failure_maps_to_exit_4(tmp_path, monkeypatch):
    cfg = _write_config(
        tmp_path,
        {"units": "eV", "spec": SPEC_SECTION, "k_grid": [1.0]},
    )

    def explode(*args, **kwargs):
        raise ArithmeticError("synthetic blow-up")

    monkeypatch.setattr(cli, "amplitude_grid", explode)
    assert _run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 4


@pytest.mark.parametrize("v1, l1", [(5000.0, 20.0), (300.0, 22.0)])
def test_opaque_barrier_scatter_is_numerical_failure(tmp_path, capsys, v1, l1):
    # (5000, 20) overflows the amplitudes to NaN; (300, 22) keeps them
    # finite near 1e167 but overflows |a|^2, so the defect column is NaN
    cfg = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "spec": {"v1": v1, "l1": l1, "v2": 0.0, "l2": 0.0, "r": 0.0},
            "k_grid": [0.05, 1.0, 4.0],
        },
    )
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert _run(["scatter", "--config", cfg, "--out", out]) == 4
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_opaque_barrier_wavefunction_is_numerical_failure(tmp_path, capsys, fmt):
    # 199 of the 400 samples overflowed to NaN and were written as nan or null
    cfg = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "spec": {"v1": 5000.0, "l1": 20.0, "v2": 0.0, "l2": 0.0, "r": 0.0},
            "mode": "scatter",
            "k": 1.0,
        },
    )
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert _run(["wavefunction", "--format", fmt, "--config", cfg, "--out", out]) == 4
    assert "overflows at x=" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_resonance_is_numerical_failure(tmp_path, capsys):
    # sqrt(h1 d1^2) = 1000 overflowed the expansion, whose NaN residual
    # was written as null under the verdict "separated"
    family = {"mu": 2.0, "nu": 2.0, "tau": 2.0, "h1": 1e6, "h2": -2.0,
              "d1": 1.0, "d2": 1.0, "c": 1.0}
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": family, "eps_samples": [0.1]})
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert _run(["resonance", "--config", cfg, "--out", out]) == 4
    assert "eps-expansion of M overflows" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_resonance_sample_is_numerical_failure(tmp_path, capsys):
    # a thin slab keeps the expansion finite, but at eps = 0.5 its
    # sqrt(v1) l1 is 840, past cosh's float range: the sample's
    # transmission was NaN and written as null
    family = {"mu": 1.5, "nu": 1.0, "tau": 1.0, "h1": 1e6, "h2": -2.0,
              "d1": 1.0, "d2": 1.0, "c": 2.0}
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": family,
                                   "eps_samples": [0.5, 1.0]})
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert _run(["resonance", "--config", cfg, "--out", out]) == 4
    assert "overflows at eps=0.5" in capsys.readouterr().err
    assert not out.exists()


def test_resonance_sample_whose_square_overflows_is_numerical_failure(tmp_path, capsys):
    # |a| is finite but above 1.3e154, so abs(a) ** 2 once raised a bare
    # OverflowError, reported as "(34, 'Numerical result out of range')"
    family = {"mu": 1.5, "nu": 1.0, "tau": 1.0, "h1": 1.4e5, "h2": -2.0,
              "d1": 1.0, "d2": 1.0, "c": 2.0}
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": family, "eps_samples": [1.0]})
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert _run(["resonance", "--config", cfg, "--out", out]) == 4
    assert "numerical failure: this structure overflows at eps=1.0" in capsys.readouterr().err
    assert not out.exists()


def test_deltaprime_with_a_gaussian_bump_wider_than_the_float_range_is_its_window(tmp_path):
    # sigma ** 2 once raised a bare OverflowError, so this exited 4
    runs = {}
    for name, probe in (("wide", {"kind": "gaussian_bump", "sigma": 1e200, "width": 3.0}),
                        ("window", {"kind": "bump", "width": 3.0})):
        cfg = _write_config(tmp_path, {"units": "nm^-2", "family": FAMILY_SECTION,
                                       "eps_grid": [0.1, 0.01], "test_function": probe},
                            name=f"{name}.json")
        assert _run(["deltaprime", "--config", cfg, "--out", tmp_path / name]) == 0
        runs[name] = _outputs(tmp_path / name)
    assert runs["wide"] == runs["window"]


@pytest.mark.parametrize("command", ["deltaprime", "boundstates"])
def test_a_sweep_without_eps_grid_runs_on_the_default_grid(tmp_path, command):
    defaults = {"start": 1.0, "stop": 1e-3, "per_decade": 8}
    runs = []
    for extra in ({}, {"eps_grid": defaults}):
        cfg = _write_config(tmp_path, {"units": "nm^-2", "family": FAMILY_SECTION, **extra})
        out = tmp_path / f"out{len(runs)}"
        assert _run([command, "--config", cfg, "--out", out]) == 0
        runs.append(_outputs(out))
    assert runs[0] == runs[1]


def test_scatter_unitarity_defect_is_relative(tmp_path):
    # |a|^2 runs from 3e304 to 1e287 on this grid; an absolute defect
    # |(|a|^2 - |b|^2 - 1)| would read the rounding of |a|^2 as 4.9e288
    # at k = 2.025
    cfg = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "spec": {"v1": 200.0, "l1": 25.0, "v2": 0.0, "l2": 0.0, "r": 0.0},
            "k_grid": [2.0, 2.025, 2.5, 5.0],
        },
    )
    out = tmp_path / "out"
    assert _run(["scatter", "--config", cfg, "--out", out]) == 0
    rows = (out / "scatter.csv").read_text().strip().split("\n")[1:]
    defects = [float(row.split(",")[-1]) for row in rows]
    assert max(defects) < 1e-15


def _outputs(folder):
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


def test_cached_parser_carries_no_state_between_calls(tmp_path):
    # a leaked --format json changes the files of the call after it
    sweep = _write_config(
        tmp_path,
        {
            "units": "nm^-2",
            "family": {
                "mu": 2.0, "nu": 2.0, "tau": 2.0, "h1": 1.31232, "h2": -1.31232,
                "d1": 1.0121527769027671, "d2": 0.6, "c": 2.0,
            },
            "eps_grid": [1.0, 0.1],
        },
        "sweep.json",
    )
    scatter = _write_config(
        tmp_path, {"units": "eV", "spec": SPEC_SECTION, "k_grid": [0.5, 1.0, 2.0]}, "scatter.json"
    )
    calls = [
        ["boundstates", "--config", sweep, "--format", "json"],
        ["boundstates", "--config", sweep],
        ["scatter", "--config", scatter, "--format", "json"],
        ["scatter", "--config", scatter],
    ]
    for i, call in enumerate(calls):
        assert _run(call + ["--out", tmp_path / f"seq{i}"]) == 0
    for i, call in enumerate(calls):
        cli._parser.cache_clear()
        assert _run(call + ["--out", tmp_path / f"alone{i}"]) == 0
        assert _outputs(tmp_path / f"seq{i}") == _outputs(tmp_path / f"alone{i}")
    assert _outputs(tmp_path / "seq0") != _outputs(tmp_path / "seq1")


def test_table_writer_bytes(tmp_path):
    args = argparse.Namespace(format="csv", out=str(tmp_path))
    columns = {
        "eps": np.array([-0.0, 1.2345678901234567]),
        "pairing": [1, -7],
        "companion": np.array([1e-300, 12345678901234567.0]),
        "gap": [None, 2.5e-08],
        "slope": [0.1 + 0.2, None],
    }
    cli._write_table(args, "deltaprime", columns)
    assert (tmp_path / "deltaprime.csv").read_bytes() == (
        b"eps,pairing,companion,gap,slope\n"
        b"-0.0,1,1e-300,,0.30000000000000004\n"
        b"1.2345678901234567,-7,1.2345678901234568e+16,2.5e-08,\n"
    )


def _neighbours(edge, n=3):
    """edge and its n nearest doubles on each side."""
    below, above = [edge], [edge]
    for _ in range(n):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def test_float_texts_are_the_repr_of_each_value():
    # orjson writes every finite cell outside [1e-5, 1e-4): plainly on
    # [1e-4, 1e16) and at zero, as repr does, and elsewhere in an exponent
    # layout that two substitutions make repr's ("1e16" to "1e+16", "1.5e-6"
    # to "1.5e-06"); repr writes [1e-5, 1e-4), where orjson stays plain.  A
    # newer orjson that moves its switch between plain and exponent layout
    # fails here
    edges = [x for edge in (1e-5, 1e-4, 1e16) for x in _neighbours(edge)]
    decades = [5e-324, *(10.0 ** e for e in range(-323, 309)), 1.7976931348623157e308]
    dense = np.geomspace(1e-4, 1e16, 20_001)[:-1]
    rng = np.random.default_rng(30)
    exponents = np.arange(-1074, 1024)
    binades = np.ldexp(1.0 + rng.random(exponents.size) * (exponents >= -1022), exponents)
    patterns = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    patterns = patterns[np.isfinite(patterns)]  # a table refuses the rest before it writes
    special = [0.0, 5e-324, 2.2250738585072009e-308, 1e-310, 100000000000.00002]
    values = np.concatenate([edges, decades, dense, np.round(dense[dense >= 1.0]), binades,
                             special])
    col = np.concatenate([values, -values, [-0.0], patterns])
    assert cli._float_texts(col) == list(map(repr, col.tolist()))
    assert cli._float_texts(np.array([])) == []
    # only exponent-form cells; a last cell with a one-digit negative exponent
    for col in (np.array([1e16, -2.5e-7, 1e-300, 1.5e300, -5e-324, 3e-9]),
                np.array([1.0, 1.5e-06])):
        assert cli._float_texts(col) == list(map(repr, col.tolist()))
    # strided views, which orjson reads only once copied: the real and
    # imaginary parts of a complex array, as scatter and wavefunction pass
    z = values.astype(complex)
    z.imag = -values[::-1]
    for part in (z.real, z.imag, patterns[::3]):
        assert not part.flags.c_contiguous
        assert cli._float_texts(part) == list(map(repr, part.tolist()))


# finite doubles, with subnormals, +-0.0, the ranges around 1e16, 1e-4 and
# 1e-5 where repr or orjson switches between plain and exponent notation,
# and ranges that orjson writes in its exponent layout
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-307, 1e-307),
    st.floats(1e15, 1e17) | st.floats(-1e17, -1e15),
    st.floats(1e-6, 1e-3) | st.floats(-1e-3, -1e-6),
    st.floats(1e-10, 1e-6) | st.floats(-1e-6, -1e-10),
    st.floats(1e16, 1e300) | st.floats(-1e300, -1e16),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(_DOUBLES, st.none() | _DOUBLES), min_size=1, max_size=12))
def test_table_cells_are_the_repr_of_their_values(rows):
    # an array column and a list column with empty cells; the JSON rows
    # hold the same values
    arrays, lists = np.array([a for a, _ in rows]), [b for _, b in rows]
    want = [[a, b] for a, b in rows]
    with tempfile.TemporaryDirectory() as out:
        for fmt in ("csv", "json"):
            args = argparse.Namespace(format=fmt, out=out)
            cli._write_table(args, "scatter", {"a": arrays, "b": lists})
        lines = pathlib.Path(out, "scatter.csv").read_text().split("\n")
        payload = json.loads(pathlib.Path(out, "scatter.json").read_text())
    assert lines[0] == "a,b" and lines[-1] == ""
    assert lines[1:-1] == [",".join("" if v is None else repr(v) for v in row) for row in want]
    assert payload["columns"] == ["a", "b"]
    assert [list(map(repr, r)) for r in payload["rows"]] == [list(map(repr, r)) for r in want]


def _json_safe(value):
    """The JSON form of value that json.dumps wrote before orjson did: NaN and
    infinities as None, NumPy scalars and arrays as Python values."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


# printable ASCII without digits.  Every string the CLI writes is a library
# constant (a region, verdict, scenario or mode) or a note that formats a
# number with {:g}, such as "eps**(1e-05)": {:g} writes [1e-5, 1e-4) in
# exponent form and pads a one-digit exponent, so no text of the CLI holds
# a "0.0000", an "e" before a digit or an "e-" before one digit and a
# delimiter, which are what the three substitutions of _json_text look for
_NO_DIGITS = "".join(c for c in map(chr, range(32, 127)) if not c.isdigit())
# and plain numbers whose digits hold a "0.0000" that is not a number's start
_FLOATS = _DOUBLES | st.sampled_from([math.nan, math.inf, -math.inf, 10.00001, -100.0000234])
_LEAVES = st.one_of(
    _FLOATS, _FLOATS.map(np.float64),
    st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_), st.none(), st.text(_NO_DIGITS, max_size=12),
    st.lists(_FLOATS, max_size=6).map(lambda v: np.array(v, dtype=float)),
)
_PAYLOADS = st.dictionaries(st.text(_NO_DIGITS, max_size=8), st.recursive(
    _LEAVES, lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                            | st.dictionaries(st.text(_NO_DIGITS, max_size=8), inner, max_size=4)),
    max_leaves=16), max_size=6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_json_documents_are_json_dumps_of_their_payload(payload):
    # orjson writes the summaries and --format json documents; the bytes are
    # those of json.dumps of the payload made JSON-safe, as the CLI wrote
    # them before: repr of each number, NaN and infinities as null
    want = json.dumps(_json_safe({**payload, "spec_version": cli.SPEC_VERSION}),
                      indent=2, sort_keys=True) + "\n"
    assert cli._json_text(payload) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad, row", [(math.nan, 2), (-math.inf, 1)])
def test_table_with_a_cell_that_is_not_finite_writes_nothing(tmp_path, fmt, bad, row):
    # an array cell or a list cell; None, an empty cell, is not refused
    args = argparse.Namespace(format=fmt, out=str(tmp_path / "out"))
    columns = {"eps": [1.0, 0.1, 0.01], "pairing": np.array([1.0, 2.0, 3.0]),
               "companion": [None] * 3, "gap": [1.0, 2.0, 3.0], "slope": [None, 0.5, 0.5]}
    if row == 2:
        columns["pairing"][row] = bad
    else:
        columns["slope"][row] = bad
    with pytest.raises(OverflowError, match=re.escape(f"overflows at eps={columns['eps'][row]!r}")):
        cli._write_table(args, "deltaprime", columns, {"note": ""})
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [{"mode": "scatter", "k": 1.3}, {"mode": "bound", "level": 1}])
def test_abs_psi_is_pythons_abs_of_each_row(tmp_path, extra):
    # np.abs differs from abs(complex) in the last bit on about a third of
    # the values, and would change the file
    spec = {"v1": -0.9, "l1": 1.4, "v2": -0.4, "l2": 0.9, "r": 0.5}
    cfg = _write_config(tmp_path, {"units": "eV", "spec": spec, **extra})
    assert _run(["wavefunction", "--config", cfg, "--out", tmp_path / "out"]) == 0
    lines = (tmp_path / "out" / "wavefunction.csv").read_text().split("\n")[1:-1]
    assert len(lines) == 400
    for line in lines:
        _, re_psi, im_psi, abs_psi = line.split(",")
        assert abs_psi == repr(abs(complex(float(re_psi), float(im_psi))))


FAMILY_SECTION = {
    "mu": 2.0, "nu": 2.0, "tau": 2.0, "h1": 1.3, "h2": -1.3,
    "d1": 1.0, "d2": 0.6, "c": 2.0,
}
WAVE_SCATTER = {"spec": SPEC_SECTION, "mode": "scatter"}
# a JSON integer that no float holds, once an OverflowError from
# math.isfinite and so exit 4
HUGE = 10**400


@pytest.mark.parametrize(
    "command, extra",
    [
        ("resonance", {"k": "abc"}),
        ("resonance", {"spread_tol": "x"}),
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "bound", "level": "two"}),
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "bound", "level": 2.7}),
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "bound", "level": True}),
        ("scatter", {"eps": "small", "k_grid": [1.0]}),
        ("wavefunction", {**WAVE_SCATTER, "k": True}),
        ("wavefunction", {**WAVE_SCATTER, "k": "3"}),
        ("scatter", {"spec": {**SPEC_SECTION, "r": "0.3"}, "k_grid": [1.0]}),
        ("scatter", {"spec": {**SPEC_SECTION, "v1": True}, "k_grid": [1.0]}),
        # a retired key, refused as unknown whatever its value
        ("scatter", {"spec": SPEC_SECTION, "ev_to_inv_nm2": "2.6", "k_grid": [1.0]}),
        ("resonance", {"family": {**FAMILY_SECTION, "mu": "2.0"}}),
        ("resonance", {"family": {**FAMILY_SECTION, "h1": False}}),
        ("resonance", {"eps_samples": ["1e-2"]}),
        ("resonance", {"eps_samples": [True]}),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": {"start": 0.5, "stop": 1.0, "count": 2.7}}),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": {"start": "0.5", "stop": 1.0}}),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": {"start": 0.5, "stop": True}}),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": [1.0, "2.0"]}),
        ("boundstates", {"eps_grid": {"stop": 1e-2, "per_decade": 2.5}}),
        ("boundstates", {"eps_grid": {"stop": 1e-2, "per_decade": 0}}),
        ("boundstates", {"eps_grid": [1.0, "0.1"]}),
        ("resonance", {"tol": float("nan")}),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": [1.0, float("inf")]}),
        ("deltaprime", {"test_function": {"kind": "bump", "width": "2"}}),
        ("deltaprime", {"test_function": {"kind": "bump", "width": -30.0, "center": 5.0}}),
        ("deltaprime", {"test_function": {"kind": "gaussian", "sigma": 0.0}}),
        ("deltaprime", {"test_function": {"kind": "gaussian", "sigma": 1e-200}}),
        ("deltaprime", {"test_function": {"kind": "gaussian_bump", "sigma": 1e-200,
                                          "width": 3.0}}),
        ("deltaprime", {"test_function": {"kind": "tabulated", "xs": [0.0, True, 2.0],
                                          "ys": [0.0, 1.0, 0.0]}}),
        ("scatter", {"spec": {**SPEC_SECTION, "v1": HUGE}, "k_grid": [1.0]}),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": [1.0, HUGE]}),
        ("resonance", {"tol": HUGE}),
        ("scatter", {"spec": SPEC_SECTION, "ev_to_inv_nm2": HUGE, "k_grid": [1.0]}),
        # a negative tolerance once turned an on-resonance family "separated"
        ("resonance", {"tol": -1.0}),
        ("resonance", {"spread_tol": -1.0}),
        ("boundstates", {"tol": -1.0, "eps_grid": [1.0, 0.1]}),
        # a k that is not positive once exited 0 (unused) or 3
        ("resonance", {"k": -1.0}),
        ("resonance", {"k": -1.0, "eps_samples": [0.5]}),
        ("wavefunction", {**WAVE_SCATTER, "k": -1.0}),
        ("wavefunction", {**WAVE_SCATTER, "k": 0.0}),
        # a retired key, refused as unknown whatever its value
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "bound", "kappa": -1.0}),
        # a JSON list is one value, not a list of values to check one by one
        ("scatter", {"units": ["eV"], "spec": SPEC_SECTION, "k_grid": [1.0]}),
        ("wavefunction", {**WAVE_SCATTER, "mode": ["scatter"], "k": 1.0}),
    ],
    ids=[
        "resonance-k",
        "resonance-spread_tol",
        "wavefunction-level",
        "wavefunction-level-fraction",
        "wavefunction-level-bool",
        "scatter-eps",
        "wavefunction-k-bool",
        "wavefunction-k-string",
        "spec-length-string",
        "spec-energy-bool",
        "ev_to_inv_nm2-string",
        "family-exponent-string",
        "family-energy-bool",
        "eps_samples-string",
        "eps_samples-bool",
        "k_grid-count-fraction",
        "k_grid-start-string",
        "k_grid-stop-bool",
        "k_grid-list-string",
        "eps_grid-per_decade-fraction",
        "eps_grid-per_decade-zero",
        "eps_grid-list-string",
        "resonance-tol-nan",
        "k_grid-list-inf",
        "test_function-width-string",
        "test_function-width-negative",
        "test_function-sigma-zero",
        "test_function-sigma-underflow",
        "test_function-gaussian_bump-sigma-underflow",
        "test_function-xs-bool",
        "spec-energy-huge-int",
        "k_grid-list-huge-int",
        "resonance-tol-huge-int",
        "ev_to_inv_nm2-huge-int",
        "resonance-tol-negative",
        "resonance-spread_tol-negative",
        "boundstates-sweep-tol-negative",
        "resonance-k-negative",
        "resonance-k-negative-with-samples",
        "wavefunction-k-negative",
        "wavefunction-k-zero",
        "wavefunction-kappa-negative",
        "units-list",
        "mode-list",
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, command, extra):
    payload = {"units": "nm^-2", **extra}
    if "spec" not in extra:
        payload.setdefault("family", FAMILY_SECTION)
    cfg = _write_config(tmp_path, payload)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2


# 10**14 doubles are 728 TiB, beyond the address space of a 64-bit process,
# so NumPy refuses the allocation at once and no memory is touched
@pytest.mark.parametrize(
    "command, key, grid",
    [
        ("scatter", "k_grid", {"start": 0.1, "stop": 1.0, "count": 10**14}),
        ("boundstates", "eps_grid", {"start": 1.0, "stop": 1e-3, "per_decade": 10**14}),
    ],
    ids=["k_grid", "eps_grid"],
)
def test_grid_too_large_to_allocate_is_config_error(tmp_path, capsys, command, key, grid):
    # once a MemoryError traceback and exit 1
    section = {"spec": SPEC_SECTION} if command == "scatter" else {"family": FAMILY_SECTION}
    cfg = _write_config(tmp_path, {"units": "nm^-2", **section, key: grid})
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"config error: bad {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["l1", "l2", "r"])
def test_negative_width_or_gap_is_config_error(tmp_path, capsys, field):
    spec = {**SPEC_SECTION, field: -0.5}
    cfg = _write_config(tmp_path, {"units": "nm^-2", "spec": spec, "k_grid": [1.0]})
    assert _run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"spec field {field} must be >= 0" in capsys.readouterr().err


def test_eps_that_overflows_the_potential_is_domain_error(tmp_path, capsys):
    # eps**-2 overflows a float here, which once escaped as OverflowError
    payload = {"units": "nm^-2", "family": FAMILY_SECTION, "eps": 1e-200, "k_grid": [1.0]}
    cfg = _write_config(tmp_path, payload)
    assert _run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "eps = 1e-200 overflows" in capsys.readouterr().err


def test_wavenumber_whose_square_underflows_is_domain_error(tmp_path, capsys):
    # k^2 = 0 once gave NaN amplitudes here, and exit 4 for the NaN cells
    payload = {"units": "nm^-2", "spec": SPEC_SECTION, "k_grid": [1e-300, 1.0]}
    cfg = _write_config(tmp_path, payload)
    assert _run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "wavenumber 1e-300 is too small" in capsys.readouterr().err


def test_wavenumber_whose_square_overflows_is_domain_error(tmp_path, capsys):
    # k^2 = inf once gave NaN amplitudes here, and exit 4 for the NaN cells
    payload = {"units": "nm^-2", "spec": SPEC_SECTION, "k_grid": [1.0, 1e200]}
    cfg = _write_config(tmp_path, payload)
    assert _run(["scatter", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "wavenumber 1e+200 is too large" in capsys.readouterr().err


# on resonance, verdict Y at the default tol (the K2 family)
K2_SECTION = {"mu": 1.5, "nu": 1.0, "tau": 1.0, "h1": 2.5296155177944195, "h2": -1.31232,
              "d1": 1.0, "d2": 1.0, "c": 2.0}


@pytest.mark.parametrize("command", ["resonance", "boundstates"])
def test_negative_tol_flag_is_config_error(tmp_path, capsys, command):
    # --tol -1 once reported K2 "separated" with exit code 0; the flag is
    # now retired, and argparse refuses it whatever its value
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": K2_SECTION,
                                   "eps_grid": [0.1]})
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        _run([command, "--config", cfg, "--out", out, "--tol", "-1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol -1" in capsys.readouterr().err
    assert not out.exists()


def test_a_tolerance_of_zero_is_valid(tmp_path):
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": K2_SECTION,
                                   "tol": 0.0, "spread_tol": 0.0})
    assert _run(["resonance", "--config", cfg, "--out", tmp_path / "o"]) == 0


def test_non_finite_tol_flag_is_config_error(tmp_path, capsys):
    # a NaN tolerance fails every comparison, so a resonant family was once
    # reported "separated" with exit code 0; the config's "tol" refuses NaN
    # (the resonance-tol-nan row of the malformed values), and the flag is gone
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": FAMILY_SECTION})
    argv = ["resonance", "--config", cfg, "--out", tmp_path / "o", "--tol", "nan"]
    with pytest.raises(SystemExit) as exit_info:
        _run(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol nan" in capsys.readouterr().err


def test_tol_flag_is_refused_where_nothing_reads_it(tmp_path, capsys):
    # the config's "tol" is the only tolerance; no subcommand has a flag for it
    cfg = _write_config(tmp_path, {"units": "eV", "spec": SPEC_SECTION, "k_grid": [1.0]})
    with pytest.raises(SystemExit) as exit_info:
        _run(["scatter", "--config", cfg, "--out", tmp_path / "o", "--tol", "1e-3"])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_format_flag_is_refused_by_resonance(tmp_path, capsys):
    # resonance writes one JSON report whatever the flag says
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": FAMILY_SECTION})
    with pytest.raises(SystemExit) as exit_info:
        _run(["resonance", "--config", cfg, "--out", tmp_path / "o", "--format", "csv"])
    assert exit_info.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["file", "folder-under-file"])
def test_out_that_cannot_be_a_folder_is_config_error(tmp_path, capsys, below):
    cfg = _write_config(tmp_path, {"units": "eV", "spec": SPEC_SECTION, "k_grid": [1.0]})
    blocker = tmp_path / "taken"
    blocker.write_text("not a folder", encoding="utf-8")
    out = blocker / "out" if below else blocker
    assert _run(["scatter", "--config", cfg, "--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "not a folder"


def test_ev_to_inv_nm2_scales_spec_and_k2_grid(tmp_path):
    # an eV spec is the nm^-2 spec with its energies scaled by EV_TO_INV_NM2;
    # another effective mass gives its energies in nm^-2
    ks = [0.2, 0.45, 0.8]
    in_ev = _write_config(tmp_path, {"units": "eV", "spec": SPEC_SECTION, "k_grid": ks},
                          name="ev.json")
    scaled = {key: SPEC_SECTION[key] * (EV_TO_INV_NM2 if key in ("v1", "v2") else 1.0)
              for key in SPEC_SECTION}
    in_nm = _write_config(tmp_path, {"units": "nm^-2", "spec": scaled, "k_grid": ks},
                          name="nm.json")
    assert _run(["scatter", "--config", in_ev, "--out", tmp_path / "ev"]) == 0
    assert _run(["scatter", "--config", in_nm, "--out", tmp_path / "nm"]) == 0
    text = (tmp_path / "ev" / "scatter.csv").read_text()
    assert text == (tmp_path / "nm" / "scatter.csv").read_text()
    assert [float(line.split(",")[0]) for line in text.strip().split("\n")[1:]] == ks


DIPOLE_FAMILY = {
    "mu": 1.5, "nu": 1.0, "tau": 1.0,
    "h1": 1.31232, "h2": -1.31232, "d1": 12.0, "d2": 12.0, "c": 20.0,
}
DEEP_SPEC = {"v1": -0.9, "l1": 1.4, "v2": -0.4, "l2": 0.9, "r": 0.5}


@pytest.mark.parametrize(
    "command, cfg, details",
    [
        ("scatter", {"spec": SPEC_SECTION, "k_grid": {"start": 0.2, "stop": 2.0, "count": 7}},
         set()),
        ("boundstates", {"spec": DEEP_SPEC}, set()),
        ("boundstates", {"family": {**FAMILY_SECTION, "h1": 0.5, "h2": -0.5},
                         "eps_grid": [1.0, 0.1], "tol": 0.02}, set()),
        ("wavefunction", {"spec": DEEP_SPEC, "mode": "bound", "level": 1,
                          "x_grid": {"start": -2.0, "stop": 5.0, "count": 15}},
         {"mode", "continuity_defect"}),
        ("deltaprime", {"family": DIPOLE_FAMILY, "eps_grid": [1e-3, 1e-4],
                        "test_function": {"kind": "gaussian", "sigma": 3.0}}, set()),
    ],
    ids=["scatter", "boundstates-structure", "boundstates-sweep", "wavefunction",
         "deltaprime"],
)
def test_json_format_holds_the_csv_table_and_summary(tmp_path, command, cfg, details):
    path = _write_config(tmp_path, {"units": "eV", **cfg})
    out_csv, out_json = tmp_path / "csv", tmp_path / "json"
    assert _run([command, "--config", path, "--out", out_csv]) == 0
    assert _run([command, "--config", path, "--out", out_json, "--format", "json"]) == 0
    assert [p.name for p in out_json.iterdir()] == [f"{command}.json"]
    payload = json.loads((out_json / f"{command}.json").read_text())

    lines = (out_csv / f"{command}.csv").read_text().strip().split("\n")
    assert payload.pop("columns") == lines[0].split(",")
    parsed = [[float(c) if c else None for c in line.split(",")] for line in lines[1:]]
    assert payload.pop("rows") == parsed
    assert len(parsed) > 1

    # the CSV-mode summary, where the command writes one, carries spec_version
    summary_path = out_csv / f"{command}.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    assert payload.pop("spec_version") == summary.pop("spec_version", 1) == 1
    assert set(payload) - set(summary) == details
    assert {key: payload[key] for key in summary} == summary


# the inputs that only restated another, each refused by name: --tol by
# argparse, the config keys as unknown
@pytest.mark.parametrize(
    "command, extra, flags, message",
    [
        ("boundstates", {"spec": SPEC_SECTION}, ["--tol", "1e-6"],
         "unrecognized arguments: --tol 1e-6"),
        ("scatter", {"units": "eV", "spec": SPEC_SECTION, "k_grid": [1.0],
                     "ev_to_inv_nm2": EV_TO_INV_NM2}, [], "unknown config key 'ev_to_inv_nm2'"),
        ("scatter", {"spec": SPEC_SECTION, "k2_grid": [1.0]}, [],
         "unknown config key 'k2_grid'"),
        # the one level of DEEP_SPEC in nm^-2, "level": 1
        ("wavefunction", {"spec": DEEP_SPEC, "mode": "bound", "kappa": 0.5481297268731239}, [],
         "unknown config key 'kappa'"),
    ],
    ids=["tol-flag", "ev_to_inv_nm2", "k2_grid", "kappa"],
)
def test_a_retired_input_exits_2_naming_it(tmp_path, capsys, command, extra, flags, message):
    cfg = _write_config(tmp_path, {"units": "nm^-2", **extra})
    out = tmp_path / "o"
    try:
        code = _run([command, "--config", cfg, "--out", out, *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


SPEC_WITHOUT_R = {key: value for key, value in SPEC_SECTION.items() if key != "r"}
# no finite squeezing limit: resonance exits 3 once it has computed
DIVERGENT_FAMILY = {"mu": 1.5, "nu": 1.0, "tau": 0.75, "h1": 1.31232, "h2": -1.31232,
                    "d1": 1.0, "d2": 1.0, "c": 2.0}
TINY_STEP_FAMILY = {**DIVERGENT_FAMILY, "tau": 1.0}
# a step of 1.05e-167 under a rise of 1 overflows the spline's coefficients
TINY_STEP_TABLE = {"kind": "tabulated", "xs": [0.0, 1.05e-167, 1.0], "ys": [0.0, 1.0, 0.0]}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("scatter", [SPEC_SECTION], "config root must be a JSON object"),
        ("resonance", {}, 'this command needs a "family" section'),
        ("scatter", {"spec": SPEC_WITHOUT_R, "k_grid": [1.0]}, "spec section is missing 'r'"),
        ("scatter", {"family": FAMILY_SECTION, "k_grid": [1.0]},
         'a "family" config needs "eps" to realize it'),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": []},
         "k_grid must be a nonempty list of numbers"),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": {"start": 0.5, "stop": 1.0, "count": 0}},
         "k_grid count must be >= 1"),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": "0.5:1.0"},
         "k_grid must be a list or a start/stop/count object"),
        # a retired key; an energy grid is listed in k_grid as sqrt(k^2)
        ("scatter", {"spec": SPEC_SECTION, "k2_grid": [1.0, 0.0]},
         "unknown config key 'k2_grid'"),
        ("scatter", {"spec": SPEC_SECTION}, 'provide "k_grid" (nm^-1)'),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": [1.0, -0.5]}, "k_grid values must be positive"),
        ("boundstates", {"family": FAMILY_SECTION, "eps_grid": 0.1},
         "eps_grid must be a list or a start/stop/per_decade object"),
        ("deltaprime", {"family": FAMILY_SECTION, "test_function": [1.0]},
         "test_function must be an object"),
        ("deltaprime", {"family": FAMILY_SECTION, "test_function": {"kind": "gaussian"}},
         "test_function 'gaussian' is missing 'sigma'"),
        ("deltaprime", {"family": FAMILY_SECTION, "test_function": {"kind": "triangle"}},
         "unknown test_function kind 'triangle'"),
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "scatter"},
         'scatter mode needs a real "k" (nm^-1)'),
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "Bound", "k": 1.0},
         """mode must be "scatter" or "bound", got 'Bound'"""),
        ("wavefunction", {"spec": SPEC_SECTION, "k": -1.0}, "k must be positive, got -1.0"),
        # a retired key; a bound state is chosen by level
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "bound", "kappa": 0.0},
         "unknown config key 'kappa'"),
        ("resonance", {"family": FAMILY_SECTION, "k": 0.0}, "k must be positive, got 0.0"),
        ("resonance", {"family": FAMILY_SECTION, "tol": -1.0}, "tol must be >= 0, got -1.0"),
        ("resonance", {"family": FAMILY_SECTION, "spread_tol": -1e-12},
         "spread_tol must be >= 0, got -1e-12"),
        # an eps outside (0, 1] once exited 3 from realize, after any work
        ("boundstates", {"family": FAMILY_SECTION, "eps_grid": [2.0, 0.5]},
         "eps_grid values must be in (0, 1], got 2.0"),
        ("deltaprime", {"family": FAMILY_SECTION, "eps_grid": [2.0, 0.5]},
         "eps_grid values must be in (0, 1], got 2.0"),
        ("resonance", {"family": FAMILY_SECTION, "eps_samples": [1.5]},
         "eps_samples values must be in (0, 1], got 1.5"),
        ("scatter", {"family": FAMILY_SECTION, "eps": 0.0, "k_grid": [1.0]},
         "eps must be in (0, 1], got 0.0"),
        ("resonance", {"family": DIVERGENT_FAMILY, "eps_samples": [1.5]},
         "eps_samples values must be in (0, 1], got 1.5"),
        # unknown keys and fields were once ignored, and the run exited 0
        ("scatter", {"unit": "nm^-2", "spec": SPEC_SECTION, "k_grid": [1.0]},
         "unknown config key 'unit'"),
        ("resonance", {"family": FAMILY_SECTION, "tolerance": 1e-3},
         "unknown config key 'tolerance'"),
        ("boundstates", {"family": FAMILY_SECTION, "eps_gird": [0.1]},
         "unknown config key 'eps_gird'"),
        ("deltaprime", {"family": FAMILY_SECTION,
                        "test_function": {"kind": "gaussian", "sigma": 3.0, "centre": 1.0}},
         "unknown test_function key 'centre'"),
        ("scatter", {"spec": SPEC_SECTION, "k_grid": {"start": 0.5, "stop": 1.0, "step": 0.1}},
         "unknown k_grid key 'step'"),
        # a generated eps grid stops at 1e-8; "floor" once moved that end
        ("boundstates", {"family": FAMILY_SECTION,
                         "eps_grid": {"start": 1.0, "stop": 1e-3, "floor": 1e-12}},
         "unknown eps_grid key 'floor'"),
        ("scatter", {"spec": {**SPEC_SECTION, "R": 2.0}, "k_grid": [1.0]},
         "unknown spec section key 'R'"),
        # k2_grid was once dropped without a word beside k_grid; now it is
        # refused as a retired key even there
        ("scatter", {"spec": SPEC_SECTION, "k_grid": [1.0], "k2_grid": [1.0]},
         "unknown config key 'k2_grid'"),
        # a step in xs far below the scale of ys overflows the spline, once
        # exit 4 with "this structure overflows at eps=1.0" and a RuntimeWarning
        ("deltaprime", {"family": TINY_STEP_FAMILY, "eps_grid": [1.0, 0.1],
                        "test_function": TINY_STEP_TABLE},
         "bad test_function: the spline through this table overflows"),
        # once exit 3, "level 0 does not exist"
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "bound", "level": 0},
         "level must be >= 1, got 0"),
        ("wavefunction", {"spec": SPEC_SECTION, "mode": "bound", "level": -1},
         "level must be >= 1, got -1"),
    ],
    ids=[
        "root-not-object",
        "no-family-section",
        "section-missing-key",
        "family-without-eps",
        "empty-list",
        "count-below-1",
        "grid-neither-list-nor-object",
        "k2_grid-not-positive",
        "no-k-grid",
        "k-not-positive",
        "eps_grid-wrong-type",
        "test_function-not-object",
        "test_function-missing-key",
        "test_function-unknown-kind",
        "wavefunction-scatter-without-k",
        "wavefunction-unknown-mode",
        "wavefunction-k-not-positive",
        "wavefunction-kappa-not-positive",
        "resonance-k-not-positive",
        "tol-negative",
        "spread_tol-negative",
        "boundstates-eps_grid-above-1",
        "deltaprime-eps_grid-above-1",
        "resonance-eps_samples-above-1",
        "scatter-eps-zero",
        "resonance-eps_samples-before-divergence",
        "unknown-key-unit",
        "unknown-key-tolerance",
        "unknown-key-eps_gird",
        "test_function-unknown-key",
        "k_grid-unknown-key",
        "eps_grid-floor",
        "spec-unknown-key",
        "k_grid-and-k2_grid",
        "test_function-tabulated-tiny-step",
        "level-zero",
        "level-negative",
    ],
)
def test_config_refusal_names_its_cause(tmp_path, capsys, command, payload, message):
    if isinstance(payload, dict):
        payload = {"units": "nm^-2", **payload}
    cfg = _write_config(tmp_path, payload)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_key_that_another_subcommand_reads_is_left_alone(tmp_path, command):
    # one config serves every subcommand; each reads its own keys only
    shared = {"units": "nm^-2", "family": DIPOLE_FAMILY, "eps": 0.1, "k_grid": [1.0],
              "k": 1.0, "eps_samples": [0.1], "eps_grid": [0.1, 0.01],
              "test_function": {"kind": "gaussian", "sigma": 3.0}, "mode": "scatter"}
    cfg = _write_config(tmp_path, shared)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 0


def test_readme_config_schema_names_every_declared_key():
    # the key table of README.md's "Config schema" section, and the top-level
    # keys of its example, against the keys the CLI declares
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config schema\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.DOTALL)
    assert set(cli._KEYS) <= set(re.findall(r"`([^`\n]+)`", prose))
    table = set(re.findall(r"^\| `(\w+)` ", section, re.MULTILINE))
    example = set(re.findall(r'^  "(\w+)":', section.split("```")[1], re.MULTILINE))
    assert table == set(cli._KEYS)
    assert example and example <= set(cli._KEYS)


@pytest.mark.parametrize(
    "text",
    [
        # UnicodeDecodeError is a ValueError, once exit 3
        '{"units": "nm^-2", "note": "\xe9"}'.encode("latin-1"),
        # once an uncaught RecursionError
        b"[" * 100_000 + b"]" * 100_000,
        # past the digit limit of int parsing, a ValueError, once exit 3
        b'{"k_grid": [' + b"1" * 5000 + b"]}",
    ],
    ids=["not-utf8", "nested-too-deeply", "integer-too-long"],
)
def test_unreadable_config_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert _run(["scatter", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err


def _rows(path):
    """The data rows of a CSV table, as lists of cells."""
    return [line.split(",") for line in path.read_text().strip().split("\n")[1:]]


def test_deltaprime_with_a_gaussian_bump_probe(tmp_path):
    eps_grid = [1e-2, 1e-3]
    tf = {"kind": "gaussian_bump", "sigma": 2.0, "width": 6.0, "center": -1.0}
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": DIPOLE_FAMILY,
                                   "eps_grid": eps_grid, "test_function": tf})
    out = tmp_path / "o"
    assert _run(["deltaprime", "--config", cfg, "--out", out]) == 0
    family = SqueezeFamily(**DIPOLE_FAMILY)
    probe = probes.gaussian_bump(2.0, 6.0, -1.0)
    for eps, row in zip(eps_grid, _rows(out / "deltaprime.csv"), strict=True):
        want = delta_prime_pairing(family, eps, probe)
        assert [float(c) for c in row[:3]] == [eps, want.value, want.companion]


@pytest.mark.parametrize(
    "spec, lo, hi",
    [(SPEC_SECTION, -0.9, 4.5),
     ({"v1": 0.5, "l1": 0.0, "v2": -0.5, "l2": 0.0, "r": 0.0}, -1.0, 1.0)],
    ids=["padded-by-a-quarter", "zero-extent"],
)
def test_wavefunction_default_x_grid(tmp_path, spec, lo, hi):
    # without "x_grid", 400 points across the structure and a quarter of
    # its extent on each side, or [-1, 1] when it has no extent
    cfg = _write_config(tmp_path, {"units": "nm^-2", "spec": spec, "mode": "scatter", "k": 1.0})
    out = tmp_path / "o"
    assert _run(["wavefunction", "--config", cfg, "--out", out]) == 0
    xs = [float(row[0]) for row in _rows(out / "wavefunction.csv")]
    assert xs == pytest.approx(np.linspace(lo, hi, 400), rel=1e-15, abs=1e-15)


def test_deltaprime_without_a_companion_reports_the_pairing_as_gap(tmp_path):
    # h1 d1 + h2 d2 = 0.52 breaks the zero-mean balance: no companion, and
    # the gap column is the pairing itself
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": FAMILY_SECTION,
                                   "eps_grid": [1e-2, 1e-3],
                                   "test_function": {"kind": "gaussian", "sigma": 3.0}})
    out = tmp_path / "o"
    assert _run(["deltaprime", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "deltaprime.json").read_text())
    assert summary["companion"] is None
    assert summary["divergence_power"] == -1.0
    rows = _rows(out / "deltaprime.csv")
    assert len(rows) == 2
    for eps, pairing, companion, gap, _ in rows:
        assert companion == ""
        assert gap == pairing


def test_deltaprime_leaves_the_slope_at_a_repeated_eps_empty(tmp_path):
    # log(eps / eps) = 0 once divided the slope by zero, and exit 4
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": DIPOLE_FAMILY,
                                   "eps_grid": [0.1, 0.1, 0.01]})
    out = tmp_path / "o"
    assert _run(["deltaprime", "--config", cfg, "--out", out]) == 0
    rows = _rows(out / "deltaprime.csv")
    assert rows[0][:4] == rows[1][:4]
    assert [row[4] for row in rows[:2]] == ["", ""]
    assert float(rows[2][4]) != 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_deltaprime_slope_that_overflows_is_numerical_failure(tmp_path, capsys, fmt):
    # the first pairing is the subnormal h1, so the ratio of the next gap to
    # it overflows: the slope was written as -inf (null in JSON) with exit 0
    family = {"mu": 0.5, "nu": 1.0, "tau": 3.0, "h1": 5e-324, "h2": 2.513,
              "d1": 1.478, "d2": 3.71e-5, "c": 59.85}
    probe = {"kind": "gaussian_bump", "sigma": 4.0, "width": 40.0, "center": 2.0}
    cfg = _write_config(tmp_path, {"units": "eV", "family": family, "test_function": probe,
                                   "eps_grid": {"start": 1.0, "stop": 1e-3, "per_decade": 1}})
    out = tmp_path / "out"
    assert _run(["deltaprime", "--format", fmt, "--config", cfg, "--out", out]) == 4
    assert "numerical failure: this structure overflows at eps=0.1" in capsys.readouterr().err
    assert not out.exists()


# the mirror of the family above, with h2 = 2.513e6 eV and eps rising: the
# ratio of the second gap to the first underflows to 0
SLOPE_UNDERFLOW = {
    "units": "eV",
    "family": {"mu": 0.5, "nu": 1.0, "tau": 3.0, "h1": 5e-324, "h2": 2.513e6,
               "d1": 1.478, "d2": 3.71e-5, "c": 59.85},
    "eps_grid": [0.001, 0.01, 0.1, 1.0],
    "test_function": {"kind": "gaussian_bump", "sigma": 4.0, "width": 40.0, "center": 2.0},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_deltaprime_slope_that_underflows_is_numerical_failure(tmp_path, capsys, fmt):
    # once exit 3, "domain error: math domain error", from math.log(0.0)
    cfg = _write_config(tmp_path, SLOPE_UNDERFLOW)
    out = tmp_path / "out"
    assert _run(["deltaprime", "--format", fmt, "--config", cfg, "--out", out]) == 4
    assert "numerical failure: this structure overflows at eps=" in capsys.readouterr().err
    assert not out.exists()


# a family whose realized ladder at eps = 1e-6 holds 3 924 763 levels, which
# once took find_roots about 34 s; and a plain well of about 3.2 million
MANY_LEVELS = {"mu": 2.941, "nu": 3.587, "tau": 2.0, "h1": -5.235, "h2": 1e-8,
               "d1": 5000.0, "d2": 0.030, "c": 1.044}


@pytest.mark.parametrize("command, cfg", [
    ("boundstates", {"units": "nm^-2",
                     "spec": {"v1": -1e14, "l1": 1.0, "v2": 0.0, "l2": 0.0, "r": 0.0}}),
    ("wavefunction", {"units": "eV", "family": MANY_LEVELS, "eps": 1e-6,
                      "mode": "bound", "level": 3}),
])
def test_a_ladder_above_max_levels_is_domain_error(tmp_path, capsys, command, cfg):
    out = tmp_path / "out"
    start = time.perf_counter()
    assert _run([command, "--config", _write_config(tmp_path, cfg), "--out", out]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"more than MAX_LEVELS = {bound.MAX_LEVELS}" in capsys.readouterr().err
    assert not out.exists()
