"""End-to-end checks of the command-line front end."""

import json

import numpy as np
import pytest

from bilayer1d import cli, scattering_data, DoubleLayerSpec
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
            "k2_grid": [0.4, 0.9, 1.6],
        },
    )
    out = tmp_path / "out"
    assert _run(["scatter", "--config", cfg, "--out", out]) == 0
    lines = (out / "scatter.csv").read_text().strip().split("\n")
    ks = [float(line.split(",")[0]) for line in lines[1:]]
    assert ks == pytest.approx([np.sqrt(0.4), np.sqrt(0.9), np.sqrt(1.6)])


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
        },
    )
    out = tmp_path / "out"
    assert _run(["resonance", "--config", cfg, "--out", out, "--tol", "1e-9"]) == 0
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


FAMILY_SECTION = {
    "mu": 2.0, "nu": 2.0, "tau": 2.0, "h1": 1.3, "h2": -1.3,
    "d1": 1.0, "d2": 0.6, "c": 2.0,
}
WAVE_SCATTER = {"spec": SPEC_SECTION, "mode": "scatter"}


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
        ("deltaprime", {"test_function": {"kind": "tabulated", "xs": [0.0, True, 2.0],
                                          "ys": [0.0, 1.0, 0.0]}}),
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
        "test_function-xs-bool",
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, command, extra):
    payload = {"units": "nm^-2", **extra}
    if "spec" not in extra:
        payload.setdefault("family", FAMILY_SECTION)
    cfg = _write_config(tmp_path, payload)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_non_finite_tol_flag_is_config_error(tmp_path):
    # a NaN tolerance fails every comparison, so a resonant family was
    # reported "separated" with exit code 0
    cfg = _write_config(tmp_path, {"units": "nm^-2", "family": FAMILY_SECTION})
    argv = ["resonance", "--config", cfg, "--out", tmp_path / "o", "--tol", "nan"]
    assert _run(argv) == 2


def test_tol_flag_is_refused_where_nothing_reads_it(tmp_path, capsys):
    # only boundstates and resonance have a tolerance to override
    cfg = _write_config(tmp_path, {"units": "eV", "spec": SPEC_SECTION, "k_grid": [1.0]})
    with pytest.raises(SystemExit) as exit_info:
        _run(["scatter", "--config", cfg, "--out", tmp_path / "o", "--tol", "1e-3"])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err
