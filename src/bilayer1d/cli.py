"""Command-line front end.

Five subcommands (scatter, boundstates, resonance, wavefunction,
deltaprime) read a JSON config and write deterministic CSV/JSON files
plus small gnuplot scripts.  Exit codes: 0 success, 2 config problems,
3 domain problems (no such level, exponents without a limit, ...),
4 numerical failures.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import probes
from .bound import build_chi_problem, find_roots, verify_ladder
from .core import DoubleLayerSpec, UnitSystem, Wavenumber, validate_spec
from .squeeze import (
    SqueezeFamily,
    classify_first_angle,
    delta_prime_pairing,
    eps_log_grid,
    interaction_limit,
    realize,
    sweep_ladder,
)
from .xfer import (
    NotAnEigenvalueError,
    ScatteringPoleError,
    amplitude_grid,
    scattering_data,
    scattering_wavefunction,
)

SPEC_VERSION = 1


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _units(cfg):
    units = cfg.get("units", "eV")
    if units not in ("eV", "nm^-2"):
        raise ConfigError(f'units must be "eV" or "nm^-2", got {units!r}')
    return units, UnitSystem(_number(cfg, "ev_to_inv_nm2", UnitSystem().ev_to_inv_nm2))


def _energy(value, units, system):
    v = _real(value)
    return v * system.ev_to_inv_nm2 if units == "eV" else v


def _family_of(cfg):
    units, system = _units(cfg)
    raw = cfg.get("family")
    if raw is None:
        raise ConfigError('this command needs a "family" section')
    try:
        return SqueezeFamily(
            _real(raw["mu"]),
            _real(raw["nu"]),
            _real(raw["tau"]),
            _energy(raw["h1"], units, system),
            _energy(raw["h2"], units, system),
            _real(raw["d1"]),
            _real(raw["d2"]),
            _real(raw["c"]),
        )
    except KeyError as exc:
        raise ConfigError(f"family section is missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad family section: {exc}") from exc


def _spec_of(cfg):
    units, system = _units(cfg)
    raw_spec = cfg.get("spec")
    raw_family = cfg.get("family")
    if (raw_spec is None) == (raw_family is None):
        raise ConfigError('provide exactly one of "spec" or "family"')
    if raw_spec is not None:
        try:
            spec = DoubleLayerSpec.make(
                _energy(raw_spec["v1"], units, system),
                _real(raw_spec["l1"]),
                _energy(raw_spec["v2"], units, system),
                _real(raw_spec["l2"]),
                _real(raw_spec["r"]),
            )
        except KeyError as exc:
            raise ConfigError(f"spec section is missing {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad spec section: {exc}") from exc
    else:
        family = _family_of(cfg)
        if "eps" not in cfg:
            raise ConfigError('a "family" config needs "eps" to realize it')
        spec = realize(family, _number(cfg, "eps", None))
    validate_spec(spec)
    return spec


def _real_list(raw, name):
    """A nonempty list of JSON numbers as a float array."""
    try:
        grid = np.array([_real(v) for v in raw])
    except ValueError as exc:
        raise ConfigError(f"{name} must be a nonempty list of numbers: {exc}") from exc
    if grid.size == 0:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    return grid


def _linear_grid(raw, name):
    if isinstance(raw, (list, tuple)):
        return _real_list(raw, name)
    if isinstance(raw, dict):
        try:
            start = _real(raw["start"])
            stop = _real(raw["stop"])
            count = _integer(raw.get("count", 200))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name}: {exc}") from exc
        if count < 1:
            raise ConfigError(f"{name} count must be >= 1")
        return np.linspace(start, stop, count)
    raise ConfigError(f"{name} must be a list or a start/stop/count object")


def _k_grid(cfg):
    units, system = _units(cfg)
    if "k_grid" in cfg:
        ks = _linear_grid(cfg["k_grid"], "k_grid")
    elif "k2_grid" in cfg:
        k2 = np.array(
            [_energy(v, units, system) for v in _linear_grid(cfg["k2_grid"], "k2_grid")]
        )
        if np.any(k2 <= 0.0):
            raise ConfigError("k2_grid values must be positive energies")
        ks = np.sqrt(k2)
    else:
        raise ConfigError('provide "k_grid" (nm^-1) or "k2_grid" (energy)')
    if np.any(ks <= 0.0):
        raise ConfigError("k values must be positive")
    return ks


def _eps_grid_of(cfg):
    raw = cfg.get("eps_grid")
    if raw is None:
        return eps_log_grid()
    if isinstance(raw, (list, tuple)):
        return _real_list(raw, "eps_grid")
    if isinstance(raw, dict):
        try:
            return eps_log_grid(
                _real(raw.get("start", 1.0)),
                _real(raw.get("stop", 1e-3)),
                _integer(raw.get("per_decade", 8)),
                _real(raw.get("floor", 1e-8)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad eps_grid: {exc}") from exc
    raise ConfigError("eps_grid must be a list or a start/stop/per_decade object")


def _probe_of(cfg):
    raw = cfg.get("test_function", {"kind": "bump", "width": 1.0})
    if not isinstance(raw, dict):
        raise ConfigError("test_function must be an object")
    kind = raw.get("kind", "bump")
    try:
        center = _real(raw.get("center", 0.0))
        if kind == "bump":
            return probes.bump(_real(raw.get("width", 1.0)), center)
        if kind == "gaussian_bump":
            return probes.gaussian_bump(_real(raw["sigma"]), _real(raw["width"]), center)
        if kind == "gaussian":
            return probes.gaussian(_real(raw["sigma"]), center)
        if kind == "tabulated":
            return probes.tabulated(_real_list(raw["xs"], "xs"), _real_list(raw["ys"], "ys"))
    except KeyError as exc:
        raise ConfigError(
            f"test_function {kind!r} is missing {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad test_function: {exc}") from exc
    raise ConfigError(f"unknown test_function kind {kind!r}")


def _real(value):
    """float(value) for a finite JSON number; booleans, strings, NaN and
    infinities are refused rather than converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def _number(cfg, key, default, cast=_real):
    """cast(cfg[key]), or cast(default) when the key is absent."""
    try:
        return cast(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _integer(value):
    """int(value) for an integer; fractions, booleans and strings are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _tol(args, cfg, default=1e-9):
    return _number(cfg if args.tol is None else {"tol": args.tol}, "tol", default)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return repr(v)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_safe(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _write_json(path, payload):
    payload = dict(payload)
    payload["spec_version"] = SPEC_VERSION
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


_SCATTER_GP = """set datafile separator ','
set key autotitle columnhead
set xlabel 'k [1/nm]'
set ylabel 'probability'
set yrange [0:1.05]
plot 'scatter.csv' using 1:6 with lines, '' using 1:7 with lines
"""

_BOUND_GP = """set datafile separator ','
set key autotitle columnhead
set logscale x
set xlabel 'eps'
set ylabel 'kappa [1/nm]'
plot 'boundstates.csv' using 1:3 with points pt 7 ps 0.4
"""

_WAVE_GP = """set datafile separator ','
set key autotitle columnhead
set xlabel 'x [nm]'
set ylabel '|psi|'
plot 'wavefunction.csv' using 1:4 with lines
"""

_DELTA_GP = """set datafile separator ','
set key autotitle columnhead
set logscale xy
set xlabel 'eps'
set ylabel '|pairing - companion|'
plot 'deltaprime.csv' using 1:(abs($4)) with linespoints
"""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_scatter(args, cfg):
    spec = _spec_of(cfg)
    ks = _k_grid(cfg)
    a, b = amplitude_grid(spec, ks)
    if np.any(a == 0.0):
        k = ks[np.argmax(a == 0.0)]
        raise ScatteringPoleError(f"vanishing transmission denominator at k={k!r}")
    columns = (
        ks,
        a.real,
        a.imag,
        b.real,
        b.imag,
        1.0 / np.abs(a) ** 2,
        np.abs(b / a) ** 2,
        np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0),
    )
    rows = list(zip(*(c.tolist() for c in columns)))
    header = (
        "k",
        "re_a",
        "im_a",
        "re_b",
        "im_b",
        "transmission",
        "reflection",
        "unitarity_defect",
    )
    if args.format == "json":
        _write_json(
            _out_path(args, "scatter.json"),
            {"columns": list(header), "rows": [list(r) for r in rows]},
        )
        print("wrote scatter.json")
    else:
        _write_csv(_out_path(args, "scatter.csv"), header, rows)
        _write_text(_out_path(args, "scatter.gp"), _SCATTER_GP)
        print(f"wrote scatter.csv ({len(rows)} rows)")
    return 0


def _cmd_boundstates(args, cfg):
    tol = _tol(args, cfg)
    if "family" in cfg and "spec" not in cfg:
        family = _family_of(cfg)
        result = sweep_ladder(family, _eps_grid_of(cfg), tol=tol)
        rows = []
        for eps, ladder in zip(result.eps, result.ladders):
            for index, kappa in enumerate(ladder.kappas, start=1):
                rows.append((float(eps), index, float(kappa)))
        summary = {
            "scenario": result.scenario,
            "branch": result.branch,
            "region": result.report.region,
            "kappa_limit": result.kappa_limit,
            "eps": result.eps,
            "counts": result.counts,
            "survivor": result.survivor,
        }
    else:
        spec = _spec_of(cfg)
        problem = build_chi_problem(spec)
        ladder = find_roots(problem)
        report = verify_ladder(spec, ladder)
        rows = [
            (1.0, index, float(kappa))
            for index, kappa in enumerate(ladder.kappas, start=1)
        ]
        summary = {
            "scenario": "single structure",
            "branch": ladder.branch,
            "count": ladder.n,
            "kappas": list(ladder.kappas),
            "verified": bool(report),
            "max_residual": max((abs(r) for r in report.residuals), default=0.0),
        }
    if args.format == "json":
        summary["levels"] = [list(r) for r in rows]
        _write_json(_out_path(args, "boundstates.json"), summary)
        print("wrote boundstates.json")
    else:
        _write_csv(
            _out_path(args, "boundstates.csv"),
            ("eps", "level_index", "kappa"),
            rows,
        )
        _write_text(_out_path(args, "boundstates.gp"), _BOUND_GP)
        _write_json(_out_path(args, "boundstates.json"), summary)
        print(f"wrote boundstates.csv ({len(rows)} rows)")
    return 0


def _cmd_resonance(args, cfg):
    family = _family_of(cfg)
    tol = _tol(args, cfg)
    spread_tol = _number(cfg, "spread_tol", tol)
    k_probe = _number(cfg, "k", 1.0)
    eps_samples = _number(cfg, "eps_samples", [], lambda v: [_real(e) for e in v])
    report = interaction_limit(family, res_tol=tol, spread_tol=spread_tol)
    samples = []
    for eps in eps_samples:
        spec = realize(family, eps)
        data = scattering_data(spec, k_probe)
        samples.append(
            {
                "eps": eps,
                "k": k_probe,
                "transmission": 1.0 / abs(data.a) ** 2,
                "limit_transmission": report.interaction.transmission(k_probe),
            }
        )
    payload = {
        "region": report.region,
        "way": report.way,
        "verdict": report.verdict,
        "residual": report.residual,
        "spread": report.spread,
        "theta": report.theta,
        "alpha": report.alpha,
        "kappa_limit": report.kappa_limit,
        "samples": samples,
    }
    _write_json(_out_path(args, "resonance.json"), payload)
    print(f"wrote resonance.json (verdict {report.verdict})")
    return 0


def _cmd_wavefunction(args, cfg):
    spec = _spec_of(cfg)
    mode = cfg.get("mode", "scatter")
    if mode == "scatter":
        if "k" not in cfg:
            raise ConfigError('scatter mode needs a real "k" (nm^-1)')
        wave = scattering_wavefunction(spec, _number(cfg, "k", None), mode="scatter")
    elif mode == "bound":
        if "kappa" in cfg:
            kappa = _number(cfg, "kappa", None)
        else:
            level = _number(cfg, "level", 1, _integer)
            ladder = find_roots(build_chi_problem(spec))
            if not 1 <= level <= ladder.n:
                raise NotAnEigenvalueError(
                    f"structure has {ladder.n} bound levels; "
                    f"level {level} does not exist"
                )
            kappa = ladder.kappas[level - 1]
        wave = scattering_wavefunction(spec, Wavenumber.bound(kappa), mode="bound")
    else:
        raise ConfigError(f'mode must be "scatter" or "bound", got {mode!r}')
    if "x_grid" in cfg:
        xs = _linear_grid(cfg["x_grid"], "x_grid")
    else:
        pad = 0.25 * spec.extent if spec.extent > 0 else 1.0
        xs = np.linspace(-pad, spec.extent + pad, 400)
    values = wave(xs)
    rows = [
        (float(x), v.real, v.imag, abs(v)) for x, v in zip(xs, values)
    ]
    header = ("x", "re_psi", "im_psi", "abs_psi")
    if args.format == "json":
        _write_json(
            _out_path(args, "wavefunction.json"),
            {
                "columns": list(header),
                "rows": [list(r) for r in rows],
                "mode": mode,
                "continuity_defect": wave.continuity_defect(),
            },
        )
        print("wrote wavefunction.json")
    else:
        _write_csv(_out_path(args, "wavefunction.csv"), header, rows)
        _write_text(_out_path(args, "wavefunction.gp"), _WAVE_GP)
        print(f"wrote wavefunction.csv ({len(rows)} rows)")
    return 0


def _cmd_deltaprime(args, cfg):
    family = _family_of(cfg)
    probe = _probe_of(cfg)
    eps_grid = _eps_grid_of(cfg)
    results = [
        delta_prime_pairing(family, float(eps), probe) for eps in eps_grid
    ]
    companion = results[0].companion
    gamma = results[0].gamma
    rows = []
    prev = None
    for res in results:
        if companion is not None:
            gap = res.value - companion
        else:
            gap = res.value
        slope = None
        if prev is not None and gap != 0.0 and prev[1] != 0.0:
            slope = math.log(abs(gap) / abs(prev[1])) / math.log(res.eps / prev[0])
        rows.append((res.eps, res.value, companion, gap, slope))
        prev = (res.eps, gap)
    summary = {
        "region": classify_first_angle(family.mu, family.nu, family.tau),
        "gamma": gamma,
        "companion": companion,
        "divergence_power": results[0].divergence_power,
        "note": results[0].note,
    }
    if args.format == "json":
        summary["columns"] = ["eps", "pairing", "companion", "gap", "slope"]
        summary["rows"] = [list(r) for r in rows]
        _write_json(_out_path(args, "deltaprime.json"), summary)
        print("wrote deltaprime.json")
    else:
        _write_csv(
            _out_path(args, "deltaprime.csv"),
            ("eps", "pairing", "companion", "gap", "slope"),
            rows,
        )
        _write_text(_out_path(args, "deltaprime.gp"), _DELTA_GP)
        _write_json(_out_path(args, "deltaprime.json"), summary)
        print(f"wrote deltaprime.csv ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser():
    parser = argparse.ArgumentParser(
        prog="bilayer1d",
        description="Scattering, bound levels and squeezing limits of a "
        "two-layer structure on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "scatter": "amplitudes and probabilities on a k grid",
        "boundstates": "bound ladder of a structure or a squeeze sweep",
        "resonance": "squeezing-limit classification of a family",
        "wavefunction": "wavefunction samples on an x grid",
        "deltaprime": "distributional pairing along a squeeze sweep",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        if name in ("boundstates", "resonance"):
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
    return parser


_DISPATCH = {
    "scatter": _cmd_scatter,
    "boundstates": _cmd_boundstates,
    "resonance": _cmd_resonance,
    "wavefunction": _cmd_wavefunction,
    "deltaprime": _cmd_deltaprime,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _DISPATCH[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
