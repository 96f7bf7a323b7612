"""Command-line front end.

Five subcommands (scatter, boundstates, resonance, wavefunction,
deltaprime) read a JSON config and write deterministic files: each of the
four table commands a CSV table with a small gnuplot script, or one JSON
file under --format json; resonance a JSON report.  Exit codes: 0
success, 2 config problems, 3 domain problems (no such level, exponents
without a limit, ...), 4 numerical failures.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import probes
from .bound import build_chi_problem, find_roots, verify_ladder
from .core import EV_TO_INV_NM2, DoubleLayerSpec, Wavenumber
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
    # bad JSON, bytes that are not UTF-8, an int too long to parse, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _scale(cfg):
    """The factor that takes the config's energies to nm^-2."""
    units = cfg.get("units", "eV")
    if units not in ("eV", "nm^-2"):
        raise ConfigError(f'units must be "eV" or "nm^-2", got {units!r}')
    factor = _number(cfg, "ev_to_inv_nm2", EV_TO_INV_NM2)
    if factor <= 0.0:
        raise ConfigError(f"ev_to_inv_nm2 must be positive, got {factor!r}")
    return factor if units == "eV" else 1.0


# section: (constructor, its keys in argument order)
_SECTIONS = {
    "spec": (DoubleLayerSpec, ("v1", "l1", "v2", "l2", "r")),
    "family": (SqueezeFamily, ("mu", "nu", "tau", "h1", "h2", "d1", "d2", "c")),
}
_ENERGIES = ("v1", "v2", "h1", "h2")


def _section(cfg, name):
    """The "spec" or "family" section of the config, energies in nm^-2."""
    scale = _scale(cfg)
    build, keys = _SECTIONS[name]
    raw = cfg.get(name)
    if raw is None:
        raise ConfigError(f'this command needs a "{name}" section')
    try:
        values = [_real(raw[key]) for key in keys]
        return build(*(v * scale if k in _ENERGIES else v for k, v in zip(keys, values)))
    except KeyError as exc:
        raise ConfigError(f"{name} section is missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


def _spec_of(cfg):
    """The config's "spec", or its "family" realized at "eps"."""
    if (cfg.get("spec") is None) == (cfg.get("family") is None):
        raise ConfigError('provide exactly one of "spec" or "family"')
    if cfg.get("spec") is not None:
        return _section(cfg, "spec")
    family = _section(cfg, "family")
    if "eps" not in cfg:
        raise ConfigError('a "family" config needs "eps" to realize it')
    return realize(family, _number(cfg, "eps", None))


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
    if "k_grid" in cfg:
        ks = _linear_grid(cfg["k_grid"], "k_grid")
    elif "k2_grid" in cfg:
        k2 = _linear_grid(cfg["k2_grid"], "k2_grid") * _scale(cfg)
        if np.any(k2 <= 0.0):
            raise ConfigError("k2_grid values must be positive energies")
        ks = np.sqrt(k2)
    else:
        raise ConfigError('provide "k_grid" (nm^-1) or "k2_grid" (energy)')
    if np.any(ks <= 0.0):
        raise ConfigError("k_grid values must be positive")
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
    """float(value) for a finite JSON number; booleans, strings, NaN,
    infinities and integers beyond the float range are refused rather
    than converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    # compared exactly: math.isfinite overflows on an int beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite float")
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


def _nonnegative(cfg, key, default=None, strict=False):
    """_number(cfg, key, default), refused below 0 (a tolerance), or at 0
    too when strict (a wavenumber)."""
    value = _number(cfg, key, default)
    if value < 0.0 or strict and value == 0.0:
        raise ConfigError(f"{key} must be {'positive' if strict else '>= 0'}, got {value!r}")
    return value


def _tol(args, cfg):
    return _nonnegative(cfg if args.tol is None else {"tol": args.tol}, "tol", 1e-9)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _json_safe(value):
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


def _json_text(payload):
    payload = {**payload, "spec_version": SPEC_VERSION}
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"


def _write(args, name, text):
    """Write text to the file name in the --out folder, made when missing."""
    path = os.path.join(args.out, name)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {name} into --out {args.out!r}: {exc}") from exc


def _write_table(args, stem, header, rows, summary=None, details=None):
    """Write a table as <stem>.csv and <stem>.gp, plus <stem>.json holding
    the summary when there is one; under --format json, write one
    <stem>.json of the summary, the details, the columns and the rows.
    Cells are plain Python floats and ints, written as their repr, or
    None for an empty cell."""
    if args.format == "json":
        payload = {**(summary or {}), **(details or {})}
        payload.update(columns=list(header), rows=[list(r) for r in rows])
        _write(args, f"{stem}.json", _json_text(payload))
        print(f"wrote {stem}.json")
        return
    lines = [",".join(header)]
    lines.extend(",".join(["" if c is None else repr(c) for c in row]) for row in rows)
    _write(args, f"{stem}.csv", "\n".join(lines) + "\n")
    _write(args, f"{stem}.gp", _GNUPLOT_HEAD + _GNUPLOT[stem])
    if summary is not None:
        _write(args, f"{stem}.json", _json_text(summary))
    print(f"wrote {stem}.csv ({len(rows)} rows)")


_GNUPLOT_HEAD = """set datafile separator ','
set key autotitle columnhead
"""

_GNUPLOT = {
    "scatter": """set xlabel 'k [1/nm]'
set ylabel 'probability'
set yrange [0:1.05]
plot 'scatter.csv' using 1:6 with lines, '' using 1:7 with lines
""",
    "boundstates": """set logscale x
set xlabel 'eps'
set ylabel 'kappa [1/nm]'
plot 'boundstates.csv' using 1:3 with points pt 7 ps 0.4
""",
    "wavefunction": """set xlabel 'x [nm]'
set ylabel '|psi|'
plot 'wavefunction.csv' using 1:4 with lines
""",
    "deltaprime": """set logscale xy
set xlabel 'eps'
set ylabel '|pairing - companion|'
plot 'deltaprime.csv' using 1:(abs($4)) with linespoints
""",
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _refuse_overflow(table, grid, name):
    """OverflowError at the first grid value whose column of table (one row
    per output quantity) is not finite, raised before anything is written."""
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        value = float(grid[np.argmin(finite)])
        raise OverflowError(f"this structure overflows at {name}={value!r}")


def _cmd_scatter(args, cfg):
    spec = _spec_of(cfg)
    ks = _k_grid(cfg)
    a, b = amplitude_grid(spec, ks)
    a2 = np.abs(a) ** 2
    columns = {
        "k": ks,
        "re_a": a.real,
        "im_a": a.imag,
        "re_b": b.real,
        "im_b": b.imag,
        "transmission": 1.0 / a2,
        "reflection": np.abs(b / a) ** 2,
        # relative to |a|^2, so an opaque row shows its rounding as such
        "unitarity_defect": np.abs(a2 - np.abs(b) ** 2 - 1.0) / a2,
    }
    table = np.array(list(columns.values()))
    _refuse_overflow(table, ks, "k")
    _write_table(args, "scatter", tuple(columns), table.T.tolist())


def _cmd_boundstates(args, cfg):
    tol = _tol(args, cfg)
    if cfg.get("family") is not None and cfg.get("spec") is None:
        family = _section(cfg, "family")
        result = sweep_ladder(family, _eps_grid_of(cfg), tol=tol)
        ladders = zip(result.eps, result.ladders)
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
        ladders = [(1.0, ladder)]
        summary = {
            "scenario": "single structure",
            "branch": ladder.branch,
            "count": ladder.n,
            "kappas": list(ladder.kappas),
            "verified": bool(report),
            "max_residual": max((abs(r) for r in report.residuals), default=0.0),
        }
    rows = [
        (float(eps), index, float(kappa))
        for eps, ladder in ladders
        for index, kappa in enumerate(ladder.kappas, start=1)
    ]
    header = ("eps", "level_index", "kappa")
    _write_table(args, "boundstates", header, rows, summary)


def _cmd_resonance(args, cfg):
    family = _section(cfg, "family")
    tol = _tol(args, cfg)
    spread_tol = _nonnegative(cfg, "spread_tol", tol)
    k_probe = _nonnegative(cfg, "k", 1.0, strict=True)
    eps_samples = _number(cfg, "eps_samples", [], lambda v: [_real(e) for e in v])
    report = interaction_limit(family, res_tol=tol, spread_tol=spread_tol)
    samples = []
    for eps in eps_samples:
        a = abs(scattering_data(realize(family, eps), k_probe).a)
        try:
            a2 = a ** 2
        except OverflowError:  # a square beyond the float range, refused next
            a2 = math.inf
        _refuse_overflow(np.array([[a2]]), [eps], "eps")
        transmission = 1.0 / a2
        samples.append(
            {
                "eps": eps,
                "k": k_probe,
                "transmission": transmission,
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
    _write(args, "resonance.json", _json_text(payload))
    print(f"wrote resonance.json (verdict {report.verdict})")


def _cmd_wavefunction(args, cfg):
    spec = _spec_of(cfg)
    mode = cfg.get("mode", "scatter")
    if mode == "scatter":
        if "k" not in cfg:
            raise ConfigError('scatter mode needs a real "k" (nm^-1)')
        k = _nonnegative(cfg, "k", strict=True)
    elif mode == "bound":
        if "kappa" in cfg:
            kappa = _nonnegative(cfg, "kappa", strict=True)
        else:
            level = _number(cfg, "level", 1, _integer)
            ladder = find_roots(build_chi_problem(spec))
            if not 1 <= level <= ladder.n:
                raise NotAnEigenvalueError(
                    f"structure has {ladder.n} bound levels; "
                    f"level {level} does not exist"
                )
            kappa = ladder.kappas[level - 1]
        k = Wavenumber.bound(kappa)
    else:
        raise ConfigError(f'mode must be "scatter" or "bound", got {mode!r}')
    wave = scattering_wavefunction(spec, k)
    if "x_grid" in cfg:
        xs = _linear_grid(cfg["x_grid"], "x_grid")
    else:
        pad = 0.25 * spec.extent if spec.extent > 0 else 1.0
        xs = np.linspace(-pad, spec.extent + pad, 400)
    rows = [(x, v.real, v.imag, abs(v)) for x, v in zip(xs.tolist(), wave(xs).tolist())]
    _refuse_overflow(np.array(rows).T, xs, "x")
    header = ("x", "re_psi", "im_psi", "abs_psi")
    details = {"mode": mode, "continuity_defect": wave.continuity_defect()}
    _write_table(args, "wavefunction", header, rows, details=details)


def _cmd_deltaprime(args, cfg):
    family = _section(cfg, "family")
    probe = _probe_of(cfg)
    eps_grid = _eps_grid_of(cfg)
    results = [
        delta_prime_pairing(family, float(eps), probe) for eps in eps_grid
    ]
    companion = results[0].companion
    rows = []
    prev = None
    for res in results:
        if companion is not None:
            gap = res.value - companion
        else:
            gap = res.value
        slope = None
        # no slope across a zero gap or a repeated eps
        if prev is not None and gap != 0.0 and prev[1] != 0.0 and res.eps != prev[0]:
            slope = math.log(abs(gap) / abs(prev[1])) / math.log(res.eps / prev[0])
        rows.append((res.eps, res.value, companion, gap, slope))
        prev = (res.eps, gap)
    summary = {
        "region": classify_first_angle(family.mu, family.nu, family.tau),
        "gamma": results[0].gamma,
        "companion": companion,
        "divergence_power": results[0].divergence_power,
        "note": results[0].note,
    }
    header = ("eps", "pairing", "companion", "gap", "slope")
    _write_table(args, "deltaprime", header, rows, summary)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "scatter": ("amplitudes and probabilities on a k grid", _cmd_scatter),
    "boundstates": ("bound ladder of a structure or a squeeze sweep", _cmd_boundstates),
    "resonance": ("squeezing-limit classification of a family", _cmd_resonance),
    "wavefunction": ("wavefunction samples on an x grid", _cmd_wavefunction),
    "deltaprime": ("distributional pairing along a squeeze sweep", _cmd_deltaprime),
}


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="bilayer1d",
        description="Scattering, bound levels and squeezing limits of a "
        "two-layer structure on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        # resonance writes one JSON report and no table
        if name != "resonance":
            p.add_argument(
                "--format", choices=("csv", "json"), default="csv", help="output format"
            )
        if name in ("boundstates", "resonance"):
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _COMMANDS[args.command][1](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
