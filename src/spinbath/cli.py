"""Command-line front end: seeded runs and file emission for every operation.

Commands: spectrum, echo, scan, larmor-dist, stats, parse, dump-constants.
Values resolve as CLI flag > config file (--config, flat JSON keyed by flag
name with underscores) > documented default, and the resolved configuration
is embedded in every output's metadata (JSON outputs inline; CSV outputs get
a .meta.json sidecar).  Output directory: --out, else $SPINBATH_OUT, else
the working directory.  All floats in CSV are written with 17 significant
digits; reruns of an identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

# analysis is imported by the commands that use it, not at start-up
from .bathgen import check_bath_parameters, generate_bath
from .constants import constants_table, ppm_to_density_nm3
from .dynamics import SimulationConfig, ensemble_signal, field_scan, scan_csv
from .hamiltonians import BareElectron, JtOrientation, NVCenter, P1Center, P1Params
from .pulses import (
    ParseError,
    PRESET_NAMES,
    canonical_text,
    expand_preset,
    parse_sequence,
)

_TIME_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(us|ns|s)?$")


class _CliError(Exception):
    """Validation failure: message goes to stderr, exit code 2."""


def _parse_time_us(token: str) -> float:
    """One time token, default unit microseconds; returns seconds."""
    m = _TIME_RE.match(token.strip().lower())
    if not m:
        raise _CliError(f"bad time value '{token}'")
    try:
        value = float(m.group(1))
    except ValueError:
        raise _CliError(f"bad time value '{token}'") from None
    unit = m.group(2) or "us"
    return value * {"us": 1e-6, "ns": 1e-9, "s": 1.0}[unit]


def _parse_tau_grid(text: str) -> tuple[float, ...]:
    """'start:stop:count' (times default to microseconds)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError("tau must be start:stop:count, e.g. 0:40us:200")
    start, stop = _parse_time_us(parts[0]), _parse_time_us(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise _CliError(f"bad tau count '{parts[2]}'") from None
    if count < 1:
        raise _CliError("tau count must be at least 1")
    if stop < start:
        raise _CliError("tau stop must not precede start")
    return tuple(float(t) for t in np.linspace(start, stop, count))


def _parse_field_list(text: str) -> list[float]:
    """'start:stop:count', 'b1,b2,...', or a single value (gauss)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _CliError("field range must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise _CliError(f"bad field range '{text}'") from None
        return [float(b) for b in np.linspace(start, stop, count)]
    if "," in text:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    return [float(text)]


def _make_jt(name: str) -> JtOrientation:
    key = name.lower()
    table = {
        "on-axis": JtOrientation.on_axis,
        "off-axis": lambda: JtOrientation.off_axis(1),
        "off-axis-1": lambda: JtOrientation.off_axis(1),
        "off-axis-2": lambda: JtOrientation.off_axis(2),
        "off-axis-3": lambda: JtOrientation.off_axis(3),
    }
    if key not in table:
        raise _CliError(f"unknown orientation '{name}'")
    return table[key]()


def _make_central(kind: str, jt: str, m_i: str):
    key = kind.lower()
    if key == "p1":
        if m_i.lower() == "thermal":
            mi = None
        else:
            try:
                mi = int(m_i)
            except ValueError:
                raise _CliError(f"bad m_i '{m_i}'") from None
        return P1Center(jt=_make_jt(jt), m_i=mi)
    if key == "nv":
        return NVCenter()
    if key == "electron":
        return BareElectron()
    raise _CliError(f"unknown central spin '{kind}'")


def _make_sequence(spec: str, n):
    name = spec.lower()
    if name in PRESET_NAMES:
        if name in ("cpmg", "xy8"):
            return expand_preset(name, n if n is not None else 1)
        if n is not None:
            raise _CliError(f"preset '{name}' takes no repetition count")
        return expand_preset(name)
    if n is not None:
        raise _CliError("--n applies to the cpmg and xy8 presets only")
    if spec.endswith(".seq") and os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return parse_sequence(fh.read())
    return parse_sequence(spec)


def _out_dir(resolved: dict) -> str:
    out = resolved.get("out") or os.environ.get("SPINBATH_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(out_dir: str, stem: str, fmt: str, csv_text: str, json_text: str,
           meta: dict) -> list[str]:
    paths = []
    if fmt == "csv":
        path = os.path.join(out_dir, f"{stem}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        paths.append(path)
        meta_path = os.path.join(out_dir, f"{stem}.meta.json")
        with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(meta, indent=2) + "\n")
        paths.append(meta_path)
    elif fmt == "json":
        path = os.path.join(out_dir, f"{stem}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json_text + ("" if json_text.endswith("\n") else "\n"))
        paths.append(path)
    else:
        raise _CliError(f"unknown format '{fmt}'")
    return paths


def _print_constants():
    table = constants_table()
    width = max(len(name) for name in table)
    for name, entry in table.items():
        print(f"{name:<{width}}  {entry['value']!r:<24} {entry['units']:<12} "
              f"{entry['description']}")


def _dry_run(resolved: dict) -> int:
    print(json.dumps({"resolved_config": resolved}, indent=2))
    _print_constants()
    return 0


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flag > config file > default, erroring on unknown config keys."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise _CliError(f"cannot read config file: {err}") from None
        if not isinstance(file_values, dict):
            raise _CliError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in defaults:
                raise _CliError(f"unknown config key '{key}'")
            resolved[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


# ---------------------------------------------------------------------------
# shared flag groups

_SIM_DEFAULTS = {
    "central": "p1",
    "b": 72.0,
    "jt": "off-axis",
    "m_i": "-1",
    "n_spins": 125,
    "abundance": 0.011,
    "g": 3,
    "n_baths": 20,
    "seed": 0,
    "min_radius": None,  # library default (one bond length)
    "continuum": False,
    "no_nn": False,
    "threads": 1,
    "out": None,
    "dry_run": False,
}


def _add_common(p: argparse.ArgumentParser, *, bath: bool = True):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="output directory (default $SPINBATH_OUT or .)")
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   default=None,
                   help="validate, print resolved config and constants, exit")
    if bath:
        p.add_argument("--central", choices=["p1", "nv", "electron"])
        p.add_argument("--jt", help="P1 bond orientation "
                       "(on-axis, off-axis, off-axis-2, off-axis-3)")
        p.add_argument("--m-i", dest="m_i",
                       help="nitrogen projection: -1, 0, 1, or thermal")
        p.add_argument("--n-spins", dest="n_spins", type=int)
        p.add_argument("--abundance", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--min-radius", dest="min_radius", type=float,
                       help="exclusion radius in nm")
        p.add_argument("--continuum", action="store_true", default=None,
                       help="continuum bath placement instead of the lattice")


def _sim_config(resolved: dict, tau_grid, sequence) -> SimulationConfig:
    central = _make_central(resolved["central"], resolved["jt"],
                            str(resolved["m_i"]))
    kwargs = dict(
        central=central,
        b_field=resolved["b"],
        n_spins=resolved["n_spins"],
        abundance=resolved["abundance"],
        g=resolved["g"],
        n_baths=resolved["n_baths"],
        tau_grid=tau_grid,
        sequence=sequence,
        master_seed=resolved["seed"],
        lattice=not resolved["continuum"],
        include_nn=not resolved["no_nn"],
        workers=resolved["threads"],
    )
    if resolved["min_radius"] is not None:
        kwargs["min_radius"] = resolved["min_radius"]
    return SimulationConfig(**kwargs)


# ---------------------------------------------------------------------------
# commands

def _check_field(b):
    try:
        value = float(b)
    except (TypeError, ValueError):
        return  # a 3-vector from a config file; the library validates it
    if not math.isfinite(value):
        raise _CliError("field must be finite")
    if value < 0:
        raise _CliError("field must be ≥ 0")


def _cmd_spectrum(args) -> int:
    from .analysis import transition_table

    defaults = {"b": 72.0, "jt": "all", "out": None, "format": "csv",
                "dry_run": False}
    resolved = _resolve(args, defaults)
    b = float(resolved["b"])
    _check_field(b)
    jt = resolved["jt"].lower()
    if jt == "all":
        orientations = None
    elif jt == "off-axis":
        orientations = [JtOrientation.off_axis(1)]
    else:
        orientations = [_make_jt(jt)]
    meta = {"command": "spectrum", **resolved}
    if resolved["dry_run"]:
        return _dry_run(meta)
    table = transition_table(P1Params(), b, orientations)
    payload = json.loads(table.to_json())
    payload["metadata"] = meta
    paths = _write(_out_dir(resolved), "spectrum", resolved["format"],
                   table.to_csv(), json.dumps(payload, indent=2), meta)
    for path in paths:
        print(path)
    return 0




def _cmd_echo(args) -> int:
    defaults = dict(_SIM_DEFAULTS)
    defaults.update({"tau": "0:30us:150", "sequence": "hahn", "n": None,
                     "format": "csv", "include_baths": False})
    resolved = _resolve(args, defaults)
    _check_field(resolved["b"])
    tau_grid = _parse_tau_grid(resolved["tau"])
    sequence = _make_sequence(resolved["sequence"], resolved["n"])
    config = _sim_config(resolved, tau_grid, sequence)
    meta = {"command": "echo", **resolved,
            "resolved_simulation": config.describe()}
    if resolved["dry_run"]:
        return _dry_run(meta)
    curve = ensemble_signal(config)
    paths = _write(_out_dir(resolved), "echo", resolved["format"],
                   curve.to_csv(include_baths=resolved["include_baths"]),
                   curve.to_json(), meta)
    for path in paths:
        print(path)
    return 0


def _cmd_scan(args) -> int:
    defaults = dict(_SIM_DEFAULTS)
    defaults.update({"tau": "0:30us:150", "sequence": "hahn", "n": None,
                     "format": "csv", "b": "40:110:8"})
    resolved = _resolve(args, defaults)
    fields = _parse_field_list(str(resolved["b"]))
    if not fields:
        raise _CliError("field list must be non-empty")
    for b in fields:
        _check_field(b)
    tau_grid = _parse_tau_grid(resolved["tau"])
    sequence = _make_sequence(resolved["sequence"], resolved["n"])
    base = dict(resolved)
    base["b"] = fields[0]
    config = _sim_config(base, tau_grid, sequence)
    meta = {"command": "scan", **resolved, "fields_gauss": fields}
    if resolved["dry_run"]:
        return _dry_run(meta)
    curves = field_scan(config, fields)
    json_payload = json.dumps(
        {"metadata": meta,
         "curves": [json.loads(c.to_json()) for c in curves]}, indent=2)
    paths = _write(_out_dir(resolved), "scan", resolved["format"],
                   scan_csv(curves), json_payload, meta)
    for path in paths:
        print(path)
    return 0


def _cmd_larmor_dist(args) -> int:
    from .analysis import larmor_distribution

    defaults = {"central": "nv", "jt": "off-axis", "m_i": "-1", "b": 72.0,
                "n_spins": 125, "abundance": 0.011, "seed": 0,
                "min_radius": None, "continuum": False, "bins": "fd",
                "out": None, "format": "json", "dry_run": False}
    resolved = _resolve(args, defaults)
    b = float(resolved["b"])
    _check_field(b)
    central = _make_central(resolved["central"], resolved["jt"],
                            str(resolved["m_i"]))
    kwargs = {}
    if resolved["min_radius"] is not None:
        kwargs["min_radius"] = resolved["min_radius"]
    check_bath_parameters(resolved["n_spins"], resolved["abundance"], **kwargs)
    meta = {"command": "larmor-dist", **resolved}
    if resolved["dry_run"]:
        return _dry_run(meta)
    bath = generate_bath(resolved["seed"], resolved["n_spins"],
                         resolved["abundance"],
                         lattice=not resolved["continuum"], **kwargs)
    bins = resolved["bins"]
    if isinstance(bins, str) and bins.isdigit():
        bins = int(bins)
    hist = larmor_distribution(central, bath, b, bins=bins)
    payload = json.loads(hist.to_json())
    payload["metadata"] = meta
    paths = _write(_out_dir(resolved), "larmor_dist", resolved["format"],
                   hist.to_csv(), json.dumps(payload, indent=2), meta)
    for path in paths:
        print(path)
    return 0


def _cmd_stats(args) -> int:
    from .analysis import (concentration_from_td, larmor_frequency,
                           mean_dipolar_coupling, mean_kth_distance)

    defaults = {"ppm": None, "k": 1, "r": None, "theta_deg": None,
                "angular_factor": None, "td": None, "b": None, "out": None,
                "dry_run": False}
    resolved = _resolve(args, defaults)
    if resolved["dry_run"]:
        return _dry_run({"command": "stats", **resolved})
    results: dict = {}
    if resolved["ppm"] is not None:
        n = ppm_to_density_nm3(float(resolved["ppm"]))
        r_k = mean_kth_distance(n, int(resolved["k"]))
        results[f"mean_r{int(resolved['k'])}_nm"] = r_k
        results["density_nm3"] = n
    if resolved["r"] is not None:
        theta_deg = resolved["theta_deg"]
        factor = resolved["angular_factor"]
        if theta_deg is None and factor is None:
            factor = 0.5
        coupling = mean_dipolar_coupling(
            float(resolved["r"]),
            math.radians(float(theta_deg)) if theta_deg is not None else None,
            angular_factor=float(factor) if factor is not None else None)
        results["dipolar_coupling_khz"] = coupling
    if resolved["td"] is not None:
        results["concentration_ppm"] = concentration_from_td(
            float(resolved["td"]) * 1e-6)
    if resolved["b"] is not None:
        b = float(resolved["b"])
        _check_field(b)
        info = larmor_frequency(b)
        results["larmor_freq_hz"] = info["freq_hz"]
        results["larmor_period_s"] = info["period_s"]
    if not results:
        raise _CliError(
            "nothing to compute: give --ppm, --r, --td, and/or --b")
    for name, value in results.items():
        print(f"{name} {'' if value is None else format(value, '.17g')}".rstrip())
    if resolved["out"]:
        path = os.path.join(_out_dir(resolved), "stats.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"command": "stats", "inputs": resolved,
                       "results": results}, fh, indent=2)
            fh.write("\n")
        print(path)
    return 0


def _cmd_parse(args) -> int:
    spec = args.sequence_text
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = spec
    prog = parse_sequence(text)
    print(canonical_text(prog))
    return 0


def _cmd_dump_constants(args) -> int:
    if getattr(args, "format", None) == "json":
        print(json.dumps(constants_table(), indent=2))
    else:
        _print_constants()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Spin-echo decoherence of diamond defect spins in a "
                    "carbon-13 bath: simulation, spectroscopy, statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="resonance table of the six-level center")
    p.add_argument("--b", type=float, help="field in gauss (along z)")
    p.add_argument("--jt", help="on-axis, off-axis[-k], or all")
    p.add_argument("--format", choices=["csv", "json"])
    _add_common(p, bath=False)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("echo", help="ensemble-averaged echo curve")
    p.add_argument("--b", type=float, help="field in gauss (along z)")
    p.add_argument("--tau", help="per-arm delay grid start:stop:count "
                                 "(default unit us)")
    p.add_argument("--sequence", help="preset name, DSL text, or .seq file")
    p.add_argument("--n", type=int, help="repetition count for cpmg/xy8")
    p.add_argument("--g", type=int, help="max cluster size")
    p.add_argument("--n-baths", dest="n_baths", type=int)
    p.add_argument("--no-nn", dest="no_nn", action="store_true", default=None,
                   help="drop carbon-carbon couplings inside groups")
    p.add_argument("--threads", type=int)
    p.add_argument("--include-baths", dest="include_baths",
                   action="store_true", default=None,
                   help="add per-bath columns to the CSV")
    p.add_argument("--format", choices=["csv", "json"])
    _add_common(p)
    p.set_defaults(func=_cmd_echo)

    p = sub.add_parser("scan", help="echo curves across a field list")
    p.add_argument("--b", help="fields: start:stop:count or b1,b2,...")
    p.add_argument("--tau", help="per-arm delay grid start:stop:count")
    p.add_argument("--sequence", help="preset name, DSL text, or .seq file")
    p.add_argument("--n", type=int, help="repetition count for cpmg/xy8")
    p.add_argument("--g", type=int)
    p.add_argument("--n-baths", dest="n_baths", type=int)
    p.add_argument("--no-nn", dest="no_nn", action="store_true", default=None)
    p.add_argument("--threads", type=int)
    p.add_argument("--format", choices=["csv", "json"])
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("larmor-dist",
                       help="conditional nuclear precession histogram")
    p.add_argument("--b", type=float)
    p.add_argument("--bins", help="histogram bins: fd, auto, or a count")
    p.add_argument("--format", choices=["csv", "json"])
    _add_common(p)
    p.set_defaults(func=_cmd_larmor_dist)

    p = sub.add_parser("stats", help="closed-form ensemble statistics")
    p.add_argument("--ppm", type=float, help="defect concentration")
    p.add_argument("--k", type=int, help="neighbor index for --ppm")
    p.add_argument("--r", type=float, help="separation in nm")
    p.add_argument("--theta-deg", dest="theta_deg", type=float)
    p.add_argument("--angular-factor", dest="angular_factor", type=float,
                   help="value of 1 - 3cos^2(theta)")
    p.add_argument("--td", type=float, help="diffusion decay time in us")
    p.add_argument("--b", type=float, help="field in gauss")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="also write stats.json here")
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("parse", help="validate sequence text, echo canonical form")
    p.add_argument("sequence_text", help="DSL text or a .seq file path")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("dump-constants", help="print the constants table")
    p.add_argument("--format", choices=["text", "json"])
    p.set_defaults(func=_cmd_dump_constants)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as err:
        print(str(err), file=sys.stderr)
        return 2
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return 2
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
