"""Command-line front end: seeded runs and file emission for every operation.

Commands: spectrum, echo, scan, larmor-dist, stats, parse, dump-constants.
Values resolve as CLI flag > config file (--config, flat JSON keyed by flag
name with underscores; a string or number is parsed as the flag's text is)
> the flag's default, and the resolved configuration is embedded in every
output's metadata (JSON outputs inline; CSV outputs get a .meta.json
sidecar).  Output directory: --out, else $SPINBATH_OUT, else the working
directory.  All floats in CSV are written with 17 significant digits;
reruns of an identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import re
import sys

import numpy as np

# analysis is imported by the commands that use it, not at start-up
from .bathgen import check_bath_parameters, generate_bath
from .constants import (C13_ABUNDANCE, as_quantity, constants_table,
                        ppm_to_density_nm3)
from .dynamics import (SimulationConfig, _at_field, _magnitudes,
                       ensemble_signal, field_scan, scan_csv)
from .hamiltonians import (BareElectron, JtOrientation, NVCenter, P1Center,
                           _field_vector)
from .pulses import (PRESET_NAMES, _UNIT_SECONDS, canonical_text,
                     expand_preset, parse_sequence)

_FORMATS = ("csv", "json")

# Most points of a tau grid or field range, checked before either is made:
# every tau keeps a value per bath (an electron echo of 20 baths on 2^18
# taus peaks at 358 MB), so 2^20 take gigabytes; every field runs an ensemble.
_MAX_POINTS = 1 << 20

_TIME_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                      f"({'|'.join(_UNIT_SECONDS)})?$")


def _parse_time_us(token: str) -> float:
    """One time token, default unit microseconds; returns seconds."""
    m = _TIME_RE.match(token.strip().lower())
    if not m:  # the number the pattern matches is a valid float
        raise ValueError(f"bad time value '{token}'")
    return as_quantity(float(m.group(1)) * _UNIT_SECONDS[m.group(2) or "us"],
                       f"time value '{token}' must be finite")


def _parse_gauss(token: str) -> float:
    """One field token in gauss."""
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad field value '{token}'") from None


def _check_count(count: int, name: str) -> None:
    """The count rule of a tau grid or field list: 1 to _MAX_POINTS."""
    if not 1 <= count <= _MAX_POINTS:
        raise ValueError(f"{name} count must be 1 to {_MAX_POINTS}, not {count}")


def _parse_range(text: str, value, name: str) -> list[float]:
    """'start:stop:count' of name, each end read by value; the count is
    checked before any point is made."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must be start:stop:count, not '{text}'")
    start, stop = value(parts[0]), value(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"bad {name} count '{parts[2]}'") from None
    _check_count(count, name)
    # a non-finite point is its caller's to refuse, not numpy's to warn
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(x) for x in np.linspace(start, stop, count)]


def _parse_field_list(text: str) -> list[float]:
    """'start:stop:count', 'b1,b2,...', or a single value (gauss); the
    count is checked before any field is made."""
    if ":" in text:
        return _parse_range(text, _parse_gauss, "field")
    tokens = [t for t in text.split(",") if t.strip()] if "," in text else [text]
    _check_count(len(tokens), "field")
    return [_parse_gauss(t) for t in tokens]


def _make_jt(name: str) -> JtOrientation:
    """A JtOrientation by label; "off-axis" names off-axis-1."""
    key = name.lower()
    return JtOrientation("off-axis-1" if key == "off-axis" else key)


def _make_central(resolved: dict):
    """The central spin of the flags --central, --jt and --m-i."""
    key, m_i = resolved["central"].lower(), str(resolved["m_i"])
    if key == "p1":
        try:
            mi = None if m_i.lower() == "thermal" else int(m_i)
        except ValueError:
            raise ValueError(f"bad m_i '{m_i}'") from None
        return P1Center(jt=_make_jt(resolved["jt"]), m_i=mi)
    if key == "nv":
        return NVCenter()
    if key == "electron":
        return BareElectron()
    raise ValueError(f"unknown central spin '{resolved['central']}'")


def _bath_args(resolved: dict) -> dict:
    """generate_bath's keyword arguments of the bath flags; min_radius
    keeps its default where --min-radius is unset."""
    kwargs = dict(n_spins=resolved["n_spins"], abundance=resolved["abundance"])
    if resolved["min_radius"] is not None:
        kwargs["min_radius"] = resolved["min_radius"]
    return kwargs


def _make_sequence(spec: str, n):
    name = spec.lower()
    if name in PRESET_NAMES:
        return expand_preset(name, n)
    if n is not None:
        raise ValueError("--n applies to the cpmg and xy8 presets only")
    return parse_sequence(_sequence_text(spec))


def _sequence_text(spec: str) -> str:
    """spec itself, or the text of the file it names where it ends in .seq."""
    if not spec.endswith(".seq"):
        return spec
    try:
        with open(spec, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as err:
        raise ValueError(f"cannot read sequence file: {err}") from None


def _emit(resolved: dict, stem: str, csv_text: str | None, payload: dict,
          meta: dict | None = None) -> None:
    """Write one command's output files and print each path.

    Format csv writes csv_text to <stem>.csv and meta to a <stem>.meta.json
    sidecar; otherwise (json, or stats, which has no format) payload goes to
    <stem>.json.  The directory is --out, else $SPINBATH_OUT, else '.'.
    """
    if resolved.get("format") == "csv":
        files = {f"{stem}.csv": csv_text,
                 f"{stem}.meta.json": json.dumps(meta, indent=2) + "\n"}
    else:
        files = {f"{stem}.json": json.dumps(payload, indent=2) + "\n"}
    out = resolved["out"] or os.environ.get("SPINBATH_OUT") or "."
    os.makedirs(out, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(path)


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


def _read_config(args: argparse.Namespace,
                 p: argparse.ArgumentParser) -> dict:
    """The --config file's values, each keyed like one of p's flags.

    An on/off flag takes true or false, any other a string or a number (as
    its text, so through the flag's type), null where its default is null,
    and a list only as echo's b, the field vector.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read config file: {err}") from None
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in values.items():
        if key in ("command", "config", "func") or key not in vars(args):
            raise ValueError(f"unknown config key '{key}'")
        default = p.get_default(key)
        if type(default) is bool:
            if type(value) is not bool:
                raise ValueError(f"config key '{key}' takes true or false, "
                                 f"not {json.dumps(value)}")
        elif type(value) in (int, float):
            values[key] = repr(value)
        elif not (type(value) is str or (value is None and default is None)
                  or (type(value) is list and key == "b"
                      and args.command == "echo")):
            raise ValueError(
                f"config key '{key}' takes a string, a number"
                f"{' or null' if default is None else ''}, "
                f"not {json.dumps(value)}")
    return values


# ---------------------------------------------------------------------------
# shared flag groups

def _add_output(p: argparse.ArgumentParser, fmt: str | None,
                out_help: str = "output directory (default $SPINBATH_OUT or .)"):
    """--config, --out, --dry-run and, given its default, --format."""
    if fmt is not None:
        p.add_argument("--format", choices=_FORMATS, default=fmt)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help=out_help)
    p.add_argument("--dry-run", action="store_true",
                   help="validate, print resolved config and constants, exit")


def _add_field(p: argparse.ArgumentParser):
    p.add_argument("--b", type=float, default=72.0,
                   help="field in gauss (along z)")


def _add_bath(p: argparse.ArgumentParser, central: str):
    p.add_argument("--central", choices=["p1", "nv", "electron"],
                   default=central)
    p.add_argument("--jt", default="off-axis", help="P1 bond orientation "
                   "(on-axis, off-axis, off-axis-2, off-axis-3)")
    p.add_argument("--m-i", default="-1",
                   help="nitrogen projection: -1, 0, 1, or thermal")
    p.add_argument("--n-spins", type=int, default=125)
    p.add_argument("--abundance", type=float, default=C13_ABUNDANCE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-radius", type=float,
                   help="exclusion radius in nm (default one bond length)")


def _add_simulation(p: argparse.ArgumentParser):
    """The flags echo and scan share besides the bath and the field."""
    p.add_argument("--tau", default="0:30us:150",
                   help="per-arm delay grid start:stop:count (default unit us)")
    p.add_argument("--sequence", default="hahn",
                   help="preset name, DSL text, or .seq file")
    p.add_argument("--n", type=int, help="repetition count for cpmg/xy8")
    p.add_argument("--g", type=int, default=3, help="max cluster size")
    p.add_argument("--n-baths", type=int, default=20)
    p.add_argument("--threads", type=int, default=1)
    _add_output(p, "csv")


def _sim_config(resolved: dict, b) -> SimulationConfig:
    tau_grid = _parse_range(resolved["tau"], _parse_time_us, "tau")
    sequence = _make_sequence(resolved["sequence"], resolved["n"])
    return SimulationConfig(
        central=_make_central(resolved),
        b_field=b,
        g=resolved["g"],
        n_baths=resolved["n_baths"],
        tau_grid=tau_grid,
        sequence=sequence,
        master_seed=resolved["seed"],
        workers=resolved["threads"],
        **_bath_args(resolved),
    )


# ---------------------------------------------------------------------------
# commands: each takes the resolved flags, "command" first

def _check_field(b):
    """A field (gauss), or a 3-vector from a config file, must pass the
    library's rule, and a scalar one be ≥ 0 as a scan's fields are."""
    if np.ndim(b):
        _field_vector(b)
    else:
        _magnitudes([b])


def _cmd_spectrum(resolved: dict) -> int:
    from .analysis import transition_table

    _check_field(resolved["b"])  # a float, as its flag's type parsed it
    jt = resolved["jt"].lower()
    orientations = None if jt == "all" else [_make_jt(jt)]
    if resolved["dry_run"]:
        return _dry_run(resolved)
    table = transition_table(resolved["b"], orientations)
    _emit(resolved, "spectrum", table.to_csv(),
          {**table.to_dict(), "metadata": resolved}, resolved)
    return 0


def _cmd_echo(resolved: dict) -> int:
    _check_field(resolved["b"])
    config = _sim_config(resolved, resolved["b"])
    meta = {**resolved, "resolved_simulation": config.describe()}
    if resolved["dry_run"]:
        return _dry_run(meta)
    curve = ensemble_signal(config)
    _emit(resolved, "echo",
          curve.to_csv(include_baths=resolved["include_baths"]),
          curve.to_dict(), meta)
    return 0


def _cmd_scan(resolved: dict) -> int:
    fields = _magnitudes(_parse_field_list(str(resolved["b"])))
    # the shared flags are parsed once, into the first field's config
    config = _sim_config(resolved, fields[0])
    simulation = config.describe()
    del simulation["b_field_gauss"]  # the first field's; fields_gauss has all
    meta = {**resolved, "fields_gauss": fields,
            "resolved_simulation": simulation}
    if resolved["dry_run"]:
        for b in fields:  # the probed pair and the phase at each b
            _at_field(config, b)
        return _dry_run(meta)
    curves = field_scan(config, fields)
    _emit(resolved, "scan", scan_csv(curves),
          {"metadata": meta,
           "curves": [c.to_dict() for c in curves]}, meta)
    return 0


def _cmd_larmor_dist(resolved: dict) -> int:
    from .analysis import _admit, larmor_distribution

    b = float(resolved["b"])
    _check_field(b)
    bins = resolved["bins"]
    bins = int(bins) if bins.isdigit() else bins
    central = _make_central(resolved)
    check_bath_parameters(**_bath_args(resolved), seed=resolved["seed"])
    _admit(central, resolved["n_spins"], b, bins)
    if resolved["dry_run"]:
        return _dry_run(resolved)
    bath = generate_bath(resolved["seed"], **_bath_args(resolved))
    hist = larmor_distribution(central, bath, b, bins=bins)
    _emit(resolved, "larmor_dist", hist.to_csv(),
          {**hist.to_dict(), "metadata": resolved}, resolved)
    return 0


def _cmd_stats(resolved: dict) -> int:
    from .analysis import (concentration_from_td, larmor_frequency,
                           mean_dipolar_coupling, mean_kth_distance)

    results: dict = {}
    if resolved["ppm"] is not None:
        n = ppm_to_density_nm3(resolved["ppm"])
        r_k = mean_kth_distance(n, resolved["k"])
        results[f"mean_r{resolved['k']}_nm"] = r_k
        results["density_nm3"] = n
    if resolved["r"] is not None:
        theta, factor = resolved["theta_deg"], resolved["angular_factor"]
        if theta is not None:
            theta = math.radians(theta)
        elif factor is None:
            factor = 0.5
        results["dipolar_coupling_khz"] = mean_dipolar_coupling(
            resolved["r"], theta, angular_factor=factor)
    if resolved["td"] is not None:
        results["concentration_ppm"] = concentration_from_td(
            resolved["td"] * 1e-6)
    if resolved["b"] is not None:
        _field_vector(resolved["b"])  # the Zeeman rule of every command
        info = larmor_frequency(resolved["b"])
        results["larmor_freq_hz"] = info["freq_hz"]
        results["larmor_period_s"] = info["period_s"]
    if not results:
        raise ValueError(
            "nothing to compute: give --ppm, --r, --td, and/or --b")
    if resolved["dry_run"]:
        return _dry_run(resolved)
    for name, value in results.items():
        print(f"{name} {'' if value is None else format(value, '.17g')}".rstrip())
    if resolved["out"]:
        inputs = {k: v for k, v in resolved.items() if k != "command"}
        _emit(resolved, "stats", None, {"command": "stats", "inputs": inputs,
                                        "results": results})
    return 0


def _cmd_parse(resolved: dict) -> int:
    spec = _sequence_text(resolved["sequence_text"])
    print(canonical_text(parse_sequence(spec)))
    return 0


def _cmd_dump_constants(resolved: dict) -> int:
    if resolved["format"] == "json":
        print(json.dumps(constants_table(), indent=2))
    else:
        _print_constants()
    return 0


def _build_parser():
    """The parser and its subparsers action, whose choices map names to parsers."""
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Spin-echo decoherence of diamond defect spins in a "
                    "carbon-13 bath: simulation, spectroscopy, statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="resonance table of the six-level center")
    _add_field(p)
    p.add_argument("--jt", default="all", help="on-axis, off-axis[-k], or all")
    _add_output(p, "csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("echo", help="ensemble-averaged echo curve")
    _add_field(p)
    _add_simulation(p)
    p.add_argument("--include-baths", action="store_true",
                   help="add per-bath columns to the CSV")
    _add_bath(p, "p1")
    p.set_defaults(func=_cmd_echo)

    p = sub.add_parser("scan", help="echo curves across a field list")
    p.add_argument("--b", default="40:110:8",
                   help="fields: start:stop:count or b1,b2,...")
    _add_simulation(p)
    _add_bath(p, "p1")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("larmor-dist",
                       help="conditional nuclear precession histogram")
    _add_field(p)
    p.add_argument("--bins", default="auto",
                   help="histogram bins: auto, fd, or a count")
    _add_output(p, "json")
    _add_bath(p, "nv")
    p.set_defaults(func=_cmd_larmor_dist)

    p = sub.add_parser("stats", help="closed-form ensemble statistics")
    p.add_argument("--ppm", type=float, help="defect concentration")
    p.add_argument("--k", type=int, default=1, help="neighbor index for --ppm")
    p.add_argument("--r", type=float, help="separation in nm")
    p.add_argument("--theta-deg", type=float)
    p.add_argument("--angular-factor", type=float,
                   help="value of 1 - 3cos^2(theta)")
    p.add_argument("--td", type=float, help="diffusion decay time in us")
    p.add_argument("--b", type=float, help="field in gauss")
    _add_output(p, None, "also write stats.json here")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("parse", help="validate sequence text, echo canonical form")
    p.add_argument("sequence_text", help="DSL text or a .seq file path")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("dump-constants", help="print the constants table")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_dump_constants)

    return parser, sub


# At exit, move every live object to the permanent generation: the
# interpreter's final collections then skip the 22,000 objects of numpy and
# spinbath (about 16 ms, a tenth of a dry run on 2 cores), and the OS
# reclaims them.  Other atexit handlers and the stdio flush still run, and
# every output file is closed before main returns.  Registered once, on
# import, however often main is called.
atexit.register(gc.freeze)


def main(argv=None) -> int:
    parser, sub = _build_parser()
    args = parser.parse_args(argv)
    try:
        for key, value in vars(args).items():
            if value == []:  # argparse before 3.13 reads --flag=-- so
                raise ValueError(f"bad {key} '--'")
        if getattr(args, "config", None):
            # file values become the command's defaults, so each goes
            # through its flag's type and a flag given still wins
            command = sub.choices[args.command]
            command.set_defaults(**_read_config(args, command))
            args = parser.parse_args(argv)
            # argparse checks choices on flags only, not on defaults
            if getattr(args, "format", "csv") not in _FORMATS:
                raise ValueError(f"unknown format '{args.format}'")
        resolved = vars(args)
        func = resolved.pop("func")
        resolved.pop("config", None)
        return func(resolved)
    except ValueError as err:  # ParseError and every refusal among them
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
