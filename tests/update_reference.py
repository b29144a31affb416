"""The reference command set: each command's committed outputs, and the
script that rewrites them from the current code.

Each case runs ``spinbath.cli.main`` in process with ``--out`` set to a
fresh directory and keeps what it wrote: every output file, and
``run.json`` with the argv, the exit code, stdout and stderr.  The output
directory reads ``$OUT`` wherever it appears.  ``test_reference.py`` reruns
every case and compares float cells within ``TOLERANCE`` absolute and
everything else exactly.

Run from the repository root to rewrite ``tests/reference/``:

    PYTHONPATH=src python tests/update_reference.py

It prints, for each file, the largest absolute shift of its float cells
against the file it replaces: "=" after a file that is byte-identical,
"new" for a file that was not there, "inf" and the path of the first
difference where a cell that is not a float changed (".stdout",
".resolved_simulation.lattice removed", "[3][2]" for a CSV's row 3,
column 2), and "gone" for a file the command no longer writes.
"""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import shlex
import shutil
import tempfile

from spinbath.cli import main

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-10
MASK = "$OUT"

CASES = {
    "echo": "echo --n-baths 2",
    "echo-nv-400": "echo --central nv --n-spins 400 --n-baths 1 "
                   "--tau 0:30us:4",
    "echo-thermal": "echo --m-i thermal --n-baths 2",
    "echo-json": "echo --format json --include-baths --n-baths 2",
    "echo-xy8-2": "echo --sequence xy8 --n 2 --n-baths 1",
    "echo-nv-cpmg-8": "echo --central nv --sequence cpmg --n 8 --n-baths 1 "
                      "--tau 0:30us:20",
    "echo-electron": "echo --central electron --n-baths 1",
    "echo-one-run": "echo --sequence 'pi/2(x) - tau - pi/2(x)' --n-baths 1 "
                    "--tau 0:30us:60",
    "scan": "scan --b 40,72 --n-spins 20",
    "scan-signed-zero": "scan --b 72,-0.0,0 --n-baths 2",
    "spectrum": "spectrum --b 32",
    "larmor-dist": "larmor-dist --n-spins 20",
    "stats": "stats --ppm 0.2 --td 70 --b 72",
    "echo-dry-run": "echo --dry-run",
    "refused-echo-b0-mi0": "echo --b 0 --m-i 0",
    "refused-echo-g12": "echo --g 12 --dry-run",
    "refused-scan-1e308": "scan --b 40,1e308",
}


def run_case(command: str) -> dict[str, str]:
    """The texts a command leaves, by file name: its output files and
    run.json, with the output directory masked."""
    argv = shlex.split(command)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out])
        files = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), encoding="utf-8",
                          newline="") as fh:
                    files[name] = fh.read()
        files["run.json"] = json.dumps(
            {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
             "stderr": stderr.getvalue()}, indent=2) + "\n"
    return {name: text.replace(out, MASK) for name, text in files.items()}


def read_case(name: str) -> dict[str, str]:
    """The committed texts of one case, by file name."""
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((REFERENCE / name).iterdir())}


def _cell_shift(old, new, where: str) -> tuple[float, str]:
    """(|old - new|, "") of two numbers, one of them a float; (inf, where)
    where two other cells are not equal."""
    kinds = {type(old), type(new)}
    if float in kinds and kinds <= {int, float}:
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0, ""
        if math.isfinite(old - new):
            return abs(old - new), ""
    elif (type(old), old) == (type(new), new):
        return 0.0, ""
    return math.inf, where


def _largest(shifts) -> tuple[float, str]:
    """The largest of (shift, where) pairs, the first inf's where kept."""
    return max(shifts, key=lambda shift: shift[0], default=(0.0, ""))


def _json_shift(old, new, where: str = "") -> tuple[float, str]:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old:
            if key not in new:
                return math.inf, f"{where}.{key} removed"
        for key in new:
            if key not in old:
                return math.inf, f"{where}.{key} added"
        if list(old) != list(new):
            return math.inf, f"{where} key order"
        return _largest(_json_shift(old[k], new[k], f"{where}.{k}")
                        for k in old)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return math.inf, f"{where} length {len(old)} to {len(new)}"
        return _largest(_json_shift(a, b, f"{where}[{k}]")
                        for k, (a, b) in enumerate(zip(old, new)))
    return _cell_shift(old, new, where)


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def largest_shift(name: str, old: str, new: str) -> tuple[float, str]:
    """The largest absolute shift of a file's float cells (CSV cells that
    parse as floats, JSON numbers), and "": or inf and where the first
    other difference is, a JSON path (.key[index]) or a CSV row[column]."""
    if old == new:
        return 0.0, ""
    if name.endswith(".json"):
        return _json_shift(json.loads(old), json.loads(new))
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    for k, (r, s) in enumerate(zip(old_rows, new_rows)):
        if len(r) != len(s):
            return math.inf, f"[{k}] length {len(r)} to {len(s)}"
    if len(old_rows) != len(new_rows):
        return math.inf, f"length {len(old_rows)} to {len(new_rows)}"
    return _largest(_cell_shift(_as_float(a), _as_float(b), f"[{k}][{j}]")
                    for k, (r, s) in enumerate(zip(old_rows, new_rows))
                    for j, (a, b) in enumerate(zip(r, s)))


def update() -> None:
    """Rewrite every case's files and print each file's largest shift."""
    for case, command in CASES.items():
        old = read_case(case) if (REFERENCE / case).is_dir() else {}
        new = run_case(command)
        for name in sorted(old.keys() | new.keys()):
            if name not in new:
                verdict = "gone"
            elif name not in old:
                verdict = "new"
            else:
                shift, where = largest_shift(name, old[name], new[name])
                verdict = f"{shift:.3g} {where}".rstrip()
                if old[name] == new[name]:
                    verdict += " ="
            print(f"{case}/{name}  {verdict}")
        shutil.rmtree(REFERENCE / case, ignore_errors=True)
        (REFERENCE / case).mkdir(parents=True)
        for name, text in new.items():
            with open(REFERENCE / case / name, "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)


if __name__ == "__main__":
    update()
