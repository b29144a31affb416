"""End-to-end command-line checks, run in-process through main(argv)."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import spinbath

from spinbath.cli import main
from spinbath.constants import GAMMA_C13_HZ_PER_G, constants_table

# Small, fast bath for every echo/scan invocation in this module.
_SMALL = ["--n-spins", "12", "--n-baths", "2", "--tau", "0:8us:5",
          "--seed", "3"]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _dry_run_config(out: str) -> dict:
    # The resolved-config JSON block ends at the first column-0 brace;
    # the constants table follows it.
    lines = out.split("\n")
    end = lines.index("}")
    return json.loads("\n".join(lines[: end + 1]))["resolved_config"]


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_writes_csv_and_sidecar(tmp_path, capsys):
    code, out, err = _run(["spectrum", "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    paths = out.strip().splitlines()
    assert paths == [str(tmp_path / "spectrum.csv"),
                     str(tmp_path / "spectrum.meta.json")]
    rows = _rows(paths[0])
    assert len(rows) == 4 * 15  # four orientations, C(6,2) pairs each
    assert set(rows[0]) == {"freq_mhz", "from", "to", "kind", "moment",
                            "orientation"}
    meta = json.loads((tmp_path / "spectrum.meta.json").read_text())
    assert meta["command"] == "spectrum"
    assert meta["b"] == 72.0


def test_spectrum_off_axis_lines_at_72_gauss(tmp_path, capsys):
    code, out, _ = _run(["spectrum", "--jt", "off-axis",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = _rows(str(tmp_path / "spectrum.csv"))
    assert {r["orientation"] for r in rows} == {"off-axis-1"}
    electron = [float(r["freq_mhz"]) for r in rows if r["kind"] == "electron"]
    nuclear = [float(r["freq_mhz"]) for r in rows if r["kind"] == "nuclear"]
    assert any(abs(f - 144.0) <= 2.0 for f in electron)
    assert any(abs(f - 68.0) <= 2.0 for f in nuclear)


def test_spectrum_at_32_gauss_keeps_the_low_field_line(tmp_path, capsys):
    code, _, _ = _run(["spectrum", "--b", "32", "--jt", "off-axis",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = _rows(str(tmp_path / "spectrum.csv"))
    nuclear = [float(r["freq_mhz"]) for r in rows if r["kind"] == "nuclear"]
    assert any(abs(f - 90.0) <= 2.0 for f in nuclear)


def test_spectrum_rejects_negative_field(tmp_path, capsys):
    code, out, err = _run(["spectrum", "--b", "-5", "--out", str(tmp_path)],
                          capsys)
    assert code == 2
    assert "field must be" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["echo", "scan"])
def test_simulation_commands_reject_non_finite_field(tmp_path, capsys,
                                                     command):
    code, _, err = _run([command, *_SMALL, "--b", "nan",
                         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "field must be finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["echo", "scan"])
def test_simulation_commands_reject_non_finite_min_radius(capsys, command):
    # checked with the configuration, so even a dry run refuses it
    code, _, err = _run([command, *_SMALL, "--min-radius", "nan",
                         "--dry-run"], capsys)
    assert code == 2
    assert "min_radius must be finite" in err


def test_spectrum_json_format(tmp_path, capsys):
    code, out, _ = _run(["spectrum", "--format", "json",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.strip().splitlines() == [str(tmp_path / "spectrum.json")]
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["metadata"]["command"] == "spectrum"
    assert len(payload["rows"]) == 4 * 15


# ---------------------------------------------------------------------------
# echo

def test_echo_outputs_are_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = _run(["echo", *_SMALL, "--out", str(d)], capsys)
        assert code == 0
    assert (d1 / "echo.csv").read_bytes() == (d2 / "echo.csv").read_bytes()


def test_echo_thread_count_does_not_change_results(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    _run(["echo", *_SMALL, "--threads", "1", "--out", str(d1)], capsys)
    _run(["echo", *_SMALL, "--threads", "4", "--out", str(d2)], capsys)
    assert (d1 / "echo.csv").read_bytes() == (d2 / "echo.csv").read_bytes()


def test_echo_json_payload(tmp_path, capsys):
    code, out, _ = _run(["echo", *_SMALL, "--format", "json",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.strip().splitlines() == [str(tmp_path / "echo.json")]
    payload = json.loads((tmp_path / "echo.json").read_text())
    assert payload["metadata"]["schema_version"] == 1
    assert payload["metadata"]["n_spins"] == 12
    assert len(payload["tau_us"]) == 5
    assert payload["signal"][0] == pytest.approx(1.0, abs=1e-9)


def test_echo_include_baths_adds_columns(tmp_path, capsys):
    code, _, _ = _run(["echo", *_SMALL, "--include-baths",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    header = (tmp_path / "echo.csv").read_text().splitlines()[0]
    assert header == "tau_us,signal,bath_00,bath_01"


def test_echo_rejects_malformed_tau(tmp_path, capsys):
    code, _, err = _run(["echo", "--tau", "0:30us", "--out", str(tmp_path)],
                        capsys)
    assert code == 2 and "start:stop:count" in err
    code, _, err = _run(["echo", "--tau", "5us:1us:10",
                         "--out", str(tmp_path)], capsys)
    assert code == 2 and "must not precede" in err


def test_echo_rejects_repeat_count_on_fixed_presets(tmp_path, capsys):
    code, _, err = _run(["echo", *_SMALL, "--sequence", "hahn", "--n", "3",
                         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "takes no repetition count" in err


def test_echo_sequence_parse_error_exits_2(tmp_path, capsys):
    code, _, err = _run(["echo", *_SMALL, "--sequence", "pi(z) - tau",
                         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "unknown axis" in err


def test_echo_cpmg_repeat_reaches_the_schedule(tmp_path, capsys):
    code, out, _ = _run(["echo", *_SMALL, "--sequence", "cpmg", "--n", "2",
                         "--dry-run", "--out", str(tmp_path)], capsys)
    assert code == 0
    resolved = _dry_run_config(out)
    assert "[tau - pi(y) - tau]^2" in resolved["resolved_simulation"]["sequence"]


# ---------------------------------------------------------------------------
# scan

def test_scan_single_field_matches_echo(tmp_path, capsys):
    d1, d2 = tmp_path / "echo", tmp_path / "scan"
    _run(["echo", *_SMALL, "--b", "72", "--out", str(d1)], capsys)
    code, _, _ = _run(["scan", *_SMALL, "--b", "72", "--out", str(d2)], capsys)
    assert code == 0
    echo_rows = _rows(str(d1 / "echo.csv"))
    scan_rows = _rows(str(d2 / "scan.csv"))
    assert len(scan_rows) == len(echo_rows)
    for er, sr in zip(echo_rows, scan_rows):
        assert sr["b_gauss"] == "72"
        assert sr["tau_us"] == er["tau_us"]
        assert sr["signal"] == er["signal"]


def test_scan_lists_every_field_in_metadata(tmp_path, capsys):
    code, _, _ = _run(["scan", *_SMALL, "--b", "40,72",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "scan.meta.json").read_text())
    assert meta["fields_gauss"] == [40.0, 72.0]
    rows = _rows(str(tmp_path / "scan.csv"))
    assert {r["b_gauss"] for r in rows} == {"40", "72"}
    assert len(rows) == 2 * 5


def test_scan_rejects_empty_field_list(tmp_path, capsys):
    code, _, err = _run(["scan", *_SMALL, "--b", ",", "--out", str(tmp_path)],
                        capsys)
    assert code == 2
    assert "non-empty" in err


# ---------------------------------------------------------------------------
# larmor-dist

def test_larmor_dist_json_branches(tmp_path, capsys):
    code, out, _ = _run(["larmor-dist", "--n-spins", "30", "--seed", "4",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "larmor_dist.json").read_text())
    labels = [br["label"] for br in payload["branches"]]
    assert labels == ["mS=0", "mS=-1"]
    f0, f1 = (br["frequencies_hz"] for br in payload["branches"])
    assert len(f0) == len(f1) == 30
    # the m_s = 0 branch barely moves carbons off the bare Larmor line
    bare = GAMMA_C13_HZ_PER_G * 72.0
    spread0 = max(f0) - min(f0)
    spread1 = max(f1) - min(f1)
    assert spread0 < 0.1 * spread1
    assert all(abs(f - bare) < 0.05 * bare for f in f0)
    assert payload["metadata"]["central"] == "nv"


@pytest.mark.parametrize("argv,message", [
    (["--min-radius", "nan"], "min_radius must be finite"),
    (["--min-radius", "-1"], "min_radius must be finite"),
    (["--n-spins", "-1"], "n_spins must be non-negative"),
    (["--abundance", "0"], "abundance must lie in"),
    (["--abundance", "nan"], "abundance must lie in")])
def test_larmor_dist_dry_run_validates_the_bath(capsys, argv, message):
    # the same rules as generate_bath, before the dry run returns
    code, out, err = _run(["larmor-dist", *argv, "--dry-run"], capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_larmor_dist_csv_format(tmp_path, capsys):
    code, _, _ = _run(["larmor-dist", "--central", "p1", "--n-spins", "10",
                       "--format", "csv", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = _rows(str(tmp_path / "larmor_dist.csv"))
    assert len(rows) == 2 * 10
    assert set(rows[0]) == {"spin_index", "branch", "freq_hz", "flagged"}
    assert (tmp_path / "larmor_dist.meta.json").exists()


# ---------------------------------------------------------------------------
# stats

def test_stats_prints_selected_quantities(capsys):
    code, out, err = _run(["stats", "--ppm", "0.2", "--r", "16.9",
                           "--td", "70", "--b", "72"], capsys)
    assert code == 0 and err == ""
    values = {}
    for line in out.strip().splitlines():
        name, _, text = line.partition(" ")
        values[name] = float(text)
    assert values["mean_r1_nm"] == pytest.approx(16.9, abs=0.2)
    assert values["dipolar_coupling_khz"] == pytest.approx(5.4, abs=0.3)
    assert values["concentration_ppm"] == pytest.approx(0.2, rel=1e-12)
    assert values["larmor_freq_hz"] == pytest.approx(GAMMA_C13_HZ_PER_G * 72.0)
    assert values["larmor_period_s"] == pytest.approx(
        1.0 / (GAMMA_C13_HZ_PER_G * 72.0))


def test_stats_zero_field_has_no_period(capsys):
    code, out, _ = _run(["stats", "--b", "0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "larmor_freq_hz 0" in lines
    assert "larmor_period_s" in lines  # bare name: no finite period


def test_stats_without_inputs_fails(capsys):
    code, _, err = _run(["stats"], capsys)
    assert code == 2
    assert "nothing to compute" in err


@pytest.mark.parametrize("argv", [
    ["--ppm", "nan"], ["--ppm", "inf"], ["--r", "nan", "--theta-deg", "30"],
    ["--r", "inf"], ["--r", "16.9", "--theta-deg", "nan"],
    ["--r", "16.9", "--angular-factor", "inf"], ["--td", "nan"],
    ["--td", "inf"]])
def test_stats_rejects_non_finite_input(capsys, argv):
    code, out, err = _run(["stats", *argv], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_stats_writes_json_when_out_given(tmp_path, capsys):
    code, out, _ = _run(["stats", "--td", "70", "--out", str(tmp_path)],
                        capsys)
    assert code == 0
    path = tmp_path / "stats.json"
    assert out.strip().splitlines()[-1] == str(path)
    payload = json.loads(path.read_text())
    assert payload["results"]["concentration_ppm"] == pytest.approx(0.2)
    assert payload["inputs"]["td"] == 70.0


# ---------------------------------------------------------------------------
# parse / dump-constants

def test_parse_echoes_canonical_text(capsys):
    code, out, _ = _run(
        ["parse", "PI/2( x ) - TAU - pi(y) - tau - pi/2(x)"], capsys)
    assert code == 0
    assert out.strip() == "pi/2(x) - tau - pi(y) - tau - pi/2(x)"
    # canonical text is a fixed point
    code, out2, _ = _run(["parse", out.strip()], capsys)
    assert code == 0 and out2 == out


def test_parse_reads_sequence_files(tmp_path, capsys):
    path = tmp_path / "prog.seq"
    path.write_text("pi/2(x) - tau/2 - [pi(y) - tau]^2 - 1.5us\n")
    code, out, _ = _run(["parse", str(path)], capsys)
    assert code == 0
    assert out.strip() == "pi/2(x) - tau/2 - [pi(y) - tau]^2 - 1.5us"


def test_parse_error_exit_code(capsys):
    code, out, err = _run(["parse", "pi(z) - tau"], capsys)
    assert code == 2
    assert out == ""
    assert "unknown axis 'z'" in err


@pytest.mark.parametrize("argv", [
    ["parse", "--check", "pi(x) - tau"],
    ["stats", "--b", "72", "--format", "json"],
])
def test_removed_flags_are_usage_errors(argv, capsys):
    # parse --check and stats --format did nothing and are gone
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_dump_constants_text_and_json(capsys):
    code, out, _ = _run(["dump-constants"], capsys)
    assert code == 0
    assert "gamma_e_mhz_per_gauss" in out
    assert "MHz/G" in out
    code, out, _ = _run(["dump-constants", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload.keys() == constants_table().keys()
    assert payload["gamma_c13_hz_per_gauss"]["value"] == GAMMA_C13_HZ_PER_G


# ---------------------------------------------------------------------------
# configuration plumbing

def test_dry_run_prints_config_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "never_created"
    code, out, _ = _run(["echo", *_SMALL, "--dry-run", "--out", str(target)],
                        capsys)
    assert code == 0
    resolved = _dry_run_config(out)
    assert resolved["command"] == "echo"
    assert resolved["n_spins"] == 12
    assert "gamma_e_mhz_per_gauss" in out  # constants table follows the JSON
    assert not target.exists()


def test_config_file_is_overridden_by_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 32.0, "n_spins": 10}))
    code, out, _ = _run(["echo", "--config", str(cfg), "--b", "47",
                         "--dry-run"], capsys)
    assert code == 0
    resolved = _dry_run_config(out)
    assert resolved["b"] == 47.0  # flag wins
    assert resolved["n_spins"] == 10  # file beats the default


def test_config_file_unknown_key_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = _run(["echo", "--config", str(cfg), "--dry-run"], capsys)
    assert code == 2
    assert "unknown config key 'bogus'" in err


def test_out_env_var_used_when_no_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPINBATH_OUT", str(tmp_path))
    code, out, _ = _run(["spectrum", "--format", "json"], capsys)
    assert code == 0
    assert (tmp_path / "spectrum.json").exists()
    assert out.strip().splitlines() == [str(tmp_path / "spectrum.json")]


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(spinbath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    # only fit_t2 needs scipy; every command would pay its import
    proc = _run_python(
        "import sys, spinbath.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_analysis_unloaded():
    # echo and scan never use it; the commands that do import it
    proc = _run_python(
        "import sys, spinbath.cli; print('spinbath.analysis' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from spinbath.cli import main
out = sys.argv[1]
small = ["--n-spins", "8", "--n-baths", "1", "--tau", "0:8us:3",
         "--out", out]
commands = [
    ["echo", *small],
    ["scan", "--b", "40,72", "--m-i", "thermal", *small],
    ["larmor-dist", "--n-spins", "12", "--out", out],
    ["spectrum", "--out", out],
    ["stats", "--ppm", "0.2", "--r", "16.9", "--td", "70", "--b", "72"],
    ["dump-constants"],
]
for argv in commands:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_commands_run_without_scipy(tmp_path):
    proc = _run_python(_WITHOUT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr + proc.stdout
