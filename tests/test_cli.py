"""End-to-end command-line checks, run in-process through main(argv)."""

import atexit
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import spinbath
import spinbath.cli as cli
import spinbath.pulses as pulses

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


@pytest.mark.parametrize("argv", [
    ["echo", "--central", "nv", "--dry-run"], ["echo", *_SMALL],
    ["scan", *_SMALL], ["spectrum"], ["larmor-dist", "--n-spins", "12"],
    ["stats"]], ids=["echo-nv-dry-run", "echo", "scan", "spectrum",
                     "larmor-dist", "stats"])
def test_field_whose_zeeman_term_overflows_is_refused(tmp_path, capsys, argv):
    # gamma_e x 1e308 G is inf: refused with the field's own message, before
    # any warning (an error under this suite) or any work
    code, out, err = _run([*argv, "--b", "1e308", "--out", str(tmp_path)],
                          capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("field must be finite, and |b_x| + |b_y| + |b_z| "
                          "below about 6.41e+301 G")
    assert err.count("\n") == 1
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
    assert code == 2 and err == "tau_grid must be sorted ascending\n"


@pytest.mark.parametrize("argv,message", [
    (["echo", "--tau", "0:30us:1000000000000"],
     "tau count must be 1 to 1048576, not 1000000000000"),
    (["scan", "--b", "40:110:100000000"],
     "field count must be at most 1048576, not 100000000"),
    (["scan", "--b", ",".join(["72"] * ((1 << 20) + 1))],
     "field count must be at most 1048576, not 1048577"),
], ids=["tau", "field", "field-list"])
def test_grid_counts_over_budget_are_refused_before_allocation(
        argv, message, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", refuse)
    code, out, err = _run([*argv, "--dry-run"], capsys)
    assert code == 2 and out == ""
    assert message in err


def test_grid_count_budget_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_POINTS", 5)
    for argv in (["echo", "--tau", "0:30us:{}"],
                 ["scan", "--b", "40:72:{}", "--tau", "0:30us:5"],
                 ["scan", "--b", "72", "--tau", "0:30us:{}"]):
        code, _, _ = _run([a.format(5) for a in argv] + ["--dry-run"], capsys)
        assert code == 0
        code, _, err = _run([a.format(6) for a in argv] + ["--dry-run"],
                            capsys)
        assert code == 2 and "not 6" in err


def test_echo_refuses_phases_fp64_cannot_resolve(tmp_path, capsys):
    sequence = ["--sequence", "pi/2(x) - 1e300us - pi/2(x)"]
    for argv in (["echo", *sequence, "--n-baths", "1", "--n-spins", "10",
                  "--tau", "0:1us:2"],
                 ["echo", *sequence, "--dry-run"],
                 ["scan", *sequence, "--b", "40,72", "--dry-run"]):
        code, out, err = _run([*argv, "--out", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert "fp64 no longer resolves it to 1e-6 rad" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sequence, count", [
    ("pi/2(x) - [pi(x)]^1000000000000 - tau - pi/2(x)", "1e+12"),
    ("pi/2(x) - [pi(x)]^10000000 - tau - pi/2(x)", "1e+07"),
    ("pi/2(x) - [tau - pi(x) - tau]^1" + "0" * 400 + " - pi/2(x)", "2^1330"),
], ids=["1e12-pulses", "1e7-pulses", "400-zeros"])
def test_programs_past_the_item_budget_are_refused_before_any_work(
        sequence, count, capsys, monkeypatch):
    # counted, not unrolled: a delay in a block repeated 10^400 times
    # neither overflows the phase check nor reaches a plan or a schedule
    def refuse(*args, **kwargs):
        raise AssertionError("the program was unrolled")

    monkeypatch.setattr(pulses, "_runs", refuse)
    code, out, err = _run(["echo", "--sequence", sequence, "--n-baths", "1",
                           "--tau", "0:30us:3", "--dry-run"], capsys)
    assert code == 2 and out == ""
    assert f"the program unrolls to {count} pulses and delays" in err


@pytest.mark.parametrize("argv", [
    ["echo", "--g", "40"], ["echo", "--g", "12"],
    ["echo", "--tau", "0:30us:1000000"], ["scan", "--g", "12"]],
    ids=["g-40", "g-12", "tau-1e6", "scan-g-12"])
def test_runs_whose_largest_group_cannot_fit_are_refused(argv, capsys):
    # at g = 12 one P1 group's Hamiltonian alone is 9 GiB, and at 10^6 taus
    # one 3-carbon slab 6.1 GB: refused before any bath, dry runs included
    code, out, err = _run([*argv, "--dry-run"], capsys)
    assert code == 2 and out == ""
    assert "a group may take" in err


@pytest.mark.parametrize("argv", [
    ["--g", "5", "--n-baths", "1", "--tau", "0:30us:5"],
    ["--g", "6", "--n-baths", "1", "--tau", "0:30us:5"], ["--g", "8"]],
    ids=["g-5", "g-6", "g-8"])
def test_runs_whose_largest_group_fits_pass_the_byte_budget(argv, capsys):
    # README's g = 5 and g = 6 runs, and the P1 at g = 8 over 150 taus
    # (944 MB)
    code, _, err = _run(["echo", *argv, "--dry-run"], capsys)
    assert code == 0, err


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


@pytest.mark.parametrize("dry_run", [False, True])
def test_a_scan_builds_one_config(tmp_path, capsys, monkeypatch, dry_run):
    # the shared flags are parsed once, into the first field's config, and
    # every field runs on it: the others are admitted without a config
    built = []
    post_init = cli.SimulationConfig.__post_init__

    def counted(self):
        post_init(self)
        built.append(self.b_field[2])

    monkeypatch.setattr(cli.SimulationConfig, "__post_init__", counted)
    argv = ["scan", *_SMALL, "--b", "40:110:10", "--out", str(tmp_path)]
    code, _, _ = _run(argv + ["--dry-run"] * dry_run, capsys)
    assert code == 0
    assert built == [40.0]
    if not dry_run:
        rows = _rows(str(tmp_path / "scan.csv"))
        assert len({r["b_gauss"] for r in rows}) == 10


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


def test_larmor_dist_default_bins_stay_few(tmp_path, capsys):
    # Freedman-Diaconis alone made 196,172 edges here: the NV mS=0 branch
    # is so tightly bunched that the pooled IQR is tiny.
    code, _, _ = _run(["larmor-dist", "--seed", "0", "--out", str(tmp_path)],
                      capsys)
    assert code == 0
    payload = json.loads((tmp_path / "larmor_dist.json").read_text())
    assert 2 <= len(payload["bin_edges_hz"]) <= 33


def test_larmor_dist_keeps_fd_bins_selectable(tmp_path, capsys):
    code, _, _ = _run(["larmor-dist", "--n-spins", "20", "--bins", "fd",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "larmor_dist.json").read_text())
    pooled = [f for br in payload["branches"] for f in br["frequencies_hz"]]
    assert payload["bin_edges_hz"] == \
        np.histogram_bin_edges(pooled, bins="fd").tolist()


@pytest.mark.parametrize("argv,message", [
    (["--min-radius", "nan"], "min_radius must be finite"),
    (["--min-radius", "-1"], "min_radius must be finite"),
    (["--n-spins", "-1"], "n_spins must be an integer of at least 0, not -1"),
    (["--abundance", "0"], "abundance must lie in"),
    (["--abundance", "nan"], "abundance must lie in"),
    (["--n-spins", "0"], "bath must be non-empty")])
def test_larmor_dist_dry_run_validates_the_bath(capsys, argv, message):
    # the same rules as generate_bath, before the dry run returns
    code, out, err = _run(["larmor-dist", *argv, "--dry-run"], capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("placement", [[], ["--continuum"]],
                         ids=["lattice", "continuum"])
@pytest.mark.parametrize("command", ["echo", "scan", "larmor-dist"])
def test_dry_run_checks_the_site_budget(tmp_path, capsys, monkeypatch,
                                        command, placement):
    argv = [command, "--n-spins", "100000000", *placement]
    # the run fails on the site budget, checked before any site
    code, out, run_err = _run([*argv, "--out", str(tmp_path / "run")], capsys)
    assert code == 2
    assert out == ""
    assert "above the budget" in run_err

    def no_sites(*args):
        pytest.fail("a bath was generated")

    monkeypatch.setattr("spinbath.bathgen._lattice_shells", no_sites)
    monkeypatch.setattr("spinbath.bathgen._continuum_points", no_sites)
    code, out, err = _run([*argv, "--dry-run"], capsys)
    assert code == 2
    assert out == ""
    assert err == run_err


def _no_sites(monkeypatch):
    def no_sites(*args):
        pytest.fail("a bath was generated")

    monkeypatch.setattr("spinbath.bathgen._lattice_shells", no_sites)
    monkeypatch.setattr("spinbath.bathgen._continuum_points", no_sites)


@pytest.mark.parametrize("argv", [
    ["echo", "--abundance", "1e-320"],
    ["echo", "--min-radius", "1e103"],
    ["echo", "--min-radius", "1e103", "--continuum"],
    ["larmor-dist", "--abundance", "1e-320"]],
    ids=["abundance", "radius", "radius-continuum", "larmor-abundance"])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry"])
def test_a_first_ball_past_any_float_is_over_the_budget(
        tmp_path, capsys, monkeypatch, argv, dry_run):
    # an infinite first radius, or one whose cube overflows, is refused
    # with the budget's message before any site is drawn
    _no_sites(monkeypatch)
    code, out, err = _run([*argv, *dry_run, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert "above the budget" in err


@pytest.mark.parametrize("bins,message", [
    ("0", "must be positive"), ("foo", "not a valid estimator"),
    ("-3", "not a valid estimator"), ("2000000", "at most 1048576")])
def test_larmor_dist_checks_its_bins_before_any_bath(tmp_path, capsys,
                                                     monkeypatch, bins,
                                                     message):
    _no_sites(monkeypatch)
    code, out, err = _run(["larmor-dist", "--n-spins", "20", "--bins", bins,
                           "--dry-run"], capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_larmor_dist_writes_a_bin_count_as_before(tmp_path, capsys):
    code, _, _ = _run(["larmor-dist", "--n-spins", "20", "--bins", "7",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "larmor_dist.json").read_text())
    assert payload["metadata"]["bins"] == "7"
    pooled = [f for br in payload["branches"] for f in br["frequencies_hz"]]
    edges = np.histogram_bin_edges(pooled, bins=7)
    assert payload["bin_edges_hz"] == edges.tolist()
    assert [br["counts"] for br in payload["branches"]] == [
        np.histogram(br["frequencies_hz"], bins=edges)[0].tolist()
        for br in payload["branches"]]


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


@pytest.mark.parametrize("argv,message", [
    (["--ppm", "-1"], "density must be positive and finite"),
    (["--td", "0"], "t_d must be positive and finite"),
    (["--r", "0"], "separation must be positive and finite"),
    (["--b", "-1"], "field must be finite and ≥ 0"),
    ([], "nothing to compute"),
    (["--ppm", "0.2", "--k", "172"], "k is too large"),
    (["--r", "1e200", "--theta-deg", "0"], "with a float cube"),
    (["--r", "1e-200", "--theta-deg", "0"], "with a float cube")],
    ids=["ppm", "td", "r", "b", "no-input", "k-overflow", "r-overflow",
         "r-underflow"])
def test_stats_dry_run_checks_what_stats_checks(capsys, argv, message):
    code, out, run_err = _run(["stats", *argv], capsys)
    assert code == 2
    assert out == ""
    assert message in run_err and run_err.count("\n") == 1
    code, out, err = _run(["stats", *argv, "--dry-run"], capsys)
    assert code == 2
    assert out == ""
    assert err == run_err


@pytest.mark.parametrize("argv", [
    ["--ppm", "nan"], ["--ppm", "inf"], ["--r", "nan", "--theta-deg", "30"],
    ["--r", "inf"], ["--r", "16.9", "--theta-deg", "nan"],
    ["--r", "16.9", "--angular-factor", "inf"], ["--td", "nan"],
    ["--td", "inf"], ["--td", "5e-318"], ["--r", "1e-5", "--angular-factor",
                                          "1e300"]])
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


@pytest.mark.parametrize("kind", ["directory", "missing"])
@pytest.mark.parametrize("command", [
    ["parse"], ["echo", "--dry-run", "--sequence"],
    ["scan", "--dry-run", "--sequence"]], ids=["parse", "echo", "scan"])
def test_a_seq_spec_names_a_file_that_must_be_read(tmp_path, capsys, command,
                                                    kind):
    # one rule for every command: a spec ending in .seq is a file
    path = tmp_path / "x.seq"
    if kind == "directory":
        path.mkdir()
    code, out, err = _run([*command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("cannot read sequence file: ")
    assert err.count("\n") == 1


def test_only_a_seq_spec_is_read_as_a_file(tmp_path, capsys):
    path = tmp_path / "prog.seq"
    path.write_text("pi/2(x) - tau - pi(y) - tau - pi/2(x)\n")
    code, out, _ = _run(["echo", "--dry-run", "--sequence", str(path)], capsys)
    assert code == 0
    assert _dry_run_config(out)["resolved_simulation"]["sequence"] == \
        "pi/2(x) - tau - pi(y) - tau - pi/2(x)"
    # any other path is sequence text
    other = tmp_path / "prog.txt"
    other.write_text("pi(x)\n")
    code, out, err = _run(["parse", str(other)], capsys)
    assert code == 2
    assert out == "" and "unexpected" in err


def test_parse_error_exit_code(capsys):
    code, out, err = _run(["parse", "pi(z) - tau"], capsys)
    assert code == 2
    assert out == ""
    assert "unknown axis 'z'" in err


def test_parse_rejects_a_pulse_target(capsys):
    code, out, err = _run(["parse", "pi(x)@target"], capsys)
    assert code == 2
    assert out == ""
    assert "unexpected character '@' at 1:6" in err


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


def _write_config(tmp_path, values: dict) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    return str(cfg)


def test_config_strings_are_parsed_like_flags(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"g": "3", "n_spins": "12", "b": "47",
                                   "abundance": "0.02"})
    code, out, _ = _run(["echo", "--config", cfg, "--dry-run"], capsys)
    assert code == 0
    resolved = _dry_run_config(out)
    assert (resolved["g"], resolved["n_spins"]) == (3, 12)
    assert (resolved["b"], resolved["abundance"]) == (47.0, 0.02)
    assert resolved["resolved_simulation"]["g"] == 3


@pytest.mark.parametrize("values,message", [
    ({"g": "x"}, "argument --g: invalid int value: 'x'"),
    ({"b": "strong"}, "argument --b: invalid float value: 'strong'"),
    ({"g": 3.5}, "argument --g: invalid int value: '3.5'"),
    ({"n_spins": 12.5}, "argument --n-spins: invalid int value: '12.5'")])
def test_config_value_its_flag_rejects_is_a_usage_error(tmp_path, capsys,
                                                        values, message):
    cfg = _write_config(tmp_path, values)
    with pytest.raises(SystemExit) as exc:
        main(["echo", "--config", cfg, "--dry-run"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_numbers_go_through_their_flags_type(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"g": 2, "n_spins": 12, "b": 47,
                                   "abundance": 0.02, "seed": 5,
                                   "min_radius": None, "no_nn": True})
    code, out, _ = _run(["echo", "--config", cfg, "--dry-run"], capsys)
    assert code == 0
    resolved = _dry_run_config(out)
    assert (resolved["g"], resolved["n_spins"], resolved["seed"]) == (2, 12, 5)
    assert resolved["b"] == 47.0 and isinstance(resolved["b"], float)
    assert resolved["abundance"] == 0.02
    assert resolved["min_radius"] is None and resolved["no_nn"] is True


def test_config_number_for_a_text_flag_is_parsed_as_its_text(tmp_path,
                                                             capsys):
    cfg = _write_config(tmp_path, {"tau": 5})
    code, out, err = _run(["echo", *_SMALL[:4], "--config", cfg,
                           "--out", str(tmp_path / "never")], capsys)
    assert code == 2
    assert "tau must be start:stop:count" in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("command",
                         ["spectrum", "scan", "larmor-dist", "stats"])
def test_config_field_vector_is_refused_where_the_field_is_a_number(
        tmp_path, capsys, command):
    cfg = _write_config(tmp_path, {"b": [0, 0, 72]})
    code, out, err = _run([command, "--config", cfg,
                           "--out", str(tmp_path / "never")], capsys)
    assert code == 2
    assert out == ""
    assert "config key 'b' takes a string, a number" in err
    assert not (tmp_path / "never").exists()


def test_config_field_vector_stays_accepted(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"b": [0.0, 0.0, 72.0]})
    code, _, _ = _run(["echo", *_SMALL, "--config", cfg,
                       "--out", str(tmp_path / "vec")], capsys)
    assert code == 0
    _run(["echo", *_SMALL, "--out", str(tmp_path / "z")], capsys)
    assert ((tmp_path / "vec" / "echo.csv").read_bytes()
            == (tmp_path / "z" / "echo.csv").read_bytes())


@pytest.mark.parametrize("dry_run", [True, False])
def test_config_format_is_checked_before_any_work(tmp_path, capsys, dry_run):
    cfg = _write_config(tmp_path, {"format": "xml"})
    target = tmp_path / "never_created"
    argv = ["--dry-run"] if dry_run else ["--out", str(target)]
    code, out, err = _run(["echo", *_SMALL, "--config", cfg, *argv], capsys)
    assert code == 2
    assert out == ""
    assert "unknown format 'xml'" in err
    assert not target.exists()


@pytest.mark.parametrize("values,message", [
    ({"continuum": "false"}, "config key 'continuum' takes true or false"),
    ({"no_nn": 0}, "config key 'no_nn' takes true or false"),
    ({"g": None}, "config key 'g' takes a string, a number, not null"),
    ({"threads": None}, "config key 'threads' takes a string, a number, "
                        "not null"),
    ({"out": True}, "config key 'out' takes a string, a number or null, "
                    "not true"),
    ({"n": True, "sequence": "cpmg"}, "config key 'n' takes a string, a "
                                      "number or null, not true"),
    ({"seed": True}, "config key 'seed' takes a string, a number, not true")])
def test_config_value_of_the_wrong_kind_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, values, message):
    def no_bath(*args, **kwargs):
        pytest.fail("a bath was generated")

    monkeypatch.setattr("spinbath.bathgen.generate_bath", no_bath)
    cfg = _write_config(tmp_path, values)
    target = tmp_path / "never_created"
    code, out, err = _run(["echo", *_SMALL, "--config", cfg,
                           "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert message in err
    assert not target.exists()


# The removed deer preset and @target suffix, with the parser's message.
_TARGETED = {
    "deer": "unexpected token 'deer' at 1:1",
    "pi/2(x) - tau - pi(x)@nitrogen - tau - pi/2(x)":
        "unexpected character '@' at 1:22",
}


@pytest.mark.parametrize("sequence", list(_TARGETED))
@pytest.mark.parametrize("command", ["echo", "scan"])
@pytest.mark.parametrize("dry_run", [True, False])
def test_target_pulses_are_rejected_before_any_work(tmp_path, capsys,
                                                    monkeypatch, sequence,
                                                    command, dry_run):
    def no_bath(*args, **kwargs):
        pytest.fail("a bath was generated")

    monkeypatch.setattr("spinbath.bathgen.generate_bath", no_bath)
    target = tmp_path / "never_created"
    argv = ["--dry-run"] if dry_run else ["--out", str(target)]
    code, out, err = _run([command, *_SMALL, "--sequence", sequence, *argv],
                          capsys)
    assert code == 2
    assert out == ""
    assert _TARGETED[sequence] in err
    assert not target.exists()


@pytest.mark.parametrize("argv,where", [
    (["parse", "pi/2(x) - 1e400us - pi/2(x)"], "1:11"),
    (["echo", "--sequence", "1e400us", "--n-baths", "1", "--tau", "0:1us:2"],
     "1:1"),
], ids=["parse", "echo"])
def test_non_finite_delay_is_rejected_before_any_work(tmp_path, capsys,
                                                     monkeypatch, argv, where):
    def no_bath(*args, **kwargs):
        pytest.fail("a bath was generated")

    monkeypatch.setattr("spinbath.bathgen.generate_bath", no_bath)
    target = tmp_path / "never_created"
    out_args = ["--out", str(target)] if argv[0] == "echo" else []
    code, out, err = _run([*argv, *out_args], capsys)
    assert code == 2
    assert out == ""
    assert f"delay must be finite at {where}" in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["echo", "--b", "0", "--m-i", "0"],
    ["scan", "--b", "72,0", "--m-i", "0"],
    ["scan", "--b", "72,0", "--m-i", "thermal"],
], ids=["echo", "scan", "scan-thermal"])
@pytest.mark.parametrize("dry_run", [True, False])
def test_unaddressable_probed_pair_is_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, argv, dry_run):
    def no_bath(*args, **kwargs):
        pytest.fail("a bath was generated")

    monkeypatch.setattr("spinbath.bathgen.generate_bath", no_bath)
    target = tmp_path / "never_created"
    code, out, err = _run([*argv, *_SMALL, "--out", str(target),
                           *(["--dry-run"] if dry_run else [])], capsys)
    assert code == 2
    assert out == ""
    assert ("no eigenstate is dominantly labeled (0.5, 0) at this field; "
            "state mixing leaves the probed pair unaddressable") in err
    assert not target.exists()


@pytest.mark.parametrize("argv,message", [
    (["--m-i", "thermal"],
     "thermal nitrogen has no single level pair; fix m_i first"),
    (["--m-i", "0", "--b", "0"],
     "no eigenstate is dominantly labeled (0.5, 0) at this field; "
     "state mixing leaves the probed pair unaddressable"),
], ids=["thermal", "b0"])
@pytest.mark.parametrize("dry_run", [True, False])
def test_larmor_dist_rejects_an_unaddressable_pair_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message, dry_run):
    def no_bath(*args, **kwargs):
        pytest.fail("a bath was generated")

    monkeypatch.setattr("spinbath.cli.generate_bath", no_bath)
    target = tmp_path / "never_created"
    code, out, err = _run(["larmor-dist", "--central", "p1", *argv,
                           "--n-spins", "12", "--seed", "3",
                           "--out", str(target),
                           *(["--dry-run"] if dry_run else [])], capsys)
    assert code == 2
    assert out == ""
    assert message in err
    assert not target.exists()


_OVERFLOW = "field must be finite, and |b_x| + |b_y| + |b_z| below about 6.41e+301 G"
_SITES = "candidate sites, above the budget of 1e+07"

# Refusals, each with a fragment of its one line on stderr.  A dict in argv
# is written to a config file and replaced by its path; "dir.seq" names a
# directory.
_REFUSALS = [
    pytest.param(argv, message, id=name) for name, argv, message in [
        ("echo-unaddressable", ["echo", "--b", "0", "--m-i", "0"],
         "state mixing leaves the probed pair unaddressable"),
        ("echo-deer", ["echo", "--sequence", "deer"],
         "unexpected token 'deer' at 1:1"),
        ("parse-target", ["parse", "pi(x)@target"],
         "unexpected character '@' at 1:6"),
        ("parse-inf-delay", ["parse", "pi/2(x) - 1e400us - pi/2(x)"],
         "delay must be finite at 1:11"),
        ("echo-tau-inf", ["echo", "--tau", "0:1e400us:3"],
         "time value '1e400us' must be finite"),
        ("echo-tau-span", ["echo", "--tau=-1e308s:1e308s:3"],
         "tau_grid entries must be non-negative and finite"),
        ("scan-field-inf", ["scan", "--b", "0:inf:3"], "field must be finite"),
        ("scan-field-span", ["scan", "--b=-1e308:1e308:3"], _OVERFLOW),
        ("echo-tau-count", ["echo", "--tau", "0:30us:1000000000000"],
         "tau count must be 1 to 1048576, not 1000000000000"),
        ("scan-field-count", ["scan", "--b", "40:110:100000000"],
         "field count must be at most 1048576, not 100000000"),
        ("echo-phase", ["echo", "--sequence", "pi/2(x) - 1e300us - pi/2(x)"],
         "fp64 no longer resolves it to 1e-6 rad"),
        ("echo-tau-divisor", ["echo", "--sequence", "pi/2(x) - tau/1"
                              + "0" * 400 + " - pi/2(x)"],
         "tau divisor must be at most 1.8e308, the largest float at 1:15"),
        ("echo-1e12-pulses", ["echo", "--sequence",
                              "pi/2(x) - [pi(x)]^1000000000000 - tau - pi/2(x)"],
         "the program unrolls to 1e+12 pulses and delays"),
        ("echo-400-zeros", ["echo", "--sequence", "pi/2(x) - [tau - pi(x) - "
                            "tau]^1" + "0" * 400 + " - pi/2(x)"],
         "the program unrolls to 2^1330 pulses and delays"),
        ("echo-g-40", ["echo", "--g", "40"], "a group may take"),
        ("echo-tau-1e6", ["echo", "--tau", "0:30us:1000000"],
         "a group may take"),
        ("spectrum-jt", ["spectrum", "--jt", "sideways"],
         "unknown orientation label 'sideways'"),
        ("larmor-thermal", ["larmor-dist", "--central", "p1", "--m-i",
                            "thermal"],
         "thermal nitrogen has no single level pair; fix m_i first"),
        ("config-flag-text", ["echo", "--config", {"continuum": "false"}],
         "config key 'continuum' takes true or false, not \"false\""),
        ("config-scan-vector", ["scan", "--config", {"b": [0, 0, 72]}],
         "config key 'b' takes a string, a number, not [0, 0, 72]"),
        ("config-field-list", ["scan", "--config",
                               {"b": ",".join(["72"] * ((1 << 20) + 1))}],
         "field count must be at most 1048576, not 1048577"),
        ("echo-sites", ["echo", "--n-spins", "100000000"], _SITES),
        ("stats-ppm", ["stats", "--ppm", "-1"],
         "density must be positive and finite"),
        ("stats-td-tiny", ["stats", "--td", "5e-318"],
         "t_d must be positive and finite, with a finite kappa / t_d"),
        ("stats-coupling", ["stats", "--r", "1e-5", "--angular-factor",
                            "1e300"],
         "theta and angular_factor must be finite, with a finite coupling"),
        ("echo-abundance", ["echo", "--abundance", "1e-320"], _SITES),
        ("echo-radius", ["echo", "--min-radius", "1e103"], _SITES),
        ("echo-radius-continuum", ["echo", "--min-radius", "1e103",
                                   "--continuum"], _SITES),
        ("echo-zeeman", ["echo", "--b", "1e308"], _OVERFLOW),
        ("scan-zeeman", ["scan", "--b", "1e308"], _OVERFLOW),
        ("spectrum-zeeman", ["spectrum", "--b", "1e308"], _OVERFLOW),
        ("larmor-zeeman", ["larmor-dist", "--b", "1e308"], _OVERFLOW),
        ("stats-zeeman", ["stats", "--b", "1e308"], _OVERFLOW),
        ("larmor-bins", ["larmor-dist", "--bins", "0"],
         "`bins` must be positive, when an integer"),
        ("parse-seq-dir", ["parse", "dir.seq"], "cannot read sequence file: "),
        ("echo-seq-dir", ["echo", "--sequence", "dir.seq"],
         "cannot read sequence file: "),
        ("stats-k", ["stats", "--ppm", "0.2", "--k", "172"],
         "k is too large: the mean distance overflows a float"),
        ("larmor-empty", ["larmor-dist", "--n-spins", "0"],
         "bath must be non-empty"),
        ("larmor-seed", ["larmor-dist", "--seed", "-1"],
         "seed must be an integer of at least 0, not -1"),
        # argparse before 3.13 reads a value of '--' as [], past the flag's
        # type; from 3.13 as the text '--', which m_i refuses the same way
        ("echo-double-dash", ["echo", "--m-i=--"], "bad m_i '--'"),
    ]]


@pytest.mark.parametrize("argv, message", _REFUSALS)
def test_refusals_exit_2_with_one_line_as_their_dry_runs_do(tmp_path, capsys,
                                                             argv, message):
    (tmp_path / "dir.seq").mkdir()
    config = tmp_path / "config.json"
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
            argv = [*argv[:k], str(config), *argv[k + 1:]]
        elif arg == "dir.seq":
            argv = [*argv[:k], str(tmp_path / arg), *argv[k + 1:]]
    target = tmp_path / "never_created"
    # parse has no --dry-run and no --out
    runs = ([argv] if argv[0] == "parse" else
            [[*argv, "--out", str(target)], [*argv, "--dry-run"]])
    errs = set()
    for run in runs:
        code, out, err = _run(run, capsys)
        assert code == 2 and out == ""
        assert message in err and err.count("\n") == 1
        errs.add(err)
    assert len(errs) == 1  # the dry run refuses with its run's line
    assert not target.exists()


# ---------------------------------------------------------------------------
# drawn argv: every flag of a command, from its parser

_FLOAT_TOKENS = st.one_of(
    st.floats().map(repr),  # the whole line: NaN, ±inf, ±0, subnormals
    st.sampled_from(["-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "1e309",
                     "72", "0.011", "1"]))
_INT_TOKENS = st.sampled_from([-2 ** 63, -1, 0, 1, 2, 3, 4, 8, 12, 2 ** 20,
                               2 ** 20 + 1, 2 ** 31, 2 ** 63, 2 ** 64,
                               10 ** 400]).map(str)
_MALFORMED = st.sampled_from(["", " ", "abc", "1e", "--", ":", ",", "nan:",
                              "1" + "0" * 400, "µs", "x.seq"])
_COUNT_TOKENS = st.one_of(st.integers(0, 5).map(str), _INT_TOKENS, _MALFORMED)
_TIME_TOKENS = st.one_of(
    st.tuples(_FLOAT_TOKENS, st.sampled_from(["", "us", "ns", "s"])).map(
        "".join),
    _MALFORMED)
_SEQUENCES = st.sampled_from([
    "hahn", "cpmg", "XY8", "pi/2(x) - tau - pi/2(x)",
    "pi/2(x) - tau/3 - pi(y) - 1us - pi/2(-x)", "[tau - pi(x) - tau]^3",
    "pi/2(x) - [tau - pi(x) - tau]^1000000 - pi/2(x)", "pi(z)", "[tau]^0",
    "tau/0", "pi/2(x) - 1e308s - pi/2(x)", "pi(x) - 1e-320ns - pi(x)",
    "bogus", "missing.seq"])
# the flags that take text, by dest: valid, number-like and malformed tokens
_TEXT_TOKENS = {
    "tau": st.one_of(
        st.tuples(_TIME_TOKENS, _TIME_TOKENS, _COUNT_TOKENS).map(":".join),
        st.sampled_from(["0:8us:5", "0:30us:4", "0:0:1", "1e-3us:2us:3"]),
        _MALFORMED),
    "sequence": _SEQUENCES,
    "sequence_text": _SEQUENCES,
    "m_i": st.one_of(st.sampled_from(["-1", "0", "1", "thermal", "THERMAL",
                                      "2", "1.0", "-0"]), _MALFORMED),
    "jt": st.one_of(st.sampled_from(["on-axis", "off-axis", "off-axis-3",
                                     "all", "off-axis-4", "ON-AXIS"]),
                    _MALFORMED),
    "bins": st.one_of(_COUNT_TOKENS, st.sampled_from(["auto", "fd", "-1"])),
    # scan's field list
    "b": st.one_of(
        st.lists(_FLOAT_TOKENS, min_size=1, max_size=3).map(",".join),
        st.tuples(_FLOAT_TOKENS, _FLOAT_TOKENS,
                  st.sampled_from(["0", "1", "3", "-1", "1048577", "1.5"])
                  ).map(":".join),
        _MALFORMED),
}
# the flags that make a run small enough to make too: one bath of at most 8
# spins on at most 5 taus, and one field (a float, or scan's list of one)
_SMALL_TOKENS = {
    "n_baths": st.just("1"), "n_spins": st.integers(0, 8).map(str),
    "tau": st.builds("0:{}us:{}".format, st.sampled_from(["0", "8", "30"]),
                     st.integers(1, 5)),
    "b": st.sampled_from(["72", "32", "100"])}


@st.composite
def _argv(draw, command):
    """A command's argv: up to three of its flags absent or drawn from every
    kind of value, the others small (_SMALL_TOKENS), absent or, for an on/off
    flag or one with choices, any valid value.  A value goes as
    --flag=value, so that one starting with '-' stays a value."""
    parser, sub = cli._build_parser()
    actions = [a for a in sub.choices[command]._actions
               if a.dest not in ("help", "out", "config", "dry_run")]
    wild = draw(st.sets(st.sampled_from([a.dest for a in actions]),
                        max_size=3))
    argv = [command]
    for action in actions:
        if not action.option_strings:  # parse's sequence text
            argv.append(draw(_TEXT_TOKENS[action.dest].filter(
                lambda t: not t.startswith("-"))))
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # on/off
            if draw(st.booleans()):
                argv.append(flag)
            continue
        if action.choices is not None:
            values = st.none() | st.sampled_from(list(action.choices))
        elif action.dest not in wild:
            values = _SMALL_TOKENS.get(action.dest, st.none())
        elif action.type is float:
            values = st.none() | _FLOAT_TOKENS
        elif action.type is int:
            values = st.none() | _INT_TOKENS
        else:
            values = st.none() | _TEXT_TOKENS.get(action.dest, _MALFORMED)
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _small(resolved: dict) -> bool:
    """Whether a dry run's resolved flags make a run of a second or less:
    one bath of at most 8 spins in groups of at most 4, on at most 5 taus
    and 3 fields, out of few candidate sites."""
    if resolved["command"] not in ("echo", "scan", "larmor-dist"):
        return True
    return (resolved.get("n_baths", 1) == 1 and resolved["n_spins"] <= 8
            and resolved.get("g", 1) <= 4
            and int(resolved.get("tau", "::1").split(":")[2]) <= 5
            and len(resolved.get("fields_gauss", ())) <= 3
            and resolved["abundance"] >= 1e-3
            and (resolved["min_radius"] or 0.0) <= 2.0)


@pytest.mark.parametrize("command", ["spectrum", "echo", "scan",
                                     "larmor-dist", "stats", "parse",
                                     "dump-constants"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_argv_exits_0_or_2_with_one_line(command, data):
    argv = data.draw(_argv(command))
    dry = command not in ("parse", "dump-constants")
    code, out, err = _main([*argv, "--dry-run"] if dry else argv)
    event(f"exit {code}")
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.strip(), err
    else:
        assert err == ""
    if not dry:
        return
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out")
        if code == 2:  # the run refuses with its dry run's line
            assert _main([*argv, "--out", target]) == (2, "", err)
            assert not os.path.exists(target)
        elif _small(_dry_run_config(out)):
            event("small run")
            run_code, _, run_err = _main([*argv, "--out", target])
            assert (run_code, run_err) == (0, "")


def test_config_sets_store_true_flags_and_flags_still_win(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"no_nn": True, "continuum": True,
                                   "include_baths": True, "seed": 5})
    code, out, _ = _run(["echo", "--config", cfg, "--seed", "7", "--dry-run"],
                        capsys)
    assert code == 0
    resolved = _dry_run_config(out)
    assert resolved["no_nn"] and resolved["continuum"]
    assert resolved["include_baths"]
    assert resolved["seed"] == 7
    assert resolved["resolved_simulation"]["include_nn"] is False
    assert resolved["resolved_simulation"]["lattice"] is False
    code, out, _ = _run(["echo", "--dry-run"], capsys)
    resolved = _dry_run_config(out)
    assert not (resolved["no_nn"] or resolved["continuum"]
                or resolved["include_baths"])


def test_larmor_dist_keeps_its_central_default_under_a_config(tmp_path,
                                                               capsys):
    cfg = _write_config(tmp_path, {"n_spins": 10})
    code, out, _ = _run(["larmor-dist", "--config", cfg, "--dry-run"], capsys)
    assert code == 0
    resolved = _dry_run_config(out)
    assert resolved["central"] == "nv"
    assert resolved["n_spins"] == 10


def test_stats_out_prints_results_then_the_file(tmp_path, capsys):
    code, out, _ = _run(["stats", "--td", "70", "--b", "72",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == str(tmp_path / "stats.json")
    payload = json.loads((tmp_path / "stats.json").read_text())
    printed = [line.split(" ")[0] for line in lines[:-1]]
    assert printed == list(payload["results"])
    assert payload["command"] == "stats"
    assert "command" not in payload["inputs"]


@pytest.mark.parametrize("command", ["spectrum", "echo", "scan", "larmor-dist",
                                     "stats", "parse", "dump-constants"])
def test_help_exits_0_for_every_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: spinbath {command}" in capsys.readouterr().out


def test_out_env_var_used_when_no_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPINBATH_OUT", str(tmp_path))
    code, out, _ = _run(["spectrum", "--format", "json"], capsys)
    assert code == 0
    assert (tmp_path / "spectrum.json").exists()
    assert out.strip().splitlines() == [str(tmp_path / "spectrum.json")]


# Runs a command in a child and prints its exit code and its own peak RSS
# (ru_maxrss from os.wait4, in KiB on Linux).  It runs in a fresh
# interpreter: a child forked straight from the test process would carry
# that process's peak across exec into its ru_maxrss.
_PEAK_SCRIPT = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "spinbath.cli", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def test_g5_echo_peak_memory_stays_under_100_mb(tmp_path):
    # A dense (terms, D, D) operator cache took this run to 145 MB.
    src = os.path.dirname(os.path.dirname(spinbath.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, "echo", "--g", "5", "--n-baths",
         "1", "--tau", "0:30us:5", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert (tmp_path / "echo.csv").exists()
    assert peak_kib / 1024 <= 100.0


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(spinbath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    # the package needs numpy alone; scipy comes with the test extra
    proc = _run_python(
        "import sys, spinbath.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # only --threads > 1 uses a thread pool; every command would pay its import
    proc = _run_python(
        "import sys, spinbath.cli; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_hashlib_unloaded():
    # only bath seeding hashes; dry runs and the other commands skip OpenSSL
    proc = _run_python(
        "import sys, spinbath.cli; print('_hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


# Runs main(argv) twice, counting the calls of gc.freeze.  The probe is
# registered first, so it runs last at exit (atexit calls its handlers last
# in, first out): after main's gc.freeze.
_FREEZE_SCRIPT = """
import atexit, gc, sys
freeze, calls = gc.freeze, []
gc.freeze = lambda: calls.append(freeze())
atexit.register(lambda: print("at exit", len(calls), gc.get_freeze_count()))
from spinbath.cli import main
codes = [main(sys.argv[1:]) for _ in range(2)]
print("before exit", gc.get_freeze_count())
sys.exit(max(codes))
"""


@pytest.mark.parametrize("argv", [
    ["echo", "--dry-run"],
    ["echo", "--n-spins", "12", "--n-baths", "1", "--tau", "0:8us:5"]],
    ids=["dry-run", "one-bath"])
def test_exit_freezes_the_heap_once_and_keeps_the_outputs(tmp_path, capsys,
                                                         argv):
    # the interpreter's final collections skip a frozen heap; a second call
    # of main registers no second freeze, and the outputs are those of a run
    # in this process, which does not exit
    child, here = str(tmp_path / "child"), str(tmp_path / "here")
    proc = _run_python(_FREEZE_SCRIPT, *argv, "--out", child)
    assert proc.returncode == 0, proc.stderr
    *out, before, after = proc.stdout.splitlines()
    assert before == "before exit 0"
    name, freezes, frozen = after.rsplit(" ", 2)
    assert (name, freezes) == ("at exit", "1") and int(frozen) > 0
    code, text, _ = _run([*argv, "--out", here], capsys)
    assert code == 0
    assert "\n".join(out) + "\n" == 2 * text.replace(here, child)
    if "--dry-run" not in argv:
        assert (tmp_path / "child" / "echo.csv").read_bytes() \
            == (tmp_path / "here" / "echo.csv").read_bytes()
    # in process, many calls leave at most the one registration
    slots = atexit._ncallbacks()
    for _ in range(200):
        assert main(["parse", "tau"]) == 0
    assert atexit._ncallbacks() <= slots + 1
    capsys.readouterr()
