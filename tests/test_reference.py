"""Every command of the reference set writes what tests/reference/ holds:
float cells within 1e-10 absolute, every other cell, stdout, stderr and
the exit code exactly.  After a change that moves numbers on purpose,
rewrite the references with tests/update_reference.py and quote the
shifts it prints."""

import math

import pytest

from update_reference import (CASES, TOLERANCE, largest_shift, read_case,
                              run_case)


@pytest.mark.parametrize("case", CASES)
def test_the_command_writes_its_reference(case):
    want, got = read_case(case), run_case(CASES[case])
    assert sorted(got) == sorted(want)
    for name, text in got.items():
        shift, where = largest_shift(name, want[name], text)
        assert shift <= TOLERANCE, \
            f"{case}/{name} shifted by {shift:.3g} {where}"


def test_the_comparison_allows_only_float_shifts():
    # a float cell's shift is its size; any other change is inf, with the
    # path of the first one
    csv_text = "tau_us,signal,kind\n0,1,a\n1.5,0.25,b\n"
    assert largest_shift("x.csv", csv_text, csv_text) == (0.0, "")
    moved = csv_text.replace("0.25", "0.25000000000005")
    assert largest_shift("x.csv", csv_text, moved) == \
        (pytest.approx(5e-14), "")
    for changed, where in ((csv_text.replace(",b", ",c"), "[2][2]"),
                           (csv_text.replace("0.25", "nan"), "[2][1]"),
                           (csv_text + "2,0,c\n", "length 3 to 4"),
                           (csv_text.replace(",b", ",b,"), "[2] length 3 to 4")):
        assert largest_shift("x.csv", csv_text, changed) == (math.inf, where)
    text = ('{"exit": 2, "stderr": "one line\\n", "signal": [1.0, NaN],'
            ' "config": {"g": 3, "lattice": true}}')
    assert largest_shift("run.json", text, text.replace("1.0", "1")) == \
        (0.0, "")
    assert largest_shift("run.json", text, text.replace("1.0", "0.999")) == \
        (pytest.approx(1e-3), "")
    for changed, where in (
            (text.replace("2,", "1,"), ".exit"),
            (text.replace("one", "two"), ".stderr"),
            (text.replace(", NaN", ""), ".signal length 2 to 1"),
            (text.replace("NaN", "0.0"), ".signal[1]"),
            (text.replace('"exit"', '"code"'), ".exit removed"),
            (text.replace(', "lattice": true', ""), ".config.lattice removed"),
            (text.replace("}}", ', "n": 1}}'), ".config.n added"),
            (text.replace('"g": 3, "lattice": true', '"lattice": true, "g": 3'),
             ".config key order")):
        assert largest_shift("run.json", text, changed) == (math.inf, where)
