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
        shift = largest_shift(name, want[name], text)
        assert shift <= TOLERANCE, f"{case}/{name} shifted by {shift:.3g}"


def test_the_comparison_allows_only_float_shifts():
    csv_text = "tau_us,signal,kind\n0,1,a\n1.5,0.25,b\n"
    assert largest_shift("x.csv", csv_text, csv_text) == 0.0
    moved = csv_text.replace("0.25", "0.25000000000005")
    assert largest_shift("x.csv", csv_text, moved) == pytest.approx(5e-14)
    for changed in (csv_text.replace(",b", ",c"),
                    csv_text.replace("0.25", "nan"),
                    csv_text + "2,0,c\n",
                    csv_text.replace(",b", ",b,")):
        assert largest_shift("x.csv", csv_text, changed) == math.inf
    text = '{"exit": 2, "stderr": "one line\\n", "signal": [1.0, NaN]}'
    assert largest_shift("run.json", text, text.replace("1.0", "1")) == 0.0
    assert largest_shift("run.json", text,
                         text.replace("1.0", "0.999")) == pytest.approx(1e-3)
    for changed in (text.replace("2,", "1,"), text.replace("one", "two"),
                    text.replace(", NaN", ""), text.replace("NaN", "0.0"),
                    text.replace('"exit"', '"code"')):
        assert largest_shift("run.json", text, changed) == math.inf
