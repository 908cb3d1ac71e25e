"""Every output file of the five pipelines, manifests included, equals the
committed reference under ``tests/reference/`` byte for byte (see
``regenerate_reference.py`` for the jobs and for how to regenerate it).

The reference holds for the numpy build it was written with: matmul and
libm rounding can differ on another, so a mismatch names the numpy and
Python versions of both sides.
"""

import json
import re

import numpy as np
import pytest

from regenerate_reference import REFERENCE, VERSIONS, run_pipelines, versions


def _first_difference(got, want):
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    for k, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {k}: got {a!r}, reference {b!r}"
    k = min(len(got_lines), len(want_lines)) + 1
    return f"line {k}: got {len(got_lines)} lines, reference {len(want_lines)}"


# a number that is not part of a name or a longer number: CSV cells, JSON values
_NUMBER = re.compile(rb"(?<![\w.])(?:-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity)(?!\w)")


def _largest_change(got, want):
    """The largest absolute and relative change between the numbers of two
    files, paired in order of appearance."""
    got, want = _NUMBER.findall(got), _NUMBER.findall(want)
    if len(got) != len(want):
        return f"{len(got)} numbers, reference {len(want)}"
    moved = [(float(a), float(b)) for a, b in zip(got, want) if a != b]
    if not moved:
        return "no number changed"
    a, b = np.array(moved).T
    change = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(change == 0.0, 0.0, change / np.abs(b))
    return (f"largest change {np.nanmax(change):.3g} absolute, "
            f"{np.nanmax(relative):.3g} relative")


def test_largest_change_pairs_the_numbers_of_two_files():
    want = b't,x,y\n1.0,2.5,-4e-05\n{"gamma1": 0.25, "sha": "3f2a"}\n'
    got = want.replace(b"2.5", b"2.6").replace(b"-4e-05", b"-4.2e-05")
    assert _largest_change(got, want) == "largest change 0.1 absolute, 0.05 relative"
    assert _largest_change(want.replace(b"0.25", b"0.5"), want) == (
        "largest change 0.25 absolute, 1 relative")
    assert _largest_change(want, want) == "no number changed"
    assert _largest_change(want + b"7\n", want) == "5 numbers, reference 4"


def test_pipeline_outputs_equal_the_reference_byte_for_byte(tmp_path):
    files = run_pipelines(tmp_path)
    want = {p.relative_to(REFERENCE).as_posix(): p.read_bytes()
            for p in sorted(REFERENCE.rglob("*")) if p.is_file() and p != REFERENCE / VERSIONS}
    recorded = json.loads((REFERENCE / VERSIONS).read_text())
    here = versions()
    note = (f"reference written with numpy {recorded['numpy']} and Python "
            f"{recorded['python']}; this run has numpy {here['numpy']} and Python "
            f"{here['python']}")
    assert sorted(files) == sorted(want), (
        f"missing {sorted(set(want) - set(files))}, unexpected "
        f"{sorted(set(files) - set(want))}; {note}")
    moved = [f"{rel}, {_first_difference(data, want[rel])}; "
             f"{_largest_change(data, want[rel])}"
             for rel, data in files.items() if data != want[rel]]
    if moved:
        pytest.fail(f"{len(moved)} output file(s) differ from the reference ({note}):\n"
                    + "\n".join(moved))
