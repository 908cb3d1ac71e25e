"""Every output file of the five pipelines, manifests included, equals the
committed reference under ``tests/reference/`` byte for byte (see
``regenerate_reference.py`` for the jobs and for how to regenerate it).

The reference holds for the numpy build it was written with: matmul and
libm rounding can differ on another, so a mismatch names the numpy and
Python versions of both sides.
"""

import json

import pytest

from regenerate_reference import REFERENCE, VERSIONS, run_pipelines, versions


def _first_difference(got, want):
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    for k, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {k}: got {a!r}, reference {b!r}"
    k = min(len(got_lines), len(want_lines)) + 1
    return f"line {k}: got {len(got_lines)} lines, reference {len(want_lines)}"


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
    moved = [f"{rel}, {_first_difference(data, want[rel])}"
             for rel, data in files.items() if data != want[rel]]
    if moved:
        pytest.fail(f"{len(moved)} output file(s) differ from the reference ({note}):\n"
                    + "\n".join(moved))
