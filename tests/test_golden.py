"""The CLI pipeline reproduces the golden outputs in `tests/golden/`.

Integers, strings, chosen groups and MAP states must match exactly, floats
to 1e-9 relative (or absolutely near zero), and the simulated data files
byte for byte; run times are not compared. `tests/golden/regenerate.py`
documents the commands and rewrites the files.
"""

import csv
import io
import json
import math

import pytest

from golden import regenerate

GOLDEN = regenerate.HERE
REL_TOL = 1e-9
ABS_TOL = 1e-12


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    regenerate.run(workdir)
    return workdir


def mismatches(want, got, where):
    """Where ``got`` differs from ``want``, one message per difference."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{where}: keys {list(want)} != {list(got)}"]
        return [
            msg
            for key in want
            if key != "runtime_s"
            for msg in mismatches(want[key], got[key], f"{where}.{key}")
        ]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [
            msg
            for i, (w, g) in enumerate(zip(want, got))
            for msg in mismatches(w, g, f"{where}[{i}]")
        ]
    if type(want) is float and type(got) is float:
        if math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL) or (
            math.isnan(want) and math.isnan(got)
        ):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


def json_documents(name, text):
    """A JSON-lines file as a list of its documents, a JSON file as one."""
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line]
    return json.loads(text)


def csv_cells(text):
    """Rows of a CSV without the run-time column; cells that parse as
    floats are floats."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    keep = [i for i, name in enumerate(rows[0]) if name != "runtime_s"]

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [[cell(row[i]) for i in keep] for row in rows]


@pytest.mark.parametrize("name", regenerate.OUTPUTS)
def test_output_matches_golden(outputs, name):
    want_bytes = (GOLDEN / name).read_bytes()
    got_bytes = (outputs / name).read_bytes()
    if name in regenerate.DATA_FILES:
        assert got_bytes == want_bytes
        return
    want, got = want_bytes.decode(), got_bytes.decode()
    if name.endswith(".csv"):
        assert got.count("\r\n") == want.count("\r\n")
        diffs = mismatches(csv_cells(want), csv_cells(got), name)
    else:
        diffs = mismatches(json_documents(name, want), json_documents(name, got), name)
    assert not diffs, "\n".join(diffs[:20])
