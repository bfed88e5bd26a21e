"""The four reference configs' outputs against their committed digests.

`tests/golden/reference_digests.json` records the digest of every file
`scripts/reference_outputs.py run` writes, and the numpy version, platform
and machine that wrote them.  In that environment every file must keep its
SHA-256: every report byte and every field value stays the same.  Elsewhere
pocketfft's last bits may differ, so each file must keep its layout and its
float values to the relative tolerance RTOL (absolute ATOL near zero), and
the test says which comparison it made.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "reference_digests.json"
RTOL, ATOL = 1e-6, 1e-12

sys.path.insert(0, str(REPO / "scripts"))
try:
    import reference_outputs
finally:
    sys.path.remove(str(REPO / "scripts"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    reference_outputs.run(root)
    return reference_outputs.digest(root)


def test_reference_outputs_keep_their_digests(current, golden):
    if current["environment"] == golden["environment"]:
        print(f"exact SHA-256 comparison in the recorded environment {golden['environment']}")
        moved = reference_outputs.moved_files(current, golden)
    else:
        note = (f"environment {current['environment']} is not the recorded "
                f"{golden['environment']}: values compared at rtol {RTOL}, atol {ATOL}")
        print(note)
        warnings.warn(note)
        moved = reference_outputs.moved_files(current, golden, RTOL, ATOL)
    assert not moved, "reference outputs moved:\n" + "\n".join(moved)


def test_each_comparison_names_what_moved(current):
    moved = json.loads(json.dumps(current))
    moved["files"]["lab-2d/constants.json"]["values"][0] *= 1 + 10 * RTOL
    moved["files"]["sub-1d/u_bar.csv"]["sha256"] = "0" * 64
    moved["files"]["sub-1d/trace.csv"]["values"].pop()
    del moved["files"]["crit-1d/bubble.log"]
    assert reference_outputs.moved_files(current, moved, RTOL, ATOL) == [
        "crit-1d/bubble.log: only in the run",
        "lab-2d/constants.json: 1 of 14 values outside the tolerance",
        "sub-1d/trace.csv: layout differs",
    ]
    assert reference_outputs.moved_files(current, moved) == [
        "crit-1d/bubble.log: only in the run",
        "sub-1d/u_bar.csv: SHA-256 differs",
    ]
