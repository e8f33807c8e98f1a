"""Report bodies pinned by digest: the oracle of every pure refactor.

Each value is the first 16 hex digits of the sha256 of a report body: the
report JSON with sorted keys and without ``wall_clock_s``.  The bodies hold
doubles, so the digests are the bits of the numpy and libm they were
recorded with (numpy 2.4, glibc 2.36, x86-64).  A change that moves a phase
or a measured value updates the digests here and lists every moved value,
with its size, in its CHANGES.md entry.
"""

import hashlib
import json

import pytest

from eprbell.cli import main


def _body_digest(tmp_path, argv) -> str:
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    del report["wall_clock_s"]
    body = json.dumps(report, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify-all", "--seed", "0"], "296548a10418b82d"),
        (["verify-all", "--seed", "7"], "f034f529737a1d07"),
        (["verify-all", "--seed", "0", "--state", "{regular}"], "60c70c6aa7af4d0f"),
        (["surrogate", "--dim", "2"], "fa63a5bdb4f4a172"),
        (["surrogate", "--dim", "8"], "414d861391c01a93"),
        (["surrogate", "--dim", "64"], "db19fb28f9d0c3a2"),
    ],
)
def test_report_body_digest(tmp_path, argv, digest):
    regular = tmp_path / "regular.json"
    regular.write_text(json.dumps({"kind": "regular"}))
    argv = [a.format(regular=regular) for a in argv]
    assert _body_digest(tmp_path, argv) == digest
