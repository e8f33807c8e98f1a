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
        (["verify-all", "--seed", "0"], "f0405622fe7da7b3"),
        (["verify-all", "--seed", "7"], "36275074b4f9e92d"),
        (["verify-all", "--seed", "0", "--state", "{regular}"], "69b228ad1ff1263e"),
        (["surrogate", "--dim", "2"], "71be3afe87af3ea0"),
        (["surrogate", "--dim", "8"], "ede75da65c54d05d"),
        (["surrogate", "--dim", "64"], "db19fb28f9d0c3a2"),
    ],
)
def test_report_body_digest(tmp_path, argv, digest):
    regular = tmp_path / "regular.json"
    regular.write_text(json.dumps({"kind": "regular"}))
    argv = [a.format(regular=regular) for a in argv]
    assert _body_digest(tmp_path, argv) == digest
