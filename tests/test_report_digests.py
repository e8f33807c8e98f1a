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
from fractions import Fraction

import pytest

from eprbell.cli import main

#: The psd battery: three support classes of ten points each, the classes
#: of the invariant (a+c, b-d) = (s/2, 0) for s = 0, 1, 2.
_PSD_POINTS = [
    [str(c) for c in (Fraction(a, 2), Fraction(b, 3), Fraction(s - a, 2), Fraction(b, 3))]
    for a in range(-2, 3)
    for b in range(2)
    for s in range(3)
]

#: The bell configuration: two orbits in each factor-1 slot, one orbit and
#: the zero point in each factor-2 slot.
_BELL_CONFIG = {
    "supports": [[["1", "2"], ["-1", "-2"], ["1/3", "-1"], ["-1/3", "1"]]] * 2
    + [[["-1", "2"], ["1", "-2"], ["0", "0"]]] * 2,
    "restarts": 3,
    "max_iters": 80,
}

_INPUTS = {
    "regular": {"kind": "regular"},
    "epr": {"kind": "epr", "lambda": 0.3, "mu": -1.1},
    "points": _PSD_POINTS,
    "config": _BELL_CONFIG,
}


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
        (["verify-all", "--seed", "0"], "9ceae5dc94281b8f"),
        (["verify-all", "--seed", "7"], "f6ee268d136caf9b"),
        (["verify-all", "--seed", "0", "--state", "{regular}"], "d3223bd8840f1ffa"),
        # the default state makes every phase an exact 1, which this state does not
        (["verify-all", "--seed", "0", "--state", "{epr}"], "026ea1c4c7606305"),
        (["surrogate", "--dim", "2"], "eb5bd3ce46a044a3"),
        (["surrogate", "--dim", "8"], "d5525e5e6bb3616b"),
        (["surrogate", "--dim", "64"], "5e13fde8bccf390e"),
        (["psd", "{points}", "--state", "{epr}"], "b0d884bab2979b19"),
        (["bell", "{config}", "--seed", "0", "--state", "{epr}"], "8386246590ed7520"),
    ],
    ids=["verify-all-seed0", "verify-all-seed7", "verify-all-regular-seed0", "verify-all-epr-seed0",
         "surrogate-dim2", "surrogate-dim8", "surrogate-dim64", "psd-epr", "bell-epr-seed0"],
)
def test_report_body_digest(tmp_path, argv, digest):
    paths = {}
    for name, content in _INPUTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    argv = [a.format(**paths) for a in argv]
    assert _body_digest(tmp_path, argv) == digest
