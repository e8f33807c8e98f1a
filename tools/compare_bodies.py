"""Compare the report bodies of two source trees on the refactor oracle.

    python tools/compare_bodies.py OLD_SRC NEW_SRC

Each tree is a directory that holds the ``eprbell`` package (for example
``src`` of a ``git archive`` of the parent commit, and ``src`` of the working
tree).  Both run the same commands in-process, each tree in its own
interpreter:

- the pinned cases of ``tests/test_report_digests.py``;
- ``verify-all`` on operation 0 of the ``verify_all`` workload of
  ``perfbench/gen.py`` at seeds 0-9, each with its seed and state;
- ``verify-all`` at seeds 1-9 at the default state (no ``--state``) and at
  the regular state, whose batteries the pins draw only at seed 0 (and the
  default state's at seed 7);
- ``surrogate --dim m`` for every even m in 2..64;
- ``psd`` on the 11 ``psd_batteries`` specs of ``perfbench/gen.py`` at
  seeds 0-2;
- ``bell`` on the 160 searches of the perfbench Bell catalog, and on five
  shapes it lacks: a support with the zero point, slots of unequal
  sizes, an empty slot, the regular state, and supports whose weights are
  all zero, so that every restart ties exactly;
- ``eval`` on records that mix ints, "p/q" strings and strings only
  ``Fraction`` reads, two of them one point, on a bad record and on an
  empty record list;
- ``psd`` on points written in the grammar only ``Fraction`` reads, and on
  4 points over one common denominator of 3,990 bits;
- error cases: malformed files (bad JSON, a bad coordinate, duplicate
  points, an unknown Bell config key, a Bell support with a float
  coordinate, a one-slot Bell config with a bool coordinate), a ``lambda``
  of nan or of 1e308, and a coordinate of 10^400.

Each case keeps its exit code (or the type of an exception that escapes
``main``), its report body, its stdout and its stderr, with the temporary
directory written as ``{tmp}`` and each warning as its category and
message.  Every command but ``eval``, which has no ``--out``, writes its
report to a file.  A case matches when the exit codes, stdouts and stderrs
are equal and the new body, with every object key the old body lacks
removed, serializes byte for byte as the old body.  The script prints
each added key path, with the cases it appears in, and every mismatch with
both stderrs and stdouts and each JSON leaf path of the body whose value
moved, old -> new (a list whose length changed is one leaf); it exits 1 on
any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cases() -> dict[str, tuple[dict, list[str]]]:
    """Case name -> (input files by name, argv with {name} placeholders)."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    import gen
    import test_report_digests as pins

    cases = {}
    params = pins.test_report_body_digest.pytestmark[0].args[1]
    for i, (argv, _) in enumerate(params):
        cases[f"pin{i}"] = (pins._INPUTS, argv)
    for seed in range(10):
        spec = gen.spec("verify_all", seed, 0)
        argv = ["verify-all", "--seed", str(spec["seed"]), "--state", "{state}"]
        cases[f"verify_all{seed}"] = ({"state": spec["state"]}, argv)
    for seed in range(1, 10):
        argv = ["verify-all", "--seed", str(seed)]
        cases[f"verify-all default seed {seed}"] = ({}, argv)
        cases[f"verify-all regular seed {seed}"] = (
            {"state": {"kind": "regular"}}, argv + ["--state", "{state}"])
    for m in range(2, 65, 2):
        cases[f"surrogate{m}"] = ({}, ["surrogate", "--dim", str(m)])
    for seed in range(3):
        for i in range(gen.CYCLES["psd_batteries"]):
            spec = gen.spec("psd_batteries", seed, i)
            files = {"points": spec["points"], "state": spec["state"]}
            cases[f"psd{seed}.{i}"] = (files, ["psd", "{points}", "--state", "{state}"])
    for orbits in gen.BELL_ORBITS:
        for index in range(gen.BELL_CONFIGS):
            for seed in range(gen.BELL_SEEDS):
                spec = gen.bell_spec(orbits, index, seed)
                files = {"config": spec["config"], "state": spec["state"]}
                argv = ["bell", "{config}", "--seed", str(seed), "--state", "{state}"]
                cases[f"bell {spec['key']}"] = (files, argv)
    orbit = [["1", "2"], ["-1", "-2"]]
    partner = [["-1", "2"], ["1", "-2"]]
    third = [["1/3", "-1"], ["-1/3", "1"]]
    zero = [["0", "0"]]
    shapes = {
        # tests/test_bell.py's TestSearchPins::test_support_with_the_zero_point
        "zero point": ([orbit[:1] + zero + orbit[1:] + third] * 2 + [partner[::-1] + zero] * 2,
                       3, 80, 5, {"kind": "epr", "lambda": -0.7, "mu": 0.45}),
        "unequal slots": ([orbit + zero, orbit + third, partner, partner + third + zero],
                          4, 120, 1, {"kind": "epr", "lambda": 0.3, "mu": -1.1}),
        "empty slot": ([orbit + third, [], partner + zero, partner],
                       4, 120, 2, {"kind": "epr", "lambda": 1.2, "mu": 0.4}),
        "regular state": ([orbit + zero] * 2 + [partner + zero] * 2,
                          4, 120, 3, {"kind": "regular"}),
        # tests/test_bell.py's TestOptimizer::test_tied_restarts_keep_the_first
        "all ties": ([[["1", "0"], ["-1", "0"]]] * 2 + [[["0", "1"], ["0", "-1"]]] * 2,
                     4, 40, 0, {"kind": "epr", "lambda": 0.3, "mu": 0.7}),
    }
    for name, (supports, restarts, max_iters, seed, state) in shapes.items():
        config = {"supports": supports, "restarts": restarts, "max_iters": max_iters}
        argv = ["bell", "{config}", "--seed", str(seed), "--state", "{state}"]
        cases[f"bell {name}"] = ({"config": config, "state": state}, argv)
    psd = ["psd", "{points}", "--state", "{state}"]
    epr = {"kind": "epr", "lambda": 0.3, "mu": 0.7}
    wide = [["1", "2", "-1", "2"], ["3", "2", "-3", "2"], ["5", "1", "-5", "1"]]
    huge = "1" + "0" * 400
    cases["error bad json"] = ({"points": "[[", "state": epr}, psd)
    cases["error bad coordinate"] = ({"points": [["1/0", "0", "0", "0"]], "state": epr}, psd)
    cases["error duplicate points"] = ({"points": [wide[0], wide[0]], "state": epr}, psd)
    cases["error huge coordinate"] = (
        {"points": [[huge, "0", "-" + huge, "0"], ["0", "0", "0", "0"]], "state": epr}, psd)
    for lam in ("nan", 1e308):
        state = {**epr, "lambda": lam}
        cases[f"error psd lambda {lam}"] = ({"points": wide, "state": state}, psd)
        cases[f"error verify-all lambda {lam}"] = (
            {"state": state}, ["verify-all", "--seed", "0", "--state", "{state}"])
    records = [
        {"point": [1, "1/2", -1, "1/2"], "re": 0.5, "im": 0.25},
        {"point": ["+3", " 3/4", "-3", "0.75"], "re": 1.0, "im": 0.0},
        {"point": ["2/2", "0.5", "-1e0", "2/4"], "re": 0.25, "im": -0.5},
        {"point": [0, 0, 0, 0], "re": 1, "im": 0},
    ]
    evaluate = ["eval", "{poly}", "--state", "{state}"]
    cases["eval mixed grammar"] = ({"poly": records, "state": epr}, evaluate)
    bad = [records[0], {"point": ["1", 0.5, "0", "0"], "re": 1.0, "im": 0.0}]
    cases["error eval bad record"] = ({"poly": bad, "state": epr}, evaluate)
    cases["error eval empty records"] = ({"poly": [], "state": epr}, evaluate)
    fallback = [["+1", " 1/2", "-1", "0.5"], ["1e1", "0", "-10", "-0.0"],
                ["0.25", "3", "-1/4", "+3"]]
    cases["psd fallback grammar"] = ({"points": fallback, "state": epr}, psd)
    d = 2**3989 + 1
    near = [[f"{k}/{d}", str(k), f"-{k}/{d}", str(k)] for k in range(3)]
    near.append([f"1/{d}", "0", "0", "0"])
    cases["psd 3990-bit denominator"] = ({"points": near, "state": {"kind": "regular"}}, psd)
    config = gen.bell_spec(gen.BELL_ORBITS[0], 0, 0)["config"]
    bell = ["bell", "{config}", "--state", "{state}"]
    cases["error bell config key"] = ({"config": {**config, "step": 1}, "state": epr}, bell)
    floating = {**config, "supports": [[[0.5, "0"], ["-1/2", "0"]]] * 4}
    cases["error bell float coordinate"] = ({"config": floating, "state": epr}, bell)
    # a bad coordinate and a wrong slot count: the coordinate is named
    one_slot = {"supports": [[["1", "0.5"], [True, "0"]]]}
    cases["error bell one slot, bad coordinate"] = ({"config": one_slot, "state": epr}, bell)
    return cases


def collect(out: str) -> None:
    """Run every case with the eprbell on sys.path; write
    {case: [code, body, stderr, stdout]}.  A file given as a string is written as
    it is, any other as JSON."""
    from eprbell.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (files, argv) in _cases().items():
            paths = {}
            for key, content in files.items():
                paths[key] = Path(tmp) / f"{key}.json"
                paths[key].write_text(content if isinstance(content, str) else json.dumps(content))
            report = Path(tmp) / "report.json"
            report.unlink(missing_ok=True)
            argv = [a.format(**paths) for a in argv]
            argv += [] if argv[0] == "eval" else ["--out", str(report)]
            err, out_ = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out_), \
                    warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except Exception as exc:  # recorded, not raised: a case's outcome
                    code = f"raised {type(exc).__name__}"
            stderr = err.getvalue() + "".join(
                f"{w.category.__name__}: {w.message}\n" for w in seen)
            body = json.loads(report.read_text()) if report.exists() else None
            if body is not None:
                del body["wall_clock_s"]
            results[name] = [code, body, stderr.replace(tmp, "{tmp}"),
                             out_.getvalue().replace(tmp, "{tmp}")]
    Path(out).write_text(json.dumps(results))


def _project(new, old, path: str, added: set[str]):
    """``new`` without the object keys ``old`` lacks, which go to ``added``."""
    if isinstance(new, dict) and isinstance(old, dict):
        added.update(f"{path}.{key}" for key in new.keys() - old.keys())
        return {key: _project(new[key], old[key], f"{path}.{key}", added)
                for key in new.keys() & old.keys()}
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        # a check record is named by its check, not its position
        names = [item.get("name") if isinstance(item, dict) else None for item in new]
        return [_project(n, o, f"{path}[{name if name else i}]", added)
                for i, (n, o, name) in enumerate(zip(new, old, names))]
    return new


def _moved(old, new, path: str):
    """(path, old, new) for each leaf of the projected ``new`` body whose
    JSON differs from ``old``'s, named as ``_project`` names them."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old):
            yield from _moved(old[key], new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            name = n.get("name") if isinstance(n, dict) else None
            yield from _moved(o, n, f"{path}[{name if name else i}]")
    elif json.dumps(old) != json.dumps(new):
        yield path or "(body)", old, new


def _run(src: str, out: Path) -> dict:
    subprocess.run(
        [sys.executable, __file__, "--collect", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return json.loads(out.read_text())


def main(old_src: str, new_src: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        old = _run(old_src, Path(tmp) / "old.json")
        new = _run(new_src, Path(tmp) / "new.json")
    added: dict[str, list[str]] = defaultdict(list)
    mismatches = []
    for name, (old_code, old_body, old_err, old_out) in old.items():
        new_code, new_body, new_err, new_out = new[name]
        keys: set[str] = set()
        projected = _project(new_body, old_body, "", keys)
        for key in keys:
            added[key].append(name)
        same_body = json.dumps(projected, sort_keys=True) == json.dumps(old_body, sort_keys=True)
        if new_code != old_code or not same_body or new_err != old_err or new_out != old_out:
            mismatches.append(
                f"{name}: exit {old_code} -> {new_code}, body equal {same_body}"
                f"\n  old stderr: {old_err!r}\n  new stderr: {new_err!r}"
                f"\n  old stdout: {old_out!r}\n  new stdout: {new_out!r}" + "".join(
                    f"\n  moved {path}: {json.dumps(o)} -> {json.dumps(n)}"
                    for path, o, n in _moved(old_body, projected, "")))
    for key, names in sorted(added.items()):
        print(f"added {key}: {len(names)} cases, e.g. {names[0]}")
    for line in mismatches:
        print("MISMATCH", line)
    print(f"{len(old)} cases, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1] == "--collect":
        collect(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1], sys.argv[2]))
