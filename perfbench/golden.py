"""Regenerate bell_evaluations.json, the bell_search evaluation-count oracle.

    python3 perfbench/golden.py

The Bell search is deterministic for a configuration and seed, so its
evaluation count is an exact property of the optimizer.  This runs every
catalog search once through the CLI, checks it against the other Bell
oracles, and records the count.  Regenerate only when the optimizer is
meant to search differently, and say so in the change that does.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

run.import_package()

import gen  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    counts: dict[str, int] = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for orbits in gen.BELL_ORBITS:
            for config in range(gen.BELL_CONFIGS):
                for seed in range(gen.BELL_SEEDS):
                    spec = gen.bell_spec(orbits, config, seed)
                    key = spec["key"]
                    # judge against a table that already holds this run's count,
                    # so only the other oracles can fail
                    table: dict[str, int] = {}
                    ctx = workloads.Context(workdir, table)
                    op = workloads.bell_op(ctx, 0, spec)
                    code = op.run()
                    report = json.loads((workdir / "op0-report.json").read_text())
                    table[key] = counts[key] = report["checks"][0]["measured"]["evaluations"]
                    if op.judge(code) != oracles.OK:
                        print(f"{key}: fails its oracle", file=sys.stderr)
                        return 1
                    print(key, counts[key], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EVALUATIONS_FILE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
