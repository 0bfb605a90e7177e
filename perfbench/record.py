#!/usr/bin/env python3
"""Record the expected outputs in expected.json from the current code.

    python3 perfbench/record.py

Runs `pathpatch all` once per invocation of every workload at seed 0 and
stores the checked fields (check.summarize). It refuses to record when an
output contradicts what the generators know by construction. Re-record only
for a deliberate change of results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    expected = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in ("corpus", *workloads.GENERATORS):
            for inv in workloads.make(workload, Path(tmp) / workload, 0, root):
                out = Path(tmp) / "out" / workload / inv.name
                subprocess.run(
                    [sys.executable, "-m", "pathpatch.cli", "all", "--program", inv.program,
                     "--vuln", inv.vuln, "--suite", inv.suite, "--out", str(out),
                     *run.CLI_FLAGS],
                    cwd=root, env=env, check=True, capture_output=True,
                )
                key = f"{workload}/{inv.name}"
                got = check.summarize(check.read_outputs(out))
                problems = check.check(out, key, got, inv.facts)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                expected[key] = got
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"recorded {len(expected)} invocations in expected.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
