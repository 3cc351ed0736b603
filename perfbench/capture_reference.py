#!/usr/bin/env python3
"""Rewrite reference_digests.json from the program as it stands.

    python3 perfbench/capture_reference.py

Run from the root of a checkout. The stored digests are the correctness
reference of the benchmark: recapture them only for a deliberate change of
the output, and say so where the change is recorded.
"""
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import OUT, import_cli


def main() -> int:
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="capture_", dir=OUT))
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, workloads.DEFAULT_SEED, work / name)
            for call in workload.calls:
                if cli.main(list(call.argv)) != 0:
                    raise SystemExit(f"error: `sqom {call.argv[0]}` failed")
            reference[name] = checks.pass_digests(workload.calls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
