"""Run one reflexgrid benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload herd-n1000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; reflexgrid is imported from the
checkout's ``src/``.  ``--trace 0`` reports the end-to-end metrics of
untraced passes; ``--trace 1`` reports the per-layer metrics of traced
passes and writes the last traced pass's spans to
``.perfbench/<workload>.spans.tsv``.  ``--workload all`` runs every workload
in turn, each in its own process so that each reports its own peak memory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; attempted and failed
count scenarios.  The lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _run_each(names: tuple[str, ...], argv: list[str]) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, *argv],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "reflexgrid" / "__init__.py").is_file():
        print(f"error: no reflexgrid sources under {SRC}", file=sys.stderr)
        return 2

    # the benchmark's modules import reflexgrid, so they load once its path is set
    sys.path.insert(0, str(SRC))
    from measure import measure
    from pipeline import WORKLOAD_NAMES

    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = _run_each(WORKLOAD_NAMES, rest)
    elif args.workload in WORKLOAD_NAMES:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}, all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # one thread: keep any numpy backend from starting a pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
