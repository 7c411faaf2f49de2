#!/usr/bin/env python3
"""Benchmark of the bitsudoku checkout this file sits in.

    python3 bench/run.py --workload enumerate|first-large|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of the checkout.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics when --trace is 0 and the per-layer metrics when it is 1.  The
line before it describes the run (environment, corpus digest, outcomes).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# Bytecode of the package and of this benchmark is cached in the build
# directory, never in the source tree, whatever PYTHONDONTWRITEBYTECODE says:
# an installed package has its bytecode cached too.
sys.pycache_prefix = str(BUILD / "pycache")
sys.dont_write_bytecode = False

import workloads  # noqa: E402  (after the bytecode location is set)

WORKLOADS = ("enumerate", "first-large", "cli")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "bitsudoku" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'bitsudoku'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    api = workloads.fresh_import()
    module_path = Path(api.__file__).resolve()
    if src.resolve() not in module_path.parents:
        print(f"error: imported {module_path}, not the checkout's package",
              file=sys.stderr)
        return 2

    env = {"python": platform.python_version(),
           "nproc": os.cpu_count(),
           "loadavg": list(os.getloadavg()),
           "commit": git_commit(ROOT),
           "seed": args.seed,
           "module": str(module_path),
           "workload": args.workload,
           "seconds": args.seconds,
           "trace": args.trace}

    if args.workload == "cli":
        tally, info, result = workloads.run_cli_workload(
            ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        w = (workloads.ENUMERATE if args.workload == "enumerate"
             else workloads.FIRST_LARGE)
        tally, info, result = workloads.run_in_process(
            w, args.seed, args.seconds, bool(args.trace))

    # Names and units come from BENCHMARK.json, so the two cannot disagree.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        trace_file = f"trace-{args.workload}-{args.seed}.json"
        result["tracer"].write(BUILD / trace_file)
        values = {**result["layers"], **workloads.probe_layers(ROOT)}
        wanted = spec["per_layer"]
    else:
        values = result
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(json.dumps({"env": env, "run": info}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
