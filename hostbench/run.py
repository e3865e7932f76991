#!/usr/bin/env python3
"""Run one benchmark workload; print its result as the last stdout line.

    python3 hostbench/run.py --workload pair-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``req_per_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics of a traced
pass and writes its folded spans to ``.hostbench-out/``.  The result line
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 when every output check passed, 1 when
one failed, 2 when the program cannot be imported or used.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from hostbench import harness
        from hostbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"hostbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    golden_path = ROOT / "experiment_results.txt"
    if not golden_path.is_file():
        print(f"hostbench: {golden_path} is missing", file=sys.stderr)
        return 2
    golden = golden_path.read_text(encoding="utf-8")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"hostbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    specs = workload.cells(args.seed)
    scratch_root = ROOT / ".hostbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        if args.trace:
            result = harness.traced(ROOT, workload, specs, args.seed,
                                    Path(scratch), golden)
        else:
            result = harness.untraced(ROOT, workload, specs, args.seed,
                                      args.seconds, Path(scratch), golden)
    try:
        scratch_root.rmdir()
    except OSError:
        pass  # another run is still using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
