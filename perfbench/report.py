"""Print every metric of every workload: end to end, then per layer.

Run from the repository root:

    python3 perfbench/report.py [--seed N]

Each workload runs once untraced and once traced, one pass each, through
run.py; its output is printed as it comes.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from items import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            status |= subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed",
                 str(a.seed), "--seconds", "0", "--trace", trace]).returncode
            print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
