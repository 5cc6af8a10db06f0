"""Benchmark entry point.

    python3 bench/run.py --workload lana|dense-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. lpduet is imported from the checkout's own
``src/`` and nowhere else; without it the run exits with code 2. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``). A summary goes to standard error and the full figures to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lpduet" / "__init__.py").is_file():
        print(f"error: no lpduet sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lpduet

    if not Path(lpduet.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: lpduet imported from {lpduet.__file__}, not {src}", file=sys.stderr)
        return 2

    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
