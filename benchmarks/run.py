"""Run the record benches and write their ``BENCH_<name>.json`` records.

    python benchmarks/run.py [NAME ...] [--quick]

Runs the named benches, or all of them when no name is given.  Each
bench module supplies ``inputs(quick)``, the plain-JSON parameters it
runs with, and ``record(quick)``, which runs it, raises on any failed
gate and returns the record body.  The runner stamps every record with
its ``mode`` and ``inputs``.  A full run writes the committed
``benchmarks/BENCH_<name>.json``; ``--quick`` runs the reduced grid and
writes the same file name under the git-ignored ``benchmarks/output/``.
"""

import argparse
import json
from pathlib import Path

import bench_backends
import bench_scenarios
import bench_service
import bench_vecprice

HERE = Path(__file__).resolve().parent

#: Bench name -> the module that runs it.
BENCHES = {
    "backends": bench_backends,
    "scenarios": bench_scenarios,
    "service": bench_service,
    "vecprice": bench_vecprice,
}


def record_path(name: str, quick: bool) -> Path:
    """The committed record for a full run; a scratch copy for a quick one."""
    return (HERE / "output" if quick else HERE) / f"BENCH_{name}.json"


def stamped(name: str, quick: bool) -> dict:
    """Run one bench and stamp its record with ``mode`` and ``inputs``."""
    module = BENCHES[name]
    return {
        "mode": "quick" if quick else "full",
        "inputs": module.inputs(quick),
        **module.record(quick),
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"benches to run (default: all of {', '.join(BENCHES)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced grid; writes under benchmarks/output/",
    )
    args = parser.parse_args()
    unknown = sorted(set(args.names) - set(BENCHES))
    if unknown:
        parser.error(f"unknown bench {unknown}; choose from {list(BENCHES)}")
    for name in args.names or BENCHES:
        path = record_path(name, args.quick)
        path.parent.mkdir(exist_ok=True)
        body = stamped(name, args.quick)
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
