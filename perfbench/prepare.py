"""Set-up of one benchmark run, executed in a fresh interpreter.

Imports the estimator, writes the workload's input files into ``--out`` and,
for ``ladder``, estimates rung 0 once with ``--out/cache`` as the widget
cache so that the timed rungs find every widget compiled. Prints the input
manifest as JSON. ``run.py`` times this whole process, start to exit.

    python3 perfbench/prepare.py --workload ladder --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qre.pipeline

    args.out.mkdir(parents=True)
    manifest = []
    for circuit in workloads.workload_inputs(args.workload, args.seed):
        data = circuit.text.encode()
        path = args.out / (circuit.name + circuit.suffix)
        path.write_bytes(data)
        manifest.append({"name": circuit.name, "file": path.name,
                         "sha256": hashlib.sha256(data).hexdigest(),
                         "t_count": circuit.t_count,
                         "rz_count": circuit.rz_count})
    if args.workload == "ladder":
        qre.pipeline.run_estimate(args.out / manifest[0]["file"],
                                  cache_dir=args.out / "cache")
    json.dump(manifest, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
