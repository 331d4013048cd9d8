"""Regenerate ``refs.json``, the reference outputs every benchmark op is
checked against.

    python3 perfbench/record_refs.py

For the QFT input and every pool circuit it records the input sha256 and, for
each op that succeeds, the report-CSV sha256; for ladder rung 0 also the
sha256 of the pipe and decoder sweeps, estimated against a warm cache. Rungs
that raise get only their input hash, so the benchmark skips their output
check. Run it only for a deliberate correctness fix, and record the changed
hashes, before and after, in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(qre, work) -> dict:
    refs: dict[str, dict] = {}

    def estimate(workload, circuit, cache_dir):
        data = circuit.text.encode()
        path = work / (circuit.name + circuit.suffix)
        path.write_bytes(data)
        op = run.Op(circuit.name, path, run.sha256(circuit.text),
                    circuit.t_count, circuit.rz_count)
        result = run.run_op(qre, workload, op, cache_dir, {})
        if result.problems:
            raise SystemExit(f"{circuit.name}: {result.problems}")
        entry = refs.setdefault(circuit.name, {"input_sha256": op.sha256})
        if entry["input_sha256"] != op.sha256:
            raise SystemExit(f"{circuit.name}: inputs differ between uses")
        return result, entry

    result, entry = estimate("qft", workloads.qft_circuit(), None)
    entry["report_sha256"] = result.report_sha256
    for sub_seed in range(workloads.POOL_SIZE):
        cache = work / f"cache-{sub_seed}"
        for k, circuit in enumerate(workloads.ladder_circuits(sub_seed)):
            if k == 0:
                cold, entry = estimate("nested", circuit, cache)
                if cold.error:
                    raise SystemExit(f"{circuit.name}: {cold.error}")
                entry["report_sha256"] = cold.report_sha256
            warm, entry = estimate("ladder", circuit, cache)
            if warm.error:
                print(f"{circuit.name}: no reference ({warm.error})")
                continue
            if entry.setdefault("report_sha256",
                                warm.report_sha256) != warm.report_sha256:
                raise SystemExit(f"{circuit.name}: warm and cold reports "
                                 "differ")
            entry["sweeps_sha256"] = warm.sweeps_sha256
        print(f"pool circuit {sub_seed} recorded", flush=True)
    return refs


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import qre.pipeline
    import qre.report

    os.environ.pop("QRE_CACHE_DIR", None)
    work = run.ROOT / ".bench_work" / f"refs-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        refs = record(qre, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
