"""Self-test of the benchmark's output gate.

    python3 perfbench/selftest.py

Runs QFT-4 through the benchmark's own op runner four times: as generated,
with one report-CSV value altered, with a wrong T count expected, and on a
file the estimator rejects. The first must pass and the other three must be
counted as failed ops; the altered value and the wrong count also make the
run incorrect. Exits non-zero when the gate lets any of them through.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import qre.pipeline
    import qre.report

    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        circuit = workloads.qft_circuit(4)
        path = work / "qft4.qasm"
        path.write_text(circuit.text)
        good = run.Op("qft4", path, run.sha256(circuit.text),
                      circuit.t_count, circuit.rz_count)
        clean = run.run_op(qre, "qft", good, None, {})
        refs = {"qft4": {"report_sha256": clean.report_sha256}}

        render_csv = qre.report.render_csv

        def altered(report):
            text = render_csv(report)
            row = next(line for line in text.splitlines()
                       if line.startswith("1,code_distance,"))
            _, _, value, unit = row.split(",", 3)
            return text.replace(row, f"1,code_distance,{int(value) + 2},{unit}")

        bad_file = work / "broken.qasm"
        bad_file.write_text("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")
        results = [run.run_op(qre, "qft", good, None, refs)]
        qre.report.render_csv = altered
        try:
            results.append(run.run_op(qre, "qft", good, None, refs))
        finally:
            qre.report.render_csv = render_csv
        wrong_t = run.Op("qft4", path, good.sha256, good.t_count + 1,
                         good.rz_count)
        results.append(run.run_op(qre, "qft", wrong_t, None, refs))
        results.append(run.run_op(qre, "qft", run.Op(
            "broken", bad_file, "", 0, 0), None, refs))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = run.summarize(results, problems=[])
    expect = {"correct": False, "attempted": 4, "failed": 3}
    verdicts = [results[0].ok, not results[1].ok, not results[2].ok,
                results[3].error is not None]
    for r in results:
        print(f"{r.name}: ok={r.ok} error={r.error} problems={r.problems}")
    if summary != expect or not all(verdicts):
        print(f"FAIL: summary {summary}, expected {expect}; "
              f"verdicts {verdicts}")
        return 1
    print(f"PASS: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
