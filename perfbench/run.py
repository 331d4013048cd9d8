"""Benchmark of qre end to end and per layer on three workloads.

    python3 perfbench/run.py --workload {qft,nested,ladder} --seed N \
        --seconds S --trace {0,1}

A closed loop with one caller: ops run one at a time in this process, and
every op's output is checked (report sha256 against ``refs.json``, T and Rz
counts against the generator's own tally). An op is one ``run_estimate`` on
``qft`` and ``nested``, one rung on ``ladder``; ops are grouped in units (one
op; one six-rung pass on ``ladder``) and the loop runs whole units until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced run of the workload's first unit and prints per-layer
self times and counts of one traced unit (see ``spans.py``). The last line
of standard output is the JSON result; the full run record, spans included,
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
SETUP_REPEATS = 3
PIPES = tuple(range(1, 65))
PRESETS = ("mwpm-circuit", "mwpm-code-capacity", "astra-gnn")
# Time of one calibrate() call at full speed on the shared 2-core x86-64 VM
# the baseline was recorded on. Times are reported in these reference seconds.
REF_CALIBRATE_S = 0.04


@dataclass(frozen=True)
class Op:
    """One input file with the counts its report must show."""

    name: str
    path: Path
    sha256: str
    t_count: int
    rz_count: int


@dataclass
class OpResult:
    name: str
    seconds: float
    error: str | None = None
    ref_seconds: float = 0.0
    report_sha256: str | None = None
    sweeps_sha256: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter work and the column updates
    of a Pauli frame and of a tableau, the estimator's own kind of work.

    A shared CPU can alternate for seconds to minutes between two speeds
    about 1.75x apart. The wall time of each unit's ops is scaled by
    REF_CALIBRATE_S over the mean of the probes taken just before and just
    after the unit, so a run's figures depend less on which speed it got.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        acc += i * 3 % 7
    row = np.zeros((1, 600), bool)
    tab = np.zeros((600, 600), bool)
    ones = np.ones((600, 600), bool)
    for i in range(6_000):
        row[:, (i * 13) % 600] ^= ones[0, (i * 7) % 600]
        tab[:, (i * 13) % 600] ^= ones[:, (i * 7) % 600] & tab[:, (i * 5) % 600]
    return time.perf_counter() - start


def to_reference(wall: float, probe_before: float, probe_after: float) -> float:
    """Wall seconds scaled to the probe speed of REF_CALIBRATE_S."""
    return wall * 2 * REF_CALIBRATE_S / (probe_before + probe_after)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs() -> dict:
    return json.loads(REFS.read_text()) if REFS.exists() else {}


def report_values(csv_text: str) -> dict[str, str]:
    """param_name -> value text of a report CSV (provenance lines skipped)."""
    values = {}
    for line in csv_text.splitlines():
        if line and not line.startswith(("#", "param_id,")):
            _, name, value, _ = line.split(",", 3)
            values[name] = value
    return values


def check(op: Op, result: OpResult, csv_text: str, refs: dict) -> None:
    """Record in ``result`` every way the op's output disagrees with the
    generator's tallies or the recorded reference hashes."""
    values = report_values(csv_text)
    for key, want in (("input_t_count", op.t_count),
                      ("input_rz_count", op.rz_count)):
        if values.get(key) != str(want):
            result.problems.append(f"{key} is {values.get(key)}, "
                                   f"generator tallied {want}")
    ref = refs.get(op.name, {})
    for key in ("report_sha256", "sweeps_sha256"):
        got = getattr(result, key)
        if got is not None and key in ref and ref[key] != got:
            result.problems.append(f"{key} {got} differs from reference "
                                   f"{ref[key]}")


def run_op(qre, workload: str, op: Op, cache_dir: Path | None,
           refs: dict) -> OpResult:
    """Estimate one input (and sweep it, on ``ladder``), then check it.

    A raised exception fails the op and the run goes on: the ladder's larger
    rungs raise today, and each failure is counted, not skipped.
    """
    start = time.perf_counter()
    try:
        est = qre.pipeline.run_estimate(op.path, cache_dir=cache_dir)
        csv_text = qre.report.render_csv(est.report)
        sweeps = None
        if workload == "ladder":
            pipes = qre.pipeline.run_pipe_sweep(est.algo, est.config, PIPES)
            presets = qre.pipeline.run_decoder_sweep(est.algo, est.config,
                                                     PRESETS)
            sweeps = (qre.pipeline.render_sweep_csv(pipes, "pipes")
                      + qre.pipeline.render_sweep_csv(presets, "preset"))
    except Exception as exc:  # noqa: BLE001 -- counted as a failed op
        return OpResult(op.name, time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}")
    result = OpResult(op.name, time.perf_counter() - start,
                      report_sha256=sha256(csv_text),
                      sweeps_sha256=None if sweeps is None else sha256(sweeps))
    check(op, result, csv_text, refs)
    return result


class Runner:
    """Runs units of ops of one workload against its prepared inputs."""

    def __init__(self, qre, workload: str, ops: list[Op], work: Path,
                 warm_cache: Path | None, refs: dict):
        self.qre = qre
        self.workload = workload
        self.ops = ops
        self.work = work
        self.warm_cache = warm_cache
        self.refs = refs
        self.results: list[OpResult] = []
        self._fresh = 0
        self._probe = calibrate()

    def unit(self, index: int) -> list[Op]:
        if self.workload == "ladder":
            return self.ops
        return [self.ops[index % len(self.ops)]]

    def run_unit(self, index: int) -> list[OpResult]:
        out = []
        for op in self.unit(index):
            cache_dir = None
            if self.workload == "nested":
                self._fresh += 1
                cache_dir = self.work / f"cache-{self._fresh}"
            elif self.workload == "ladder":
                cache_dir = self.warm_cache
            out.append(run_op(self.qre, self.workload, op, cache_dir,
                              self.refs))
            if self.workload == "nested":
                shutil.rmtree(cache_dir, ignore_errors=True)
            gc.collect()
        probe = calibrate()
        for result in out:
            result.ref_seconds = to_reference(result.seconds, self._probe,
                                              probe)
        self._probe = probe
        self.results.extend(out)
        return out


def summarize(results: list[OpResult], problems: list[str]) -> dict:
    """Attempted and failed op counts; correct unless some output was wrong.

    An op fails when it raises or when its output disagrees with a check.
    Only the second kind, and problems found outside ops, make the run
    incorrect: a raising op produced no output to be wrong about.
    """
    for r in results:
        problems.extend(f"{r.name}: {p}" for p in r.problems)
    return {"correct": not problems, "attempted": len(results),
            "failed": sum(not r.ok for r in results)}


def set_up(workload: str, seed: int,
           work: Path) -> tuple[list[tuple[float, float]], list[dict]]:
    """Run the set-up SETUP_REPEATS times, each in a fresh interpreter, and
    return their (wall, reference) times and the manifest, which must be
    identical in every repeat."""
    times, manifests = [], []
    before = calibrate()
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(work / f"setup-{k}")],
            capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        after = calibrate()
        times.append((wall, to_reference(wall, before, after)))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        manifests.append(json.loads(proc.stdout))
    if any(m != manifests[0] for m in manifests):
        raise RuntimeError("set-up repeats generated different inputs")
    return times, manifests[-1]


def provenance(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    import numpy
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed}


def timed_metrics(runner: Runner, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        runner.run_unit(index)
        index += 1
    ok = [r for r in runner.results if r.ok]
    if not ok:
        raise RuntimeError("no op succeeded; nothing to measure")
    return {
        "op_s.p50": (statistics.median(r.ref_seconds for r in ok), "s"),
        "ops_per_s": (len(ok) / sum(r.ref_seconds for r in runner.results),
                      "1/s"),
        "ok_ratio": (len(ok) / len(runner.results), "ratio"),
    }, {"op_s.samples": len(ok),
        "wall_op_s.p50": statistics.median(r.seconds for r in ok),
        "wall_ops_per_s": len(ok) / sum(r.seconds for r in runner.results)}


def traced_metrics(runner: Runner, seconds: float, qre,
                   problems: list[str]) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of unit 0; per-layer times are the
    mean over traced units in reference seconds, counts those of the first
    traced unit."""
    untraced_walls, traced_walls, times, recorders = [], [], [], []
    counts = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(recorders) < 2:
        plain = runner.run_unit(0)
        rec = spans.Recorder()
        with spans.instrument(rec, qre):
            traced = runner.run_unit(0)
        untraced_walls.append(sum(r.ref_seconds for r in plain))
        traced_walls.append(sum(r.ref_seconds for r in traced))
        for a, b in zip(plain, traced):
            if (a.error, a.report_sha256, a.sweeps_sha256) != (
                    b.error, b.report_sha256, b.sweeps_sha256):
                problems.append(f"{a.name}: traced and untraced runs differ")
        unit_counts = spans.layer_counts(rec)
        if counts is None:
            counts = unit_counts
        elif unit_counts != counts:
            problems.append("two traced runs gave different counts")
        scale = traced[0].ref_seconds / traced[0].seconds
        times.append({name: seconds * scale for name, seconds
                      in spans.layer_times(rec).items()})
        recorders.append(rec)
    metrics = {name: (statistics.fmean(t[name] for t in times), "s")
               for name in spans.TIME_METRICS}
    for name, value in counts.items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio")
                         else "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
        - 1.0, "ratio")
    return metrics, {"spans": [r.to_json() for r in recorders],
                     "untraced_unit_s": untraced_walls,
                     "traced_unit_s": traced_walls}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qre" / "__init__.py").is_file():
        print(f"perfbench: no estimator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.pop("QRE_CACHE_DIR", None)  # no cache unless an op names one
    # One CPU for the ops, the calibration probe and the set-up processes,
    # which inherit it, so that the probe measures the CPU the work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = (out_dir / f"run-{args.workload}-seed{args.seed}"
                f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=1))
    summary = record["summary"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['attempted']} ops, {summary['failed']} failed "
          f"(failed_ratio {summary['failed'] / summary['attempted']:.4f}), "
          f"correct={summary['correct']}; record in {out_path}")
    for name, metric in record["metrics"].items():
        extra = ""
        if name == "op_s.p50":
            extra = f"  (n={record['extra']['op_s.samples']})"
        print(f"  {name:34} {metric['value']!r:>24} {metric['unit']}{extra}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": record["metrics"]}))
    return 0


def measure(args, work: Path) -> dict:
    work.mkdir(parents=True)
    setup_times, manifest = set_up(args.workload, args.seed, work)
    inputs_dir = work / f"setup-{SETUP_REPEATS - 1}"
    refs = load_refs()
    problems = [f"{m['name']}: input sha256 differs from reference"
                for m in manifest
                if refs.get(m["name"], {}).get("input_sha256",
                                                m["sha256"]) != m["sha256"]]
    ops = [Op(m["name"], inputs_dir / m["file"], m["sha256"], m["t_count"],
              m["rz_count"]) for m in manifest]

    sys.path.insert(0, str(ROOT / "src"))
    import qre.pipeline
    import qre.report

    warm = inputs_dir / "cache" if args.workload == "ladder" else None
    runner = Runner(qre, args.workload, ops, work, warm, refs)
    if args.trace:
        metrics, extra = traced_metrics(runner, args.seconds, qre, problems)
    else:
        metrics, extra = timed_metrics(runner, args.seconds)
        metrics["setup_s"] = (statistics.median(t for _, t in setup_times),
                              "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        extra["wall_setup_s"] = [wall for wall, _ in setup_times]
    summary = summarize(runner.results, problems)
    return {
        "workload": args.workload,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "inputs": [{"name": m["name"], "sha256": m["sha256"]}
                   for m in manifest],
        "summary": summary,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "problems": problems,
        "ops": [asdict(r) for r in runner.results],
        "extra": extra,
    }


if __name__ == "__main__":
    sys.exit(main())
