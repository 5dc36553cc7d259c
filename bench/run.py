"""torcheck benchmark: exact Tor through the real CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.  Run
from anywhere; the program is imported from ``src/`` beside this directory.

Load model: closed loop, one client.  Each operation is one
``torcheck.cli.main(argv)`` call in a fresh worker interpreter
(``worker.py``), timed inside the worker after ``import torcheck.cli``, so no
cache survives from one call to the next, as for a user of the CLI.  Each
worker is pinned to the CPU that other tenants slow least at that moment
(``CpuPicker``).  Every time is scaled to a fixed host speed: it is divided
by the time of a fixed piece of reference work run just before it in the same
worker, and multiplied by REFERENCE_NOMINAL_S (see ``scaled``).  Every output
is checked against a closed-form oracle (``gen.py``); an op with a non-zero
exit, a timeout or a wrong answer counts as failed and its time is left out.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(``spans.py``); the traced run alternates traced and untraced ops on the same
inputs, checks their outputs are byte-identical and reports the ratio of
their median times.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
readable table.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 60
MIN_OPS = 5
INSTANCES = 4  # seeded input documents per run, used in turn
REFERENCE_NOMINAL_S = 0.01  # reference work time that defines the scaled second

TOR_E, TOR_LENGTH = 2, 6
HOMOLOGY_E, HOMOLOGY_LENGTH = 2, 4

WORKLOADS = {
    "verify-fp101": "the headline command at its default field: poly substitution and "
    "algebra element arithmetic dominate; the seed is unused",
    "tor-residue-fp101": "sparse residue-field resolution of length 6 over F_101: the "
    "largest matrices, module re-validation and the symbolic composite check",
    "homology-dense-q": "basis-changed dense complex of length 4 over Q: Fraction linalg "
    "and map checks, no poly layer, so it bypasses any substitution change",
}

END_TO_END = {"op_s": "s", "op_p25_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Case:
    """One input: the CLI arguments (without ``--out``) and the oracle."""

    def __init__(self, argv, expected):
        self.argv = argv
        self.expected = expected

    def mismatch(self, output):
        """None when ``output`` (bytes written by the CLI) is right, else why."""
        try:
            got = json.loads(output)
        except ValueError:
            return "output is not JSON"
        return None if self.expected(got) else "output disagrees with the oracle"


def _verify_ok(report):
    return (
        report.get("overall_pass") is True
        and report.get("tor") == {"0": 16, "1": 0, "2": 2}
        and report.get("betti") == [8, 4, 2]
    )


def write_doc(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def build_cases(workload, seed, workdir):
    """The run's inputs, all derived from ``seed``."""
    if workload == "verify-fp101":
        return [Case(["verify", "--field", "fp:101", "--format", "json"], _verify_ok)]
    if workload == "tor-residue-fp101":
        res = write_doc(workdir / "res.json", gen.resolution_doc("fp:101", TOR_E, TOR_LENGTH))
        want = gen.expected_tor_payload(TOR_E, TOR_LENGTH)
        cases = []
        for k in range(INSTANCES):
            rng = gen.rng_for(seed, "module-%d" % k)
            mod = write_doc(workdir / ("mod%d.json" % k), gen.module_doc("fp:101", TOR_E, rng))
            cases.append(Case(["tor", res, mod, "--format", "json"], want.__eq__))
        return cases
    if workload == "homology-dense-q":
        want = gen.expected_homology_payload(HOMOLOGY_E, HOMOLOGY_LENGTH)
        cases = []
        for k in range(INSTANCES):
            rng = gen.rng_for(seed, "complex-%d" % k)
            doc = gen.dense_complex_doc("q", HOMOLOGY_E, HOMOLOGY_LENGTH, rng)
            cx = write_doc(workdir / ("cx%d.json" % k), doc)
            cases.append(Case(["homology", cx, "--format", "json"], want.__eq__))
        return cases
    raise ValueError("unknown workload %r" % workload)


class WorkerFailed(Exception):
    """Nothing can be measured, e.g. torcheck does not import."""


def _probe_s():
    """Time of a fixed ~1 ms loop of Python integer arithmetic, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(10000):
            x += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class CpuPicker:
    """Chooses the CPU for the next worker.

    On a small shared host one of the machine's CPUs is often slowed by other
    tenants for a second or more, and which CPU changes from moment to
    moment.  Before each op the picker times a short probe loop on each CPU
    this process may use and pins this process, and so the worker it starts
    next, to the fastest.  The worker then stays on one CPU, so the reference
    work it times before the op (see ``scaled``) runs where the op runs.  The
    picker reads only its own timings and sets only its own affinity.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self):
        try:
            timings = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                timings.append((_probe_s(), cpu))
            os.sched_setaffinity(0, {min(timings)[1]})
        except OSError:  # affinity not permitted: leave placement to the scheduler
            pass


def run_op(case, out_path, traced, picker=None):
    """Run one op in a fresh worker.  Returns ``(record, error)``: the
    worker's JSON record and None, or the record (possibly None) and the
    reason the op counts as failed."""
    if out_path.exists():
        out_path.unlink()
    spec = {"src": str(SRC), "argv": case.argv + ["--out", str(out_path)], "trace": traced}
    cmd = [sys.executable, "-I", "-S", str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    if picker is not None:
        picker.pin()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=OP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, "timeout after %d s" % OP_TIMEOUT_S
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        stderr = proc.stderr.decode("utf-8", "replace").strip().splitlines()
        return None, "worker exit %d: %s" % (proc.returncode, stderr[-1] if stderr else "")
    record = json.loads(lines[-1])
    if record["exit"] != 0:
        return record, "exit code %d" % record["exit"]
    if not out_path.exists():
        return record, "no output written"
    output = out_path.read_bytes()
    record["output"] = output
    return record, case.mismatch(output)


def measure(workload, seed, seconds, trace):
    """The result object printed as the last line for one workload."""
    workdir = WORK / ("%s-%d" % (workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases = build_cases(workload, seed, workdir)
        return summarize(*loop(cases, workdir / "out.json", seconds, trace), trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def loop(cases, out_path, seconds, trace):
    """Closed loop over ``cases`` in turn for ``seconds``.  Returns the records
    of the ops that succeeded, the reasons of those that failed, and the
    number attempted."""
    # untimed warm-up: writes bytecode caches and proves the import works
    record, error = run_op(Case(["--help"], None), out_path, False)
    if record is None:
        raise WorkerFailed(error)
    ok, failures, attempted, pairs = [], [], 0, 0
    picker = CpuPicker()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or attempted < MIN_OPS:
        case = cases[pairs % len(cases)]
        # traced runs pair a traced and an untraced op on one input,
        # alternating which goes first
        order = [False] if not trace else ([True, False] if pairs % 2 == 0 else [False, True])
        outputs = {}
        for traced in order:
            attempted += 1
            record, error = run_op(case, out_path, traced, picker)
            if error is None:
                outputs[traced] = record.pop("output")
                record["traced"] = traced
                ok.append(record)
            else:
                failures.append(error)
        if len(outputs) == 2 and outputs[True] != outputs[False]:
            ok.pop()
            failures.append("traced output differs from untraced output")
        pairs += 1
    return ok, failures, attempted


def scaled(seconds, reference_s):
    """A wall time in scaled seconds: the time it would take on a host where
    the worker's reference work takes REFERENCE_NOMINAL_S.

    Other tenants of a small shared host slow it by up to about twofold for
    minutes at a time, and both CPUs together.  The reference work (pure
    Python, no torcheck code) is slowed alike, so the ratio of an op's time
    to the reference time measured just before it in the same process stays
    put when the host's speed moves, and moves when torcheck's does.
    """
    return seconds * REFERENCE_NOMINAL_S / reference_s


def _p25(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def summarize(ok, failures, attempted, trace):
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (trace and not traced):
        raise WorkerFailed("no operation succeeded: %s" % "; ".join(sorted(set(failures))))
    op_times = [scaled(r["op_s"], r["op_ref_s"]) for r in plain]
    wall = {
        "op_s": statistics.median(r["op_s"] for r in plain),
        "setup_s": statistics.median(r["import_s"] for r in ok),
    }
    if not trace:
        metrics = {
            "op_s": statistics.median(op_times),
            "op_p25_s": _p25(op_times),
            "setup_s": statistics.median(scaled(r["import_s"], r["import_ref_s"]) for r in ok),
            "peak_rss_mb": max(r["maxrss_kb"] for r in ok) / 1024.0,
        }
        units = END_TO_END
    else:
        units = spans.metric_names()
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in units
            if name != "trace.overhead_ratio"
        }
        traced_times = [scaled(r["op_s"], r["op_ref_s"]) for r in traced]
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_times) / statistics.median(op_times))
    mismatched = [f for f in failures if not f.startswith("timeout")]
    return {
        "correct": not mismatched,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "failures": sorted(set(failures)),
        "wall": wall,
    }


def print_table(workload, result):
    print("== %s: %d attempted, %d failed, failed_frac %.4f ratio"
          % (workload, result["attempted"], result["failed"],
             result["failed"] / result["attempted"]))
    for reason in result["failures"]:
        print("   failure: %s" % reason)
    for name, m in result["metrics"].items():
        print("   %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in result["wall"].items():
        print("   %-36s %14.6g s (wall, unscaled median)" % (name, value))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torcheck" / "cli.py").is_file():
        sys.stderr.write("no torcheck source at %s\n" % SRC)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, results[name])
    except WorkerFailed as exc:
        sys.stderr.write("benchmark could not run: %s\n" % exc)
        return 1
    for result in results.values():
        del result["failures"], result["wall"]
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
