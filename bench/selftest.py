"""Self-test of the benchmark harness: oracle, failure accounting, tracing.

    python3 bench/selftest.py

Runs in a few seconds at tiny sizes and exits non-zero if any check
fails.  It is not a pytest module, so the repository's test suite does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import gen
import run
import spans

TINY_E, TINY_LENGTH = 2, 3
RESULTS = []


def check(name, ok, detail=""):
    RESULTS.append(ok)
    suffix = ": %s" % (detail,) if detail and not ok else ""
    print("%s %s%s" % ("PASS" if ok else "FAIL", name, suffix))


def tiny_cases(workdir, field, seed):
    rng = gen.rng_for(seed, "selftest")
    res = run.write_doc(workdir / "res.json", gen.resolution_doc(field, TINY_E, TINY_LENGTH))
    mod = run.write_doc(workdir / "mod.json", gen.module_doc(field, TINY_E, rng))
    cx = run.write_doc(workdir / "cx.json", gen.dense_complex_doc(field, TINY_E, TINY_LENGTH, rng))
    return [
        run.Case(["tor", res, mod, "--format", "json"],
                 gen.expected_tor_payload(TINY_E, TINY_LENGTH).__eq__),
        run.Case(["homology", cx, "--format", "json"],
                 gen.expected_homology_payload(TINY_E, TINY_LENGTH).__eq__),
    ]


class CorruptedOutput(run.Case):
    """The real op, with one Tor length changed before the oracle sees it."""

    def mismatch(self, output):
        doc = json.loads(output)
        key = "tor" if "tor" in doc else "homology"
        doc[key]["0"] += 1
        return super().mismatch(json.dumps(doc).encode())


def test_oracle(workdir):
    for field in ("fp:101", "q"):
        for seed in (1, 2):
            for case in tiny_cases(workdir, field, seed):
                record, error = run.run_op(case, workdir / "out.json", False)
                check("oracle agrees with %s over %s, seed %d" % (case.argv[0], field, seed),
                      error is None, error)
    check("closed form at e=2, L=3", gen.expected_tor(2, 3) == [2, 3, 6, 20])
    check("closed form top degree at L=5 and L=6",
          gen.expected_tor(2, 5)[-1] == 80 and gen.expected_tor(2, 6)[-1] == 160)


def test_failure_accounting(workdir):
    good = tiny_cases(workdir, "q", 3)[0]
    corrupted = CorruptedOutput(good.argv, good.expected)
    not_a_complex = {
        "field": "q",
        "algebra": gen.algebra_doc(TINY_E),
        "module": {"free_rank": 1},
        "maps": [
            {"rows": 1, "cols": 1, "entries": [[["0", "1", "0"]]]},
            {"rows": 1, "cols": 1, "entries": [[["1", "0", "0"]]]},
        ],
    }
    bad = run.write_doc(workdir / "bad.json", not_a_complex)
    exits_one = run.Case(["homology", bad, "--format", "json"], lambda got: True)
    saved = run.MIN_OPS
    run.MIN_OPS = 6  # each case twice
    try:
        ok, failures, attempted = run.loop(
            [good, corrupted, exits_one], workdir / "out.json", 0, False
        )
    finally:
        run.MIN_OPS = saved
    check("a corrupted output and a non-zero exit count as failed",
          attempted == 6 and len(ok) == 2 and len(failures) == 4
          and failures.count("output disagrees with the oracle") == 2
          and failures.count("exit code 1") == 2, failures)
    result = run.summarize(ok, failures, attempted, False)
    check("failed ops make the run incorrect and stay out of the times",
          result["correct"] is False and result["failed"] == 4 and result["attempted"] == 6)
    record = {"op_s": 0.4, "op_ref_s": 0.02, "import_s": 0.03, "import_ref_s": 0.015,
              "maxrss_kb": 2048, "traced": False}
    slowed = dict(record, op_s=0.8, op_ref_s=0.04, import_s=0.06, import_ref_s=0.03)
    metrics = [run.summarize([r], [], 1, False)["metrics"] for r in (record, slowed)]
    want = run.REFERENCE_NOMINAL_S / 0.02 * 0.4
    check("times are scaled by the reference work timed before them",
          metrics[0] == metrics[1] and abs(metrics[0]["op_s"]["value"] - want) < 1e-12,
          metrics)
    saved = run.OP_TIMEOUT_S
    run.OP_TIMEOUT_S = 0.001
    try:
        record, error = run.run_op(good, workdir / "out.json", False)
    finally:
        run.OP_TIMEOUT_S = saved
    check("a timeout counts as failed", record is None and error.startswith("timeout"), error)


def test_tracing(workdir):
    verify = run.build_cases("verify-fp101", 0, workdir)[0]
    cases = [verify] + tiny_cases(workdir, "fp:101", 4)
    stems = {"verify": "rigidity.report_s", "tor": "complexes.tor_s",
             "homology": "complexes.induced_map_s"}
    for case in cases:
        layers = []
        outputs = []
        for traced in (True, True, False):
            record, error = run.run_op(case, workdir / "out.json", traced)
            if error is not None:
                check("traced %s runs" % case.argv[0], False, error)
                return
            outputs.append(record["output"])
            if traced:
                layers.append(record["layers"])
        name = case.argv[0]
        check("traced %s output equals the untraced output" % name,
              outputs[0] == outputs[1] == outputs[2])
        units = spans.metric_names()
        counts = [{k: v for k, v in m.items() if units[k] == "count"} for m in layers]
        check("traced %s counts repeat exactly" % name, counts[0] == counts[1])
        first = layers[0]
        op_s = first["trace.op_s"]
        too_long = [k for k, v in first.items() if k.endswith("_s") and not 0 <= v <= op_s]
        check("traced %s self times lie within the op's wall time" % name, not too_long, too_long)
        # cli binds these functions by name: a span here proves that binding
        # site was patched, not only the defining module
        check("traced %s records %s through the cli binding" % (name, stems[name]),
              first[stems[name]] > 0)
        missing = set(spans.metric_names()) - set(first) - {"trace.overhead_ratio"}
        check("traced %s reports every per-layer metric" % name, not missing, missing)


def test_bare_directory(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-fp101", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=60,
    )
    check("without the program the benchmark exits non-zero and prints no result",
          proc.returncode != 0 and not proc.stdout.strip(), proc.returncode)


def main():
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        test_oracle(workdir)
        test_failure_accounting(workdir)
        test_tracing(workdir)
        test_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d of %d checks passed" % (sum(RESULTS), len(RESULTS)))
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
