"""One benchmark operation: ``torcheck.cli.main(argv)`` in a fresh interpreter.

Started by ``run.py`` as ``python3 -I -S bench/worker.py SPEC`` where SPEC is a
JSON object ``{"src": ..., "argv": [...], "trace": bool}``.  ``-I -S`` keep
the environment and site-packages out, so the only torcheck importable is the
one under ``src``.  Prints one JSON line: the import time of
``torcheck.cli``, the wall time of ``main(argv)`` measured after the import,
the time of the reference work run just before each of the two, the exit
code, the peak RSS of this process and, when traced, the per-layer metrics of
the span recorder.
"""

import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

REFERENCE_ROUNDS = 2


def reference_work():
    """A fixed piece of pure-Python work, in the mix torcheck runs: a dense
    ``Fraction`` matrix product, a dense mod-101 matrix product and products
    of dict-keyed polynomials.  It uses no torcheck code, so a change to the
    program cannot change its time; only the speed of the host can."""
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(10)]
         for i in range(10)]
    q = [[sum((a[i][k] * a[k][j] for k in range(10)), Fraction(0)) for j in range(10)]
         for i in range(10)]
    b = [[(i * 31 + j * 17) % 101 for j in range(24)] for i in range(24)]
    r = [[sum(b[i][k] * b[k][j] for k in range(24)) % 101 for j in range(24)]
         for i in range(24)]
    f = {(i, j): (i + 2 * j) % 101 + 1 for i in range(6) for j in range(6) if i + j < 7}
    for _ in range(4):
        g = {}
        for (e1, e2), c1 in f.items():
            for (h1, h2), c2 in f.items():
                if e1 + h1 < 7 and e2 + h2 < 7:
                    key = (e1 + h1, e2 + h2)
                    g[key] = (g.get(key, 0) + c1 * c2) % 101
        f = g
    return q[0][0], r[0][0], len(f)


def reference_s():
    """Wall time of REFERENCE_ROUNDS rounds of the reference work.  The cyclic
    garbage collector is paused meanwhile, so that the time does not depend
    on how many objects the import of torcheck left alive."""
    gc.disable()
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        reference_work()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main():
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    sys.path.insert(0, src)
    ref_before_import = reference_s()
    start = time.perf_counter()
    import torcheck.cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(torcheck.cli.__file__).startswith(src + os.sep):
        sys.stderr.write("torcheck was imported from outside %s\n" % src)
        return 3
    recorder = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        recorder = spans.Recorder()
        recorder.install(torcheck)
    ref_before_op = reference_s()
    start = time.perf_counter()
    code = torcheck.cli.main(spec["argv"])
    op_s = time.perf_counter() - start
    result = {
        "import_s": import_s,
        "op_s": op_s,
        "import_ref_s": ref_before_import,
        "op_ref_s": ref_before_op,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics(op_s)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
