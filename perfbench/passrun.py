"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --spawned-at T [--trace] [--toy]
                                 [--setup-only | --defect-probe]

``T`` is ``time.monotonic()`` read by the parent just before it started
this process (the clock is system-wide), so the reported set-up time runs
from process start through interpreter start-up, ``import leafatlas`` and
seeded input generation to the first timed operation.  The pass prints one
JSON object on stdout.  With ``--setup-only`` the process stops there and
reports only the set-up time and SETUP_ONLY_PROBES calibration probes.
With ``--defect-probe`` it runs ``workloads.defect_probe_ops`` untimed
instead of a pass and reports each outcome.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

CALIBRATION_REPS = 40
PROBE_INTERVAL_S = 0.1
SETUP_ONLY_PROBES = 3


def calibration_s() -> float:
    """Fixed pure-Python work that never calls leafatlas: Gaussian
    elimination on a 6x6 Fraction matrix, repeated.  Its time tracks how
    fast the machine runs Fraction-heavy Python code at the moment."""
    m = [[Fraction(i * j + 1, i + j + 1) for j in range(6)] for i in range(6)]
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        a = [row[:] for row in m]
        for c in range(6):
            for r in range(c + 1, 6):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - start


def check_output(op, out) -> str | None:
    try:
        return op.check(out)
    except Exception as e:  # a check that cannot run fails the output
        return f"check raised {type(e).__name__}: {e}"


def run_defect_probe(toy: bool) -> dict:
    """Outcome of every defect-probe operation, in the shape of a pass's ops."""
    import workloads

    outcomes = []
    for op in workloads.defect_probe_ops(toy):
        try:
            out = op.run()
        except Exception as e:
            outcomes.append({"label": op.label, "error": f"{type(e).__name__}: {e}", "check": None})
        else:
            outcomes.append({"label": op.label, "error": None, "check": check_output(op, out)})
    return {"probe": outcomes}


def run_pass(
    workload: str, seed: int, spawned_at: float, trace: bool, toy: bool, setup_only: bool = False
) -> dict:
    import leafatlas
    import workloads

    ops = workloads.build(workload, seed, toy)
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        probes = [calibration_s() for _ in range(SETUP_ONLY_PROBES)]
        return {"workload": workload, "seed": seed, "setup_s": setup_s, "calibration_s": probes}
    # calibration probes: one before the first operation, then one after
    # any operation that ends PROBE_INTERVAL_S or more after the last probe,
    # and one after the last operation
    probes = [calibration_s()]
    last_probe = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(leafatlas)

    timings, outputs, errors, probe_before = [], [], [], []
    try:
        for k, op in enumerate(ops):
            probe_before.append(len(probes) - 1)
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # a failed operation is counted, not fatal
                out = None
                errors.append(f"{type(e).__name__}: {e}")
            else:
                errors.append(None)
            end = time.perf_counter()
            timings.append(end - start)
            outputs.append(out)
            if end - last_probe >= PROBE_INTERVAL_S or k == len(ops) - 1:
                probes.append(calibration_s())
                last_probe = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = time.perf_counter()
    results = []
    for op, dt, out, err, before in zip(ops, timings, outputs, errors, probe_before):
        results.append({
            "label": op.label,
            "s": dt,
            "calibration_s": probes[before : before + 2],
            "error": err,
            "check": None if err is not None else check_output(op, out),
        })

    doc = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "check_s": time.perf_counter() - check_start,
        "calibration_s": probes,
        "ops": results,
    }
    if tracer is not None:
        doc["trace"] = {
            "functions": tracer.stats,
            "layer_self_ns": tracer.layer_self_ns(),
            "root_ns": tracer.root_ns,
            "coset_yield": tracer.coset_yield(),
        }
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--toy", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--defect-probe", action="store_true")
    args = p.parse_args(argv)
    if args.defect_probe:
        doc = run_defect_probe(args.toy)
    else:
        doc = run_pass(args.workload, args.seed, args.spawned_at, args.trace, args.toy, args.setup_only)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
