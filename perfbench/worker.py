"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS
        [--trace PATH]

Runs the workload's operations one after another (a closed loop with one
client), each under its own deadline, checks every answer, and prints
one JSON object on the last line of stdout.  Without --trace, host-speed
calibration chunks interrupt the pass (see calibration.py) and every
operation also gets its time at the reference speed.  With --trace the
layers are wrapped (see tracing.py) and the spans are written to PATH at
the end.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
from calibration import Calibration  # noqa: E402


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so that no
    `except Exception` inside the library swallows it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise Deadline()


def install_alarm():
    signal.signal(signal.SIGALRM, _on_alarm)


def run_with_deadline(fn, seconds):
    """(status, result, start, end, cpu seconds); status is "decided",
    "undecided" (deadline) or "error" (exception)."""
    global _armed
    start, cpu = time.perf_counter(), time.process_time()
    if seconds <= 0:
        return "undecided", None, start, start, 0.0
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        result = fn()
        _armed = False
        status = "decided"
    except Deadline:
        status, result = "undecided", None
    except Exception as exc:  # an operation that raises is reported, not fatal
        status, result = "error", f"{type(exc).__name__}: {exc}"
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, result, start, time.perf_counter(), time.process_time() - cpu


def cli_call(argv):
    import wallcrystal.cli as cli

    def call():
        out = io.StringIO()
        rc = cli.main(argv, out)  # looked up now: tracing may wrap it
        return rc, out.getvalue()
    return call


def _equivalence_call(op):
    from wallcrystal.adapted_sequence import from_permutation
    from wallcrystal.affine_data import parse_type
    from wallcrystal.linear_forms import DominantWeight
    import wallcrystal.zcrystal as zc

    family, rank, order, _ = inputs.SETTINGS[op["setting"]]
    seq = from_permutation(parse_type(family, rank), order)
    lam = DominantWeight(tuple(op["lam"])) if op["lam"] is not None else None
    return lambda: zc.verify_equivalence(seq, op["depth"], lam=lam)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    reference = inputs.load_reference()
    ops = (inputs.query_mix(args.seed, reference["query_mix"])
           if args.workload == "query_mix"
           else inputs.WORKLOADS[args.workload](args.seed))
    digests = {" ".join(e["argv"]): e for e in reference["query_mix"]}
    digests.update({key: {"digest": d, "outcome": "decided"}
                    for key, d in reference["commands"].items()})

    import wallcrystal.cli  # noqa: F401  (imported before timing starts)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    install_alarm()
    calib = None
    if tracer is None:  # chunks inside spans would skew the layer times
        calib = Calibration()
        calib.start()
    stop = time.perf_counter() + args.budget
    deadline = inputs.DEADLINE[args.workload]
    records = []
    for i, op in enumerate(ops):
        call = cli_call(op["argv"]) if "argv" in op else _equivalence_call(op)
        if tracer is not None:
            fn = call
            call = lambda fn=fn, i=i: tracer.span(i, fn)
        left = min(deadline, stop - time.perf_counter())
        status, result, start, end, cpu = run_with_deadline(call, left)
        rec = {"label": op["label"], "kind": op["kind"], "status": status,
               "start": start, "end": end, "wall_s": end - start,
               "cpu_s": cpu, "ref_s": None, "wrong": None, "drift": None,
               "error": result if status == "error" else None}
        if status == "decided" and "argv" in op:
            rc, stdout = result
            rec["wrong"] = checks.check_cli(op["kind"], op["argv"], rc, stdout)
            ref = digests.get(" ".join(op["argv"]))
            if ref is None or ref["outcome"] == "undecided":
                rec["drift"] = "unreferenced"
            elif ref["outcome"] == "unstable":
                rec["drift"] = "unstable"
            elif ref["digest"] != digest(stdout):
                rec["drift"] = "changed"
        elif status == "decided":
            rec["wrong"] = checks.check_equivalence(result)
        records.append(rec)
    if calib is not None:
        calib.stop()
        for rec in records:
            wall, cpu = calib.excluded(rec["start"], rec["end"])
            rec["wall_s"] -= wall
            rec["cpu_s"] -= cpu
            rec["ref_s"] = calib.reference_s(rec["start"], rec["end"])

    out = {"records": records,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed,
                                 "records": records})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
