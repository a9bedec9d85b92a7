"""Timed worker: imports omfactor in a fresh process and runs CLI ops.

Usage: python3 worker.py JOB.json RESULT.json

The job names the source directory, the argv list of each op, whether to
trace and whether to sample (below); the worker runs every op on the list.
With "import_only" the worker just reports its import time. Each op is one
call to `omfactor.cli.main(argv)` with stdout and stderr captured; ops run
one after another and module state carries from op to op.

The worker also times a fixed pure-Python calibration burst: ten before and
ten after the import, and CAL_BURSTS at least every CAL_EVERY_S between
ops, so every op has calibration events just before and just after it.
With "sample" a timer signal also runs one burst every SAMPLE_EVERY_S
inside the ops; an op's latency excludes the bursts run inside it. The
parent scales each time by the bursts around and inside it to take the
speed of a shared machine out of the timings.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

CAL_EVERY_S = 0.25
CAL_BURSTS = 3
CAL_REF_S = 0.002  # burst time that defines reference speed
# A long op sees the machine's speed change while it runs; bursts at its
# ends alone left one degree-16 op spreading by 16 % between quartiles,
# bursts inside it by 4 %.
SAMPLE_EVERY_S = 0.05


def _burst() -> None:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, i + 7)
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def calibrate(n: int) -> list[float]:
    """Durations of n calibration bursts. The collector is off so that the
    program's heap does not slow the bursts down."""
    out = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            _burst()
            out.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return out


class Calibration:
    """The calibration events of a run, as [time, burst] pairs in time
    order, and the time spent on bursts."""

    def __init__(self) -> None:
        self.events: list[list[float]] = []
        self.inner: list[tuple[float, float]] = []  # (start, end) of timer bursts
        self.total = 0.0
        self._busy = False

    def between_ops(self) -> None:
        self._busy = True
        bursts = calibrate(CAL_BURSTS)
        self._busy = False
        self.total += sum(bursts)
        self.events.append([time.perf_counter(), sorted(bursts)[len(bursts) // 2]])

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        start = time.perf_counter()
        burst = calibrate(1)[0]
        end = time.perf_counter()
        self.total += end - start
        self.inner.append((start, end))
        self.events.append([end, burst])

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_op(main, argv: list[str], cal: Calibration) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    seen = len(cal.inner)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaping exception is a failed op, not a harness fault
            rc = None
            raised = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    # A timer burst runs whole between two bytecodes, so it lies either
    # inside [t0, t1] or outside.
    bursts = sum(e - s for s, e in cal.inner[seen:] if s >= t0 and e <= t1)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
            "raised": raised, "t0": t0, "t1": t1, "latency_s": t1 - t0 - bursts}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    calibrate(3)  # warm-up: the interpreter specializes the burst's code
    cal = calibrate(10)
    t0 = time.perf_counter()
    import omfactor.cli
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s, "setup_cal_s": cal + calibrate(10)}
    if not job.get("import_only"):
        tracer = None
        if job["trace"]:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cli_main = omfactor.cli.main if tracer is None else tracer.wrap_op(omfactor.cli.main)
        records = []
        cal = Calibration()
        start = time.perf_counter()
        next_cal = start
        if job.get("sample"):
            cal.start_timer()
        try:
            for argv in job["ops"]:
                if time.perf_counter() >= next_cal:
                    cal.between_ops()
                    next_cal = time.perf_counter() + CAL_EVERY_S
                records.append(run_op(cli_main, argv, cal))
        finally:
            cal.stop_timer()
        cal.between_ops()
        # wall time of the ops alone, without the calibration bursts
        result["wall_s"] = time.perf_counter() - start - cal.total
        result["cal"] = cal.events
        result["records"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracer.report()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
