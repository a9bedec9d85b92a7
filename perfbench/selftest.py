"""Self-test of the tracer.

Usage (from the repository root): python3 perfbench/selftest.py

1. After `Tracer.install()`, no `omfactor.*` module namespace or class may
   still hold an unwrapped reference to a traced function, and every target
   must be found.
2. A small slice of every workload, run untraced and traced in fresh
   workers, must give equal output digests.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import shutil
import sys

import run
import workloads
from tracer import Tracer


def check_wrapping() -> None:
    sys.path.insert(0, str(run.SRC))
    tracer = Tracer()
    tracer.install()
    left = tracer.leftover_originals()
    if tracer.missing or left:
        raise SystemExit(f"selftest: missing targets {tracer.missing}, unwrapped {left}")
    print(f"wrapping ok: {len(tracer.originals)} functions traced, none left unwrapped")


def check_digests(seed: int) -> None:
    run_dir = run.WORK / f"selftest-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    deadline = run.Deadline(run.RUN_LIMIT_S)
    try:
        slices = {
            "deep_tower": workloads.deep_tower(seed).ops[1:3],
            "wide_shallow": workloads.wide_shallow(seed).ops[:3],
            "random_sweep": [workloads.factor_op(p, workloads.poly_text(c))
                             for _, p, c in workloads.sweep_inputs(seed, 60)],
            "type_docs": run.build("type_docs", seed, 0, run_dir, deadline).ops[:60],
        }
        for name, ops in slices.items():
            job = {"ops": [op.argv for op in ops]}
            digests = [run.digest(ops, run.run_worker(run_dir, name, {**job, "trace": t},
                                                      deadline)["records"])
                       for t in (False, True)]
            if digests[0] != digests[1]:
                raise SystemExit(f"selftest: {name} digests differ: {digests}")
            print(f"digest ok: {name}, {len(ops)} ops, {digests[0][:16]}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    check_wrapping()
    check_digests(seed=3)
