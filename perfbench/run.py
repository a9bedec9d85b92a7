"""End-to-end benchmark of the omfactor command line.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run: generate the workload's ops from the seed and the seconds, time
the import of omfactor in fresh worker processes, run the ops in one fresh
worker (a closed loop with one client, one worker alive at a time), check
every output here in the parent with sympy, and print the metrics. The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it give the details.

The number of ops is fixed by the workload and --seconds: a prefix, then
about --seconds of op time at reference speed (workloads.WINDOW_OPS_PER_S),
so repeated runs attempt the same ops whatever the machine's speed.

--trace 0 prints the end-to-end metrics. --trace 1 runs the fixed prefix of
the workload twice, untraced and traced, checks that both give the same
output digest, and prints the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
from checks import FactorOracle, failure_classes  # noqa: E402
from tracer import metric_names  # noqa: E402
from worker import CAL_REF_S  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("deep_tower", "wide_shallow", "random_sweep", "type_docs")
SETUP_PROBES = 12  # import-only workers, besides the one that runs the ops
RUN_LIMIT_S = 170
FAILURE_CLASSES = ("raised", "nonzero_exit", "certify_failed", "oracle_mismatch")
# Timings are reported at reference speed: the speed at which one calibration
# burst (worker.py) takes CAL_REF_S. On a shared machine the speed moves by
# tens of percent from minute to minute; the bursts, timed in the same
# worker between ops, follow it. The unscaled values are printed as well.

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("failed_share", "ratio"),
    ("peak_rss_mb", "MB"),
]
DERIVED = [
    ("cli.self_s", "s"),
    ("finitefield.fq_factor.repeat_share", "ratio"),
    ("valuation.augment_per_node", "ratio"),
    ("montes.walks_per_op", "ratio"),
    ("trace.overhead", "ratio"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for name in metric_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + DERIVED


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise SystemExit("perfbench: run time limit exceeded")
        return left


def run_worker(run_dir: Path, name: str, job: dict, deadline: Deadline) -> dict:
    job_path, res_path = run_dir / f"{name}-job.json", run_dir / f"{name}-result.json"
    job_path.write_text(json.dumps({"src": str(SRC), **job}))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(res_path)],
        cwd=ROOT, stdout=sys.stderr, check=True, timeout=deadline.left(),
    )
    return json.loads(res_path.read_text())


def build(name: str, seed: int, seconds: int, run_dir: Path,
          deadline: Deadline) -> workloads.Workload:
    window = workloads.WINDOW_OPS_PER_S[name] * seconds
    if name != "type_docs":
        return workloads.GENERATORS[name](seed, window)
    docs = (run_dir / "docs").relative_to(ROOT)
    proc = subprocess.run(
        [sys.executable, str(HERE / "typedocs.py"), str(SRC), str(seed), str(docs)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True, timeout=deadline.left(),
    )
    ops = [workloads.Op(d["argv"], d["kind"]) for d in json.loads(proc.stdout)]
    # The prefix is one pass over the documents; the window re-runs them.
    passes = 1 + -(-window // len(ops))
    return workloads.Workload(name, (ops * passes)[:len(ops) + window], len(ops),
                              {"documents": len(list((ROOT / docs).iterdir())),
                               "ops_per_pass": len(ops)})


def digest(ops: list, records: list[dict]) -> str:
    h = hashlib.sha256()
    for op, rec in zip(ops, records):
        h.update(json.dumps([op.argv, rec["rc"], rec["out"]]).encode() + b"\n")
    return h.hexdigest()


def speed_scale(bursts: list[float]) -> float:
    """Factor that turns a time measured next to these bursts into
    reference time."""
    return CAL_REF_S / statistics.median(bursts)


def scaled_latencies(res: dict) -> list[float]:
    """Each op's latency at reference speed, scaled by the mean of the
    calibration events just before it, inside it and just after it."""
    times = [t for t, _ in res["cal"]]
    out = []
    for rec in res["records"]:
        before = bisect.bisect_right(times, rec["t0"]) - 1
        after = bisect.bisect_left(times, rec["t1"])
        burst = statistics.fmean(b for _, b in res["cal"][before:after + 1])
        out.append(rec["latency_s"] * CAL_REF_S / burst)
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile; the maximum (p100) below eleven samples."""
    lat = sorted(latencies)
    if len(lat) <= 10:
        return lat[-1], 100.0
    k = len(lat) - 11
    return lat[k], 100.0 * (k + 1) / len(lat)


def judge(ops: list, records: list[dict]) -> list[set]:
    oracle = FactorOracle()
    return [failure_classes(op, rec, oracle) for op, rec in zip(ops, records)]


def count(classes: list[set]) -> dict:
    counts = {c: sum(c in cl for cl in classes) for c in FAILURE_CLASSES}
    # Reported failures count in `failed`; an oracle mismatch on an op the
    # program reported as successful is a wrong answer and fails `correct`.
    counts["silent_wrong"] = sum(cl == {"oracle_mismatch"} for cl in classes)
    counts["failed"] = sum(bool(cl) for cl in classes)
    return counts


def recorded_digest(workload: str, seed: int) -> str | None:
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline["digests"].get(workload, {}).get(str(seed))


def timed_run(wl: workloads.Workload, seed: int, seconds: int, run_dir: Path,
              deadline: Deadline) -> dict:
    probes = [run_worker(run_dir, "probe", {"import_only": True}, deadline)
              for _ in range(SETUP_PROBES)]
    job = {"ops": [op.argv for op in wl.ops], "trace": False, "sample": True}
    res = run_worker(run_dir, "run", job, deadline)
    probes.append(res)
    recs = res["records"]
    classes = judge(wl.ops, recs)
    counts = count(classes)
    lat = [r["latency_s"] for r in recs]
    scaled = scaled_latencies(res)
    bursts = [b for _, b in res["cal"]]
    # the gaps between ops take the run's overall scale
    gaps = res["wall_s"] - sum(lat)
    scaled_wall = sum(scaled) + gaps * speed_scale(bursts)
    tail_s, tail_pct = tail(scaled)
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail(lat)[0],
        "ops_per_s": len(recs) / res["wall_s"],
    }
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * speed_scale(p["setup_cal_s"])
                                     for p in probes),
        "op_p50_ms": 1000 * statistics.median(scaled),
        "op_tail_ms": 1000 * tail_s,
        "ops_per_s": len(recs) / scaled_wall,
        "failed_share": counts["failed"] / len(recs),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    dig = digest(wl.ops[:wl.prefix], recs[:wl.prefix])
    want = recorded_digest(wl.name, seed)
    print(f"workload {wl.name} seed {seed}: {len(recs)} ops in {res['wall_s']:.3f} s "
          f"(the {wl.prefix}-op prefix, then {len(recs) - wl.prefix} for {seconds} s) "
          f"{wl.notes}")
    for label, part in (("all ops", classes), ("prefix", classes[:wl.prefix])):
        print(f"failures, {label}: " + ", ".join(f"{k} {v}" for k, v in count(part).items())
              + f" of {len(part)}")
    if wl.prefix <= 12:
        print("prefix op latencies, ms unscaled/at reference speed: "
              + " ".join(f"{1000 * a:.1f}/{1000 * b:.1f}"
                         for a, b in zip(lat[:wl.prefix], scaled[:wl.prefix])))
    print(f"op_tail_ms is p{tail_pct:.2f} of {len(lat)} samples; "
          f"setup_s is the median of {len(probes)} fresh imports")
    print(f"speed: calibration burst median {1000 * statistics.median(bursts):.4f} ms "
          f"(reference {1000 * CAL_REF_S:g} ms, {len(bursts)} events); unscaled "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"digest of the first {wl.prefix} ops: {dig} "
          f"(recorded: {'match' if dig == want else 'differs' if want else 'none'})")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:.6g} {unit}")
    return {
        "correct": counts["silent_wrong"] == 0,
        "attempted": len(recs),
        "failed": counts["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END},
    }


def traced_run(wl: workloads.Workload, seed: int, run_dir: Path, deadline: Deadline) -> dict:
    ops = wl.ops[:wl.prefix]
    job = {"ops": [op.argv for op in ops]}
    base = run_worker(run_dir, "untraced", {**job, "trace": False}, deadline)
    traced = run_worker(run_dir, "traced", {**job, "trace": True}, deadline)
    d_base = digest(ops, base["records"])
    d_traced = digest(ops, traced["records"])
    counts = count(judge(ops, traced["records"]))
    report = traced["trace"]
    stats = report["stats"]
    metrics: dict[str, float] = {}
    for name in metric_names():
        metrics[f"{name}.calls"] = stats[name]["calls"]
        metrics[f"{name}.self_s"] = stats[name]["self_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    factor_ops = sum(op.kind == "factor" for op in ops)
    metrics["cli.self_s"] = stats["cli"]["self_s"]
    metrics["finitefield.fq_factor.repeat_share"] = ratio(
        report["fq_factor_repeats"], stats["finitefield.fq_factor"]["calls"])
    metrics["valuation.augment_per_node"] = ratio(
        stats["valuation.augment"]["calls"], stats["montes.branch"]["calls"])
    metrics["montes.walks_per_op"] = ratio(stats["montes.run"]["calls"], factor_ops)
    metrics["trace.overhead"] = ratio(
        sum(scaled_latencies(traced)), sum(scaled_latencies(base))) - 1
    spans_path = WORK / f"spans-{wl.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"fields": ["op", "name", "start", "end", "parent"],
                                      "spans": report["spans"]}))
    print(f"workload {wl.name} seed {seed}: traced the first {len(ops)} ops; "
          f"spans in {spans_path.relative_to(ROOT)}")
    print(f"digest untraced {d_base}")
    print(f"digest traced   {d_traced} ({'equal' if d_base == d_traced else 'DIFFERENT'})")
    if report["missing"]:
        print(f"trace targets not found: {report['missing']}")
    units = dict(per_layer_metrics())
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    return {
        "correct": d_base == d_traced and counts["silent_wrong"] == 0,
        "attempted": len(ops),
        "failed": counts["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in per_layer_metrics()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "omfactor" / "cli.py").is_file():
        raise SystemExit(f"perfbench: omfactor sources not found under {SRC}")
    deadline = Deadline(RUN_LIMIT_S)
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # a traced run runs only the prefix
        seconds = 0 if args.trace else args.seconds
        wl = build(args.workload, args.seed, seconds, run_dir, deadline)
        if args.trace:
            result = traced_run(wl, args.seed, run_dir, deadline)
        else:
            result = timed_run(wl, args.seed, args.seconds, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
