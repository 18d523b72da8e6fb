"""End-to-end benchmark of the VIP simulator: speed, memory and fidelity.

Run all four workloads (5 repetitions each, interleaved), check their
outputs and print every end-to-end metric::

    python3 benchmarks/e2e/run.py --seed 0 --out a.json

One workload for a fixed measuring time, plus a traced repetition that
times each layer from outside the program::

    python3 benchmarks/e2e/run.py --workload mrf-fhd --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --workload mrf-fhd --trace 1

Compare two result files (exit 3 on a regression or when the simulated
fingerprints of equal-seed runs differ)::

    python3 benchmarks/e2e/run.py compare a.json b.json

Every repetition runs in a fresh child process, one child at a time,
interleaved across workloads (rep 1: w1..w4, rep 2: w1..w4, ...) so host
drift lands on every workload.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and the ``metrics``
listed in ``BENCHMARK.json`` (end-to-end ones untraced, per-layer ones
with ``--trace 1``).  Exit status: 0 when every gate, trace check and
fingerprint holds, 3 when one fails, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCHEMA = "benchmarks.e2e/v1"

#: Seconds one child may take before it is killed and counted as failed.
CHILD_TIMEOUT_S = 150
#: Repetitions in a ``--seconds`` run (at least), untraced / traced.
MIN_REPS = {False: 3, True: 1}

KERNEL, SERVE = "kernel", "serve"
#: End-to-end metrics: name -> (unit, better, bound, workload kinds).
#: ``bound`` is the share of the baseline median a metric may worsen by;
#: ``None`` marks a simulated value that must repeat exactly.  Host-time
#: bounds are as tight as a shared 2-core host resolves (README), and
#: set-up keeps the largest so that work moved into it shows.
METRICS = {
    "setup_s": ("s", "lower", 0.25, (KERNEL, SERVE)),
    "run_s": ("s", "lower", 0.24, (KERNEL, SERVE)),
    "peak_rss_mb": ("MB", "lower", 0.05, (KERNEL, SERVE)),
    "sim_minstr_per_s": ("Minstr/s", "higher", 0.24, (KERNEL,)),
    "sim_kreq_per_s": ("kreq/s", "higher", 0.24, (SERVE,)),
    "paper_err_pct": ("%", "lower", None, (KERNEL,)),
    "sim_p50_ms": ("sim_ms", "lower", None, (SERVE,)),
    "sim_p999_ms": ("sim_ms", "lower", None, (SERVE,)),
    "sim_goodput_krps": ("sim_kreq/s", "higher", None, (SERVE,)),
    "failed_frac": ("ratio", "lower", None, (KERNEL, SERVE)),
}

#: The metrics the last output line carries (they match BENCHMARK.json).
#: Host-time metrics of layers that only some workloads use are left out
#: there, because they read 0 on the others; the results file and the
#: printed tables carry every metric.
DRIVER_END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
DRIVER_PER_LAYER = (
    "kernels.build_s", "kernels.build_calls", "kernels.reuse_ratio",
    "pe.self_s", "pe.instructions", "pe.host_ns_per_instr", "pe.decode_s",
    "pe.batch.flush_s", "pe.batch.flushes", "pe.batch.ops_per_flush",
    "system.self_s", "system.runs", "system.bound_check_s",
    "system.bound_checks", "system.steps_per_bound_check",
    "memory.vault_s", "memory.vault_accesses", "memory.store_s",
    "memory.store_bytes", "memory.row_hit_rate", "memory.dram_bytes",
    "noc.transfer_s", "noc.transfers",
    "serve.costmodel.shapes", "serve.fleet.steps", "serve.fleet.advances",
    "serve.batcher.adds", "serve.queueing.offers", "serve.queueing.shed",
    "serve.cluster.gossip_ticks", "harness.self_s",
    "trace.overhead_ratio", "trace.unattributed_frac",
)


# ----------------------------------------------------------------------
# statistics and verdicts


def summary(values: list[float]) -> dict:
    """Median, quartiles and count, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def spread(stats: dict) -> float:
    """Interquartile distance as a share of the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def verdict(a: dict, b: dict, better: str, bound: float | None) -> str:
    """Compare run set ``b`` against baseline ``a`` (both summaries).

    ``ok`` within the bound, ``improved``/``regressed`` beyond it, and
    ``unresolved`` when either side's spread exceeds the bound, unless
    every run on one side beats every run on the other.  Exact metrics
    (``bound is None``) are ``ok`` only when the medians are equal.
    """
    sign = 1 if better == "lower" else -1
    if bound is None:
        if a["median"] == b["median"]:
            return "ok"
        return "regressed" if sign * (b["median"] - a["median"]) > 0 \
            else "improved"
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a["values"] for y in b["values"]):
            return "improved"
        if all(sign * (y - x) > 0 for x in a["values"] for y in b["values"]):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "ok"


# ----------------------------------------------------------------------
# running children


def spawn(name: str, seed: int, size: str, traced: bool,
          trace_dir: Path) -> dict:
    """Run one repetition in a fresh interpreter; its record, with the
    set-up time measured from the spawn, or ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "run.py"), "child", "--workload", name,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced))]
    if traced:
        cmd += ["--trace-out", str(trace_dir / f"trace-{name}.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{name}: child timed out after {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"error": f"{name}: child exited {proc.returncode}: {tail}"}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_run_start"] - t_spawn
    return record


def run_reps(names: list[str], seed: int, size: str, reps: int,
             seconds: float, traced: bool,
             trace_dir: Path) -> dict[str, list[dict]]:
    """Interleaved repetitions: ``reps`` of them, or as many as start
    within ``seconds`` (at least :data:`MIN_REPS`).  With ``traced`` each
    repetition is an untraced child followed by a traced one."""
    records: dict[str, list[dict]] = {n: [] for n in names}
    start = time.monotonic()
    rep = 0
    while True:
        rep += 1
        for name in names:
            for t in ((False, True) if traced else (False,)):
                record = spawn(name, seed, size, t, trace_dir)
                records[name].append(record)
                print(f"# rep {rep} {name}{' traced' if t else ''}: "
                      + (record["error"] if "error" in record
                         else f"run {record['run_s']:.3f} s"),
                      file=sys.stderr)
        if seconds:
            if rep >= MIN_REPS[traced] and time.monotonic() - start >= seconds:
                break
        elif rep >= reps:
            break
    return records


def aggregate(name: str, kind: str, records: list[dict]) -> dict:
    """Fold one workload's child records into its results entry."""
    import workloads

    errors = [r["error"] for r in records if "error" in r]
    plain = [r for r in records if "error" not in r and not r["traced"]]
    traced = [r for r in records if "error" not in r and r["traced"]]
    entry: dict = {"kind": kind, "errors": errors, "metrics": {}}
    if plain:
        series = {
            "setup_s": [r["setup_s"] for r in plain],
            "run_s": [r["run_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        if kind == KERNEL:
            series["sim_minstr_per_s"] = [r["work"] / r["run_s"] / 1e6
                                          for r in plain]
            series["failed_frac"] = [
                sum(not ok for ok in r["gates"].values()) / len(r["gates"])
                for r in plain]
        else:
            series["sim_kreq_per_s"] = [r["work"] / r["run_s"] / 1e3
                                        for r in plain]
        for metric, (unit, better, bound, kinds) in METRICS.items():
            if kind not in kinds:
                continue
            values = series.get(metric) or [r["sim"][metric] for r in plain]
            entry["metrics"][metric] = {"unit": unit, "better": better,
                                        "bound": bound, **summary(values)}
        entry["gates"] = {g: all(r["gates"][g] for r in plain)
                          for g in plain[0]["gates"]}
    if traced:
        layers = {m: summary([r["layers"][m] for r in traced])["median"]
                  for m in traced[0]["layers"]}
        layers.update({m: traced[0]["sim"].get(m, 0)
                       for m in workloads.SIM_UNITS})
        if plain:
            layers["trace.overhead_ratio"] = (
                statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in plain))
        entry["layers"] = layers
        entry["checks"] = {c: all(r["checks"][c] for r in traced)
                           for c in traced[0]["checks"]}
    prints = [r["fingerprint"] for r in plain + traced]
    entry["fingerprint"] = prints[0] if len(set(prints)) == 1 else None
    entry["fingerprint_mismatches"] = sum(p != prints[0] for p in prints[1:])
    entry["attempted"] = len(records)
    entry["failed"] = (len(errors) + entry["fingerprint_mismatches"]
                       + sum(not all(r["gates"].values()) for r in plain)
                       + sum(not all(r["checks"].values()) for r in traced))
    return entry


def layer_unit(metric: str) -> str:
    import spans
    import workloads

    if metric == "trace.overhead_ratio":
        return "ratio"
    return spans.LAYER_UNITS.get(metric) or workloads.SIM_UNITS[metric]


def render(name: str, entry: dict, seed: int) -> list[str]:
    lines = [f"{name} (seed {seed}, {entry['attempted']} children)"]
    for metric, s in entry["metrics"].items():
        lines.append(f"  {metric:<18} {s['median']:>14.6g} {s['unit']:<10} "
                     f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
    for gate, ok in entry.get("gates", {}).items():
        lines.append(f"  gate  {gate:<34} {'ok' if ok else 'FAILED'}")
    for check, ok in entry.get("checks", {}).items():
        lines.append(f"  trace {check:<34} {'ok' if ok else 'FAILED'}")
    for metric, value in entry.get("layers", {}).items():
        lines.append(f"  layer {metric:<36} {value:>14.6g} "
                     f"{layer_unit(metric)}")
    fp = entry["fingerprint"]
    lines.append(f"  fingerprint {fp[:16] + '...' if fp else 'MISMATCH'}")
    lines.extend(f"  error {e}" for e in entry["errors"])
    return lines


def cmd_run(args) -> int:
    import workloads

    kinds = {name: w.kind for name, w in workloads.WORKLOADS.items()}
    names = [args.workload] if args.workload else list(kinds)
    trace_dir = Path(args.trace_dir)
    records = run_reps(names, args.seed, args.size, args.reps, args.seconds,
                       bool(args.trace), trace_dir)
    entries = {n: aggregate(n, kinds[n], records[n]) for n in names}
    for name in names:
        print("\n".join(render(name, entries[name], args.seed)))
    result = {
        "schema": SCHEMA, "seed": args.seed, "size": args.size,
        "trace": bool(args.trace),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": entries,
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1))
    wanted = DRIVER_PER_LAYER if args.trace else DRIVER_END_TO_END
    metrics = {}
    for name, entry in entries.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in wanted:
            if args.trace and metric in entry.get("layers", {}):
                metrics[prefix + metric] = {"value": entry["layers"][metric],
                                            "unit": layer_unit(metric)}
            elif not args.trace and metric in entry["metrics"]:
                s = entry["metrics"][metric]
                metrics[prefix + metric] = {"value": s["median"],
                                            "unit": s["unit"]}
    failed = sum(e["failed"] for e in entries.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(e["attempted"] for e in entries.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 3


# ----------------------------------------------------------------------
# compare


def compare(a: dict, b: dict) -> tuple[list[tuple], list[str]]:
    """(rows, fingerprint mismatches) for result sets ``a`` -> ``b``."""
    rows = []
    mismatches = []
    same_inputs = (a["seed"], a["size"]) == (b["seed"], b["size"])
    for name, ea in a["workloads"].items():
        eb = b["workloads"].get(name)
        if eb is None:
            continue
        for metric, sa in ea["metrics"].items():
            sb = eb["metrics"].get(metric)
            if sb is None:
                continue
            bound = sa["bound"]
            delta = (sb["median"] - sa["median"]) / abs(sa["median"]) \
                if sa["median"] else 0.0
            rows.append((name, metric, sa, sb, delta, bound,
                         verdict(sa, sb, sa["better"], bound)))
        if same_inputs and ea["fingerprint"] != eb["fingerprint"]:
            mismatches.append(name)
    return rows, mismatches


def cmd_compare(args) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    rows, mismatches = compare(a, b)
    print(f"{'workload':<22} {'metric':<18} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict")
    for name, metric, sa, sb, delta, bound, v in rows:
        side = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                for s in (sa, sb)]
        print(f"{name:<22} {metric:<18} {side[0]:<34} {side[1]:<34} "
              f"{delta:>+8.2%} {'exact' if bound is None else f'{bound:.0%}':>6}"
              f"  {v}")
    if (a["seed"], a["size"]) != (b["seed"], b["size"]):
        print("fingerprints not compared: the runs used different inputs")
    for name in mismatches:
        print(f"FINGERPRINT MISMATCH {name}: simulated outputs differ")
    regressed = [r for r in rows if r[-1] == "regressed"]
    return 3 if mismatches or regressed else 0


# ----------------------------------------------------------------------


def cmd_child(args) -> int:
    import workloads

    trace_out = Path(args.trace_out) if args.trace_out else None
    record = workloads.run_child(args.workload, args.seed, args.size,
                                 bool(args.trace), trace_out)
    print(json.dumps(record))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(argv[1:]))
    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if argv[:1] == ["child"]:
        p.add_argument("--trace-out")
        return cmd_child(p.parse_args(argv[1:]))
    p.add_argument("--reps", type=int, default=5,
                   help="repetitions per workload when --seconds is 0")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep repeating until this many seconds have passed")
    p.add_argument("--out", help="write the full results JSON here")
    p.add_argument("--trace-dir", default=str(HERE / "results"),
                   help="where traced children write trace-<workload>.json")
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
