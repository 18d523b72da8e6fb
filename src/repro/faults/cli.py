"""``python -m repro.faults`` — the resilience-sweep command line.

Runs BP-M and/or a VGG-geometry convolution pass across a fault-rate
grid and reports output quality against the fault-free golden run::

    python -m repro.faults --rates 0,1e-6,1e-5,1e-4 --seeds 0,1 \\
        --mechanism dram --out sweep.json --csv sweep.csv

The zero-rate point runs with the injector attached and must match the
golden run exactly (byte-identical simulation); CI asserts this.  Output
paths and the rate grid are checked before any simulation: a bad one is
one ``error: config:`` line naming its flag, and exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.cli import check_output_paths
from repro.errors import ConfigError
from repro.faults.sweep import (
    DEFAULT_RATES,
    MECHANISMS,
    WORKLOADS,
    check_grid,
    run_sweep,
    write_csv,
    write_json,
)


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _workloads(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    # An infinite timeout overflows the per-point alarm, and a NaN one
    # never fires.
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {value}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Fault-injection resilience sweep over VIP workloads.",
    )
    parser.add_argument("--workloads", type=_workloads,
                        default=list(WORKLOADS),
                        help="comma-separated subset of: "
                             + ",".join(WORKLOADS))
    parser.add_argument("--rates", type=_floats,
                        default=list(DEFAULT_RATES),
                        help="comma-separated fault rates (include 0 for "
                             "the golden-equality anchor)")
    parser.add_argument("--seeds", type=_ints, default=[0],
                        help="comma-separated injector seeds")
    parser.add_argument("--mechanism", choices=sorted(MECHANISMS),
                        default="dram", help="which fault mechanism to sweep")
    parser.add_argument("--ecc", action="store_true",
                        help="enable the SECDED ECC model on DRAM reads")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale workload geometry (default: quick)")
    parser.add_argument("--max-workers", type=_positive_int, default=None)
    parser.add_argument("--timeout", type=_positive_float, default=None,
                        help="per-point wall-clock budget in seconds")
    parser.add_argument("--retries", type=_nonneg_int, default=0,
                        help="retry budget per point (for timeouts)")
    parser.add_argument("--checkpoint", default=None,
                        help="journal completed points to this file")
    parser.add_argument("--resume", action="store_true",
                        help="reuse points already journaled in --checkpoint")
    parser.add_argument("--out", default=None, help="write JSON here")
    parser.add_argument("--csv", default=None, help="write CSV here")
    return parser


def _run(args) -> dict:
    from repro.perf.checkpoint import TaskCheckpoint

    if args.resume and not args.checkpoint:
        raise ConfigError("--resume requires --checkpoint PATH")
    check_output_paths({"--out": args.out, "--csv": args.csv,
                        "--checkpoint": args.checkpoint})
    check_grid(args.workloads, args.rates, args.seeds, args.mechanism)
    checkpoint = None
    if args.checkpoint:
        meta = {"tool": "repro.faults", "mechanism": args.mechanism,
                "ecc": args.ecc, "quick": not args.full,
                "workloads": sorted(args.workloads),
                "rates": [float(r) for r in args.rates],
                "seeds": [int(s) for s in args.seeds]}
        checkpoint = TaskCheckpoint(args.checkpoint, meta=meta,
                                    resume=args.resume)
    try:
        return run_sweep(
            workloads=args.workloads,
            rates=args.rates,
            seeds=args.seeds,
            mechanism=args.mechanism,
            ecc=args.ecc,
            quick=not args.full,
            max_workers=args.max_workers,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint=checkpoint,
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _run(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    header = (f"{'workload':<8} {'rate':>10} {'seed':>5} {'ok':>3} "
              f"{'quality':>22} {'faults':>7}")
    print(header)
    print("-" * len(header))
    for row in payload["points"]:
        if not row["ok"]:
            quality = row["error"][:22]
            faults = "-"
        elif row["workload"] == "bp":
            quality = (f"agree={row['agreement']:.3f} "
                       f"E/E0={row['energy_ratio']:.3f}")
            faults = str(row["faults_injected"])
        else:
            quality = f"mse={row['mse']:.4g}"
            faults = str(row["faults_injected"])
        print(f"{row['workload']:<8} {row['rate']:>10g} {row['seed']:>5} "
              f"{str(row['ok']).lower():>3} {quality:>22} {faults:>7}")
    failed = sum(1 for row in payload["points"] if not row["ok"])
    if failed:
        print(f"{failed} point(s) failed (salvaged as ok=false rows)",
              file=sys.stderr)
    if args.out:
        write_json(payload, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        write_csv(payload, args.csv)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
