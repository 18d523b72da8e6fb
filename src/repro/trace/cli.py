"""``python -m repro.trace`` — run a named kernel with tracing on.

Runs one of the harness kernels (:mod:`repro.kernels.harness`: a BP-M
tile sweep on a four-PE vault, a VGG-shaped conv pass, or an FC tile,
each at its quick geometry and seed) with a :class:`TraceCollector`
attached to the PEs and the memory system, cross-validates the
simulator's counters against the event stream, and writes the requested
artifacts (Chrome trace JSON for Perfetto, CSV, text profile report).

Invalid sizes, a negative ``--top`` and unwritable output paths exit
with status 2 and a one-line ``error: config:`` message on stderr before
any kernel runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import check_output_paths
from repro.errors import ConfigError
from repro.kernels.harness import run_sim_kernel, run_vault_bp_tile
from repro.trace.collector import TraceCollector
from repro.trace.crosscheck import assert_counters_match
from repro.trace.export import write_chrome_trace, write_csv
from repro.trace.report import profile_report

#: The single-PE CLI kernels and the harness kernels they run.
_SINGLE_PE = {"conv": "conv-pass", "fc": "fc-chunk"}
KERNELS = ("bp-tile", *_SINGLE_PE)

#: The smallest bp-tile geometry: one pixel, two disparity labels.
_BP_TILE_MINIMUMS = (("rows", 1), ("cols", 1), ("labels", 2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a named kernel with event tracing and write "
        "Chrome-trace/CSV/report artifacts.",
    )
    parser.add_argument("--kernel", choices=KERNELS, default="bp-tile")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace-event JSON path (Perfetto-loadable)")
    parser.add_argument("--csv", default=None, help="also write a CSV event dump")
    parser.add_argument("--report", default=None,
                        help="also write the text profile report ('-' for stdout)")
    parser.add_argument("--rows", type=int, default=8, help="bp-tile rows")
    parser.add_argument("--cols", type=int, default=8, help="bp-tile cols")
    parser.add_argument("--labels", type=int, default=4, help="bp-tile labels")
    parser.add_argument("--top", type=int, default=10,
                        help="top-N slowest LSU requests in the report")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the counters-from-events cross-validation")
    return parser


def _run(args) -> int:
    minimums = _BP_TILE_MINIMUMS if args.kernel == "bp-tile" else ()
    for name, least in minimums + (("top", 0),):
        value = getattr(args, name)
        if value < least:
            raise ConfigError(f"--{name}: must be >= {least}, got {value}")
    check_output_paths({
        "--out": args.out, "--csv": args.csv,
        "--report": None if args.report == "-" else args.report})

    tc = TraceCollector()
    if args.kernel == "bp-tile":
        run = run_vault_bp_tile(trace=tc,
                                size=(args.rows, args.cols, args.labels))
    else:
        run = run_sim_kernel(_SINGLE_PE[args.kernel], quick=True, trace=tc)
    counters = run.counters

    if not args.no_check:
        assert_counters_match(counters, tc.events)
        print(f"cross-check ok: counters from {len(tc.events)} events match "
              f"the simulator ({counters.instructions} instructions)")

    write_chrome_trace(args.out, tc.events)
    print(f"wrote {args.out} ({len(tc.events)} events)")
    if args.csv:
        write_csv(args.csv, tc.events)
        print(f"wrote {args.csv}")
    if args.report == "-":
        print(profile_report(tc.events, top_n=args.top))
    elif args.report:
        with open(args.report, "w") as f:
            f.write(profile_report(tc.events, top_n=args.top))
        print(f"wrote {args.report}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
