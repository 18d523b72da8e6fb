"""``python -m repro.trace`` — run a named kernel with tracing on.

Runs one of the reference kernels (a BP-M tile sweep on a four-PE vault, a
VGG-shaped conv pass, or an FC tile) with a :class:`TraceCollector`
attached, cross-validates the simulator's counters against the event
stream, and writes the requested artifacts (Chrome trace JSON for
Perfetto, CSV, text profile report).

Invalid sizes and unwritable output paths exit with status 2 and a
one-line ``error: config:`` message on stderr before any kernel runs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.cli import check_output_paths
from repro.errors import ConfigError
from repro.pe.counters import PECounters
from repro.trace.collector import TraceCollector
from repro.trace.crosscheck import assert_counters_match
from repro.trace.export import write_chrome_trace, write_csv
from repro.trace.report import profile_report

KERNELS = ("bp-tile", "conv", "fc")

#: The smallest bp-tile geometry: one pixel, two disparity labels.
_BP_TILE_MINIMUMS = (("rows", 1), ("cols", 1), ("labels", 2))


def _run_bp_tile(tc: TraceCollector, rows: int, cols: int, labels: int) -> PECounters:
    """One full BP-M iteration (all four sweep directions) on one vault."""
    from repro.kernels.bp_kernel import (
        BPTileLayout,
        build_vault_sweep_programs,
        cross_extent,
    )
    from repro.system.chip import Chip
    from repro.system.config import VIPConfig
    from repro.workloads.bp import stereo_mrf
    from repro.workloads.bp.mrf import DIRECTIONS

    config = VIPConfig(trace=tc)
    chip = Chip(config, num_pes=config.pes_per_vault)
    mrf, _ = stereo_mrf(rows, cols, labels=labels, seed=7)
    layout = BPTileLayout(base=4096, rows=mrf.rows, cols=mrf.cols, labels=mrf.labels)
    layout.stage(chip.hmc.store, mrf, mrf.zero_messages())
    counters = PECounters()
    for direction in DIRECTIONS:
        pes = min(config.pes_per_vault, cross_extent(layout, direction))
        chip.run(build_vault_sweep_programs(layout, direction, pes))
    # Counters accumulate in the PEs across the four sweeps.
    return PECounters.sum(pe.counters for pe in chip.pes)


def _run_conv(tc: TraceCollector) -> PECounters:
    """A VGG-geometry conv pass (z=64, k=3, two filters) on one PE."""
    from repro.kernels.conv_kernel import ConvTileLayout, build_conv_pass_program
    from repro.memory.hmc import HMC
    from repro.pe.config import PEConfig
    from repro.pe.memoryif import LocalVaultMemory
    from repro.pe.pe import PE

    rng = np.random.default_rng(7)
    out_h, out_w, z, k, filters = 4, 8, 64, 3, 2
    inputs = rng.integers(-30, 30, (out_h, out_w, z)).astype(np.int16)
    weights = rng.integers(-20, 20, (filters, k, k, z)).astype(np.int16)
    bias = rng.integers(-10, 10, filters).astype(np.int16)
    layout = ConvTileLayout(base=4096, in_h=out_h + 2, in_w=out_w + 2, z=z, k=k,
                            num_filters=filters, out_h=out_h, out_w=out_w)
    hmc = HMC(trace=tc)
    layout.stage(hmc.store, inputs, weights, bias)
    pe = PE(PEConfig(trace=tc), memory=LocalVaultMemory(hmc, vault=0, trace=tc))
    result = pe.run(build_conv_pass_program(layout, 0, filters, 0, out_h, fx=8,
                                            strip_rows=2))
    return result.counters


def _run_fc(tc: TraceCollector) -> PECounters:
    """One FC partial-product tile on one PE."""
    from repro.kernels.fc_kernel import FCTileLayout, build_fc_partial_program
    from repro.memory.hmc import HMC
    from repro.pe.config import PEConfig
    from repro.pe.memoryif import LocalVaultMemory
    from repro.pe.pe import PE

    rng = np.random.default_rng(7)
    rows, chunk = 16, 64
    W = rng.integers(-40, 40, (rows, chunk)).astype(np.int16)
    X = rng.integers(-40, 40, (1, chunk)).astype(np.int16)
    layout = FCTileLayout(base=8192, rows=rows, chunk=chunk, batch=1)
    hmc = HMC(trace=tc)
    layout.stage(hmc.store, W, X)
    pe = PE(PEConfig(trace=tc), memory=LocalVaultMemory(hmc, vault=0, trace=tc))
    result = pe.run(build_fc_partial_program(layout, fx=6))
    return result.counters


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
    if args.kernel == "bp-tile":
        for name, least in _BP_TILE_MINIMUMS:
            value = getattr(args, name)
            if value < least:
                raise ConfigError(
                    f"--{name}: must be >= {least}, got {value}")
    check_output_paths({
        "--out": args.out, "--csv": args.csv,
        "--report": None if args.report == "-" else args.report})

    tc = TraceCollector()
    if args.kernel == "bp-tile":
        counters = _run_bp_tile(tc, args.rows, args.cols, args.labels)
    elif args.kernel == "conv":
        counters = _run_conv(tc)
    else:
        counters = _run_fc(tc)

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
