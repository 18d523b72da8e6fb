"""The fault-injection subsystem: determinism, zero-cost-off, ECC, sweep."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, UncorrectableEccError
from repro.faults import NO_FAULTS, FaultConfig, FaultInjector, stream_seed
from repro.memory.store import DramStore
from repro.kernels.harness import SIM_BENCHES, run_sim_kernel


class TestConfig:
    def test_defaults_disabled(self):
        cfg = FaultConfig()
        assert not cfg.any_rate_set
        assert not NO_FAULTS.enabled
        assert FaultInjector(cfg).enabled

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultConfig(dram_read_flip_rate=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(noc_drop_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultConfig(ecc_double_bit="explode")

    def test_stream_seed_stable_and_distinct(self):
        assert stream_seed(0, "dram") == stream_seed(0, "dram")
        assert stream_seed(0, "dram") != stream_seed(0, "sp")
        assert stream_seed(0, "dram") != stream_seed(1, "dram")


class TestZeroCostOff:
    """An attached all-zero-rate injector must not perturb anything."""

    @pytest.mark.parametrize("name", SIM_BENCHES)
    def test_kernels_byte_identical(self, name):
        baseline = run_sim_kernel(name, quick=True)
        injected = run_sim_kernel(name, quick=True,
                                  faults=FaultInjector(FaultConfig(seed=3)))
        baseline.assert_equal(injected, f"{name} with zero-rate injector")

    def test_zero_rate_injects_nothing(self):
        injector = FaultInjector(FaultConfig(seed=3))
        run_sim_kernel("conv-pass", quick=True, faults=injector)
        assert injector.stats.total_injected == 0


class TestDeterminism:
    def test_same_seed_same_faults(self):
        def run(seed):
            injector = FaultInjector(FaultConfig(
                seed=seed, dram_read_flip_rate=1e-4))
            result = run_sim_kernel("conv-pass", quick=True, faults=injector)
            return result, injector.stats.as_dict()

        a, stats_a = run(5)
        b, stats_b = run(5)
        a.assert_equal(b, "same-seed fault runs")
        assert stats_a == stats_b
        assert stats_a["dram_read_flips"] > 0

    def test_different_seed_different_faults(self):
        def run(seed):
            injector = FaultInjector(FaultConfig(
                seed=seed, dram_read_flip_rate=1e-3))
            run_sim_kernel("conv-pass", quick=True, faults=injector)
            return injector.stats.as_dict()

        assert run(1) != run(2)

    def test_category_streams_independent(self):
        """Enabling a second mechanism must not shift the first's faults."""
        def dram_stats(extra):
            injector = FaultInjector(FaultConfig(
                seed=9, dram_read_flip_rate=1e-4, **extra))
            run_sim_kernel("conv-pass", quick=True, faults=injector)
            return injector.stats.dram_read_flips

        assert dram_stats({}) == dram_stats({"compute_flip_rate": 1e-3})


class TestDramAndEcc:
    def _one_flip_injector(self, ecc):
        """A seed whose first 8-byte read draws exactly one flip."""
        for seed in range(200):
            probe = FaultInjector(FaultConfig(seed=seed,
                                              dram_read_flip_rate=0.01))
            probe.bind_store(DramStore(1 << 20), None)
            data = np.zeros(8, dtype=np.uint8)
            probe.dram_read(0, 0, data, 0.0)
            if probe.stats.dram_read_flips == 1:
                return FaultInjector(FaultConfig(
                    seed=seed, dram_read_flip_rate=0.01, ecc=ecc))
        pytest.fail("no single-flip seed found")

    def test_flip_delivered_without_ecc(self):
        injector = self._one_flip_injector(ecc=False)
        injector.bind_store(DramStore(1 << 20), None)
        data = np.zeros(8, dtype=np.uint8)
        done = injector.dram_read(0, 0, data, 10.0)
        assert done == 10.0  # no ECC, no latency penalty
        assert int(np.unpackbits(data).sum()) == 1

    def test_single_bit_corrected_with_ecc(self):
        injector = self._one_flip_injector(ecc=True)
        injector.bind_store(DramStore(1 << 20), None)
        data = np.zeros(8, dtype=np.uint8)
        done = injector.dram_read(0, 0, data, 10.0)
        assert not data.any()  # corrected: delivered clean
        assert injector.stats.ecc_corrected_words == 1
        assert done == 10.0 + injector.config.ecc_correction_cycles

    def test_double_bit_raises(self):
        injector = FaultInjector(FaultConfig(
            seed=0, dram_read_flip_rate=0.5, ecc=True))
        injector.bind_store(DramStore(1 << 20), None)
        with pytest.raises(UncorrectableEccError):
            injector.dram_read(0, 0, np.zeros(8, dtype=np.uint8), 0.0)

    def test_double_bit_counted_when_configured(self):
        injector = FaultInjector(FaultConfig(
            seed=0, dram_read_flip_rate=0.5, ecc=True, ecc_double_bit="count"))
        injector.bind_store(DramStore(1 << 20), None)
        data = np.zeros(8, dtype=np.uint8)
        injector.dram_read(0, 0, data, 0.0)
        assert injector.stats.ecc_uncorrectable_words >= 1
        assert data.any()  # delivered corrupted, run continues

    def test_one_injector_per_store(self):
        injector = FaultInjector(FaultConfig(seed=0))
        injector.bind_store(DramStore(1 << 20), None)
        with pytest.raises(ConfigError):
            injector.bind_store(DramStore(1 << 20), None)


class TestScratchpadAndNoc:
    def test_stuck_cells_applied_at_power_on(self):
        from repro.pe.config import PEConfig
        from repro.pe.pe import PE

        injector = FaultInjector(FaultConfig(seed=4, sp_stuck_cell_rate=0.01))
        pe = PE(PEConfig(faults=injector))
        assert pe.scratchpad.any()  # stuck-at-1 cells show in a zeroed SP
        image = pe.scratchpad.copy()
        pe.reset()
        assert np.array_equal(pe.scratchpad, image)  # per-PE deterministic

    def test_noc_drops_add_reinjection_latency(self):
        from repro.noc.torus import TorusNetwork

        clean = TorusNetwork()
        injector = FaultInjector(FaultConfig(seed=1, noc_drop_rate=0.9))
        lossy = TorusNetwork(faults=injector)
        base = clean.transfer(0.0, 0, 1, 64)
        slow = lossy.transfer(0.0, 0, 1, 64)
        assert slow > base
        assert injector.stats.noc_drops > 0
        assert injector.stats.noc_retries <= injector.config.noc_max_retries

    def test_fault_events_reach_trace(self):
        from repro.trace import TraceCollector

        injector = FaultInjector(FaultConfig(seed=2, dram_read_flip_rate=1e-3))
        collector = TraceCollector()
        injector.bind_trace(collector)
        injector.bind_store(DramStore(1 << 20), None)
        injector.dram_read(0, 0, np.zeros(4096, dtype=np.uint8), 0.0)
        kinds = {event.kind for event in collector.events}
        assert "fault.dram" in kinds


class TestSweep:
    def test_serial_equals_parallel(self):
        from repro.faults.sweep import run_sweep

        serial = run_sweep(workloads=("conv",), rates=(0.0, 1e-4),
                           seeds=(0, 1), max_workers=1)
        parallel = run_sweep(workloads=("conv",), rates=(0.0, 1e-4),
                             seeds=(0, 1), max_workers=2)
        assert serial["points"] == parallel["points"]

    def test_cli_smoke_zero_rate_matches_golden(self, tmp_path):
        from repro.faults.cli import main

        out = tmp_path / "sweep.json"
        csv = tmp_path / "sweep.csv"
        rc = main(["--workloads", "bp,conv", "--rates", "0,1e-4",
                   "--seeds", "0", "--max-workers", "1", "--out", str(out),
                   "--csv", str(csv)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.faults.sweep/v1"
        zero = [p for p in payload["points"] if p["rate"] == 0.0]
        assert sorted(p["workload"] for p in zero) == ["bp", "conv"]
        assert all(p["ok"] for p in zero)
        for point in zero:
            assert point["cycles_delta"] == 0.0
            assert point["faults_injected"] == 0
            if point["workload"] == "bp":
                assert point["agreement"] == 1.0
                assert point["energy_ratio"] == 1.0
            else:
                assert point["mse"] == 0.0
        header = csv.read_text().splitlines()[0]
        assert header.startswith("workload,mechanism,rate,seed,ok")

    def test_resume_without_checkpoint_is_structured_error(self, capsys):
        from repro.faults.cli import main

        rc = main(["--resume"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--csv", "--checkpoint"])
    def test_unwritable_output_fails_before_the_sweep(self, tmp_path, capsys,
                                                       monkeypatch, flag):
        from repro.faults import cli

        def no_sweep(**kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        path = tmp_path / "missing" / "x.out"
        assert cli.main(["--workloads", "conv", flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: config: {flag}: cannot write {path}")
        assert captured.out == ""
        assert not path.parent.exists()

    @pytest.mark.parametrize("args,flag", [
        (["--rates=-1"], "--rates"),
        (["--rates", "2"], "--rates"),
        (["--rates", "nan"], "--rates"),
        (["--rates", ","], "--rates"),
        (["--workloads", ","], "--workloads"),
        (["--workloads", "mlp"], "--workloads"),
        (["--seeds", ","], "--seeds"),
    ])
    def test_bad_grid_fails_before_the_golden_runs(self, tmp_path, capsys,
                                                   monkeypatch, args, flag):
        from repro.faults import cli, sweep

        def no_run(*a, **kw):
            raise AssertionError("a golden run started")

        monkeypatch.setattr(sweep, "_bp_run", no_run)
        monkeypatch.setattr(sweep, "run_conv_pass", no_run)
        ck = tmp_path / "ck.jsonl"
        assert cli.main(args + ["--checkpoint", str(ck)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config: {flag}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not ck.exists()

    @pytest.mark.parametrize("value, message", [
        ("0", "must be > 0, got 0.0"),
        # inf used to fail every point with an OverflowError and exit 0;
        # nan silently ran with no timeout.
        ("inf", "must be a finite number, got inf"),
        ("nan", "must be a finite number, got nan"),
    ])
    def test_a_timeout_must_be_finite_and_positive(self, capsys, value,
                                                   message):
        from repro.faults import cli

        with pytest.raises(SystemExit) as info:
            cli.main(["--timeout", value])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --timeout: {message}\n")

    def test_run_sweep_refuses_bad_grid(self, monkeypatch):
        from repro.faults import sweep

        def no_run(*a, **kw):
            raise AssertionError("a golden run started")

        monkeypatch.setattr(sweep, "_bp_run", no_run)
        for kwargs, flag in [(dict(rates=(-1.0,)), "--rates"),
                             (dict(rates=()), "--rates"),
                             (dict(workloads=()), "--workloads"),
                             (dict(seeds=()), "--seeds")]:
            with pytest.raises(ConfigError, match=f"^{flag}: "):
                sweep.run_sweep(**{"workloads": ("bp",), **kwargs})

    def test_checkpoint_resume_sweep_is_byte_identical(self, tmp_path):
        from repro.faults.cli import main

        args = ["--workloads", "conv", "--rates", "0,1e-4", "--seeds", "0",
                "--max-workers", "1"]
        base = tmp_path / "base.json"
        assert main(args + ["--out", str(base)]) == 0

        ck = tmp_path / "ck.jsonl"
        full = tmp_path / "full.json"
        assert main(args + ["--checkpoint", str(ck),
                            "--out", str(full)]) == 0
        assert full.read_bytes() == base.read_bytes()

        lines = ck.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + both sweep points
        ck.write_text("\n".join(lines[:2]) + "\n")  # kill after K=1 of 2

        resumed = tmp_path / "resumed.json"
        assert main(args + ["--checkpoint", str(ck), "--resume",
                            "--out", str(resumed)]) == 0
        assert resumed.read_bytes() == base.read_bytes()
