"""The chip's memory port against a per-burst walk of a twin chip.

A PE's ``ld.sram``/``st.sram`` reaches DRAM through the chip's
``_ChipPort``, which serves an access lying in one (bank, row) of the
PE's home vault with one ``VaultController.access_run`` call.  The
oracle here is the port's per-burst walk, kept in this file: one
``split_decoded`` piece at a time, remote pieces over the torus, local
ones through the home controller.  Both run the same generated access
sequences on twin chips, which must then agree on every done time, every
read, and every vault, bank and NoC state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.timing import AddressMapping, MemoryConfig
from repro.system import Chip, VIPConfig
from repro.system.chip import _HEADER_BYTES


def _per_burst(chip, home, time, addr, nbytes, is_write):
    """One access the way the port walked it before it took whole-row
    runs: every burst its own controller call."""
    hmc, noc = chip.hmc, chip.noc
    star = chip.config.noc.star_cycles
    done = time
    request_time = noc.pe_to_vault(time, _HEADER_BYTES)
    for _, piece_len, vault_id, bank, row in hmc.mapper.split_decoded(
            addr, nbytes):
        if vault_id != home:
            served = hmc.vaults[vault_id].access(
                noc.transfer(request_time, home, vault_id,
                             _HEADER_BYTES + (piece_len if is_write else 0)),
                bank, row, piece_len, is_write)
            served = noc.transfer(served, vault_id, home,
                                  _HEADER_BYTES + (0 if is_write else piece_len))
        else:
            served = hmc.vaults[vault_id].access(request_time, bank, row,
                                                 piece_len, is_write)
        done = max(done, served + star)
        request_time += 1
    out = None if is_write else hmc.store.read(addr, nbytes)
    return done, out


def _state(chip):
    """Every vault's and bank's timing state and stats, and the NoC's."""
    vaults = []
    for vault in chip.hmc.vaults._items:
        if vault is None:
            vaults.append(None)
            continue
        banks = [(b.open_row, b.t_next_cmd, b.t_last_act, b._last_epoch,
                  b.stats) for b in vault.banks]
        vaults.append((vault.stats, vault.t_bus_free,
                       sorted(vault._in_flight), banks))
    return vaults, chip.noc.stats, chip.noc._link_free


#: One access: a time step from the last one (in half cycles, so times
#: may go back), a vault (mostly the PE's home vault 1), a 256 B block
#: of it (each block is one (bank, row) under VIP's mapping, and 48
#: blocks cover three rows of every bank), an offset into the block, a
#: length (up to 19 bursts, past the transaction queue's 32 with a few
#: in flight) and read or write.
_ACCESS = st.tuples(
    st.integers(-64, 400), st.sampled_from([1, 1, 1, 0, 2, 31]),
    st.integers(0, 47), st.integers(0, 255), st.integers(1, 600),
    st.booleans())


@pytest.mark.parametrize("mapping", list(AddressMapping),
                         ids=lambda m: m.name)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(accesses=st.lists(_ACCESS, min_size=1, max_size=40))
def test_port_matches_a_per_burst_walk(mapping, accesses):
    config = VIPConfig(memory=MemoryConfig(address_mapping=mapping))
    chip, twin = Chip(config, num_pes=8), Chip(config, num_pes=8)
    pe = 4  # wired to vault 1
    port = chip.pes[pe].memory
    home = config.vault_of_pe(pe)
    assert home == 1
    vault_bytes = config.memory.vault_bytes
    time = 0.0
    for step, vault, block, offset, nbytes, is_write in accesses:
        time = max(0.0, time + step / 2)
        addr = vault * vault_bytes + block * config.memory.row_bytes + offset
        got = port.access(pe, time, addr, nbytes, is_write)
        want = _per_burst(twin, home, time, addr, nbytes, is_write)
        assert got[0] == want[0]
        if is_write:
            assert got[1] is None and want[1] is None
        else:
            assert np.array_equal(got[1], want[1])
    assert _state(chip) == _state(twin)


def test_a_run_in_one_row_is_one_controller_call(monkeypatch):
    """An access within one (bank, row) of the home vault takes the run
    path; one that crosses a row, or reaches another vault, walks its
    bursts."""
    chip = Chip(num_pes=1)
    port = chip.pes[0].memory
    home = chip.hmc.vaults[0]
    calls = []
    for name in ("access", "access_run"):
        method = getattr(home, name)
        monkeypatch.setattr(
            home, name,
            lambda *args, _m=method, _n=name: calls.append(_n) or _m(*args))
    port.access(0, 0.0, 0, 256, False)   # one row, eight bursts
    port.access(0, 10.0, 0, 32, False)   # one burst
    assert calls == ["access_run", "access"]
    calls.clear()
    port.access(0, 20.0, 224, 64, False)  # crosses into the next bank
    assert calls == ["access", "access"]
