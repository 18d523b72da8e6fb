"""Functional (contents-only) DRAM backing store.

The timing models in this package decide *when* data moves; this class
holds *what* the data is.  The full 8 GiB HMC address space is backed
sparsely by 4 KiB pages allocated on first touch, so simulations only pay
for memory they actually use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

PAGE_BYTES = 4096


class DramStore:
    """Sparse byte-addressable memory with numpy convenience accessors."""

    def __init__(self, size_bytes: int = 8 << 30):
        self.size_bytes = size_bytes
        self._pages: dict[int, np.ndarray] = {}

    def _page(self, index: int) -> np.ndarray:
        page = self._pages.get(index)
        if page is None:
            page = np.zeros(PAGE_BYTES, dtype=np.uint8)
            self._pages[index] = page
        return page

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size_bytes:
            raise SimulationError(
                f"DRAM access out of range: addr={addr:#x} len={nbytes}"
            )

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` starting at ``addr`` as a uint8 array."""
        self._check(addr, nbytes)
        page_index, offset = divmod(addr, PAGE_BYTES)
        if offset + nbytes <= PAGE_BYTES:
            # Single-page read (every aligned burst-sized request): slice
            # and copy without the spill loop's cursor bookkeeping.
            return self._page(page_index)[offset : offset + nbytes].copy()
        out = np.empty(nbytes, dtype=np.uint8)
        done = 0
        while done < nbytes:
            page_index, offset = divmod(addr + done, PAGE_BYTES)
            chunk = min(nbytes - done, PAGE_BYTES - offset)
            out[done : done + chunk] = self._page(page_index)[offset : offset + chunk]
            done += chunk
        return out

    def write(self, addr: int, data) -> None:
        """Write ``data`` (bytes-like or uint8 array) starting at ``addr``."""
        data = np.asarray(bytearray(data) if isinstance(data, (bytes, bytearray)) else data)
        data = data.astype(np.uint8, copy=False).ravel()
        self._check(addr, data.size)
        done = 0
        while done < data.size:
            page_index, offset = divmod(addr + done, PAGE_BYTES)
            chunk = min(data.size - done, PAGE_BYTES - offset)
            self._page(page_index)[offset : offset + chunk] = data[done : done + chunk]
            done += chunk

    def read_array(self, addr: int, count: int, dtype) -> np.ndarray:
        """Read ``count`` elements of ``dtype`` starting at ``addr``."""
        dtype = np.dtype(dtype)
        return self.read(addr, count * dtype.itemsize).view(dtype).copy()

    def write_array(self, addr: int, values, dtype=None) -> None:
        """Write a numpy array (optionally cast to ``dtype``) at ``addr``."""
        values = np.ascontiguousarray(values)
        if dtype is not None:
            values = values.astype(np.dtype(dtype))
        self.write(addr, values.view(np.uint8).ravel())

    @property
    def touched_bytes(self) -> int:
        """Bytes of backing storage actually allocated."""
        return len(self._pages) * PAGE_BYTES
