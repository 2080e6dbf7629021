"""A ``/sys/devices/system/memory`` facade over the hot-plug substrate.

GreenDIMM's real daemon reads and writes sysfs files: ``block_size_bytes``
to learn the off-lining granularity, ``memoryN/removable`` to pick
candidates (Section 5.2), and ``memoryN/state`` to trigger the actual
on/off-lining.  This facade exposes the same string-based interface so
examples and tests can exercise the daemon exactly the way the paper's
implementation drives Linux.
"""

from __future__ import annotations

import re
from typing import Tuple

from repro.errors import HotplugError
from repro.os.hotplug import MemoryBlockManager
from repro.units import PAGE_SIZE

_BLOCK_FILE = re.compile(r"^memory(\d+)/(state|removable|phys_index)$")


class SysfsMemoryInterface:
    """String-in, string-out view of :class:`MemoryBlockManager`."""

    def __init__(self, manager: MemoryBlockManager):
        self.manager = manager

    def _block_file(self, path: str) -> Tuple[int, str]:
        """``(index, attribute)`` of an existing block's file, or
        :class:`FileNotFoundError` — for a block past the last one too."""
        match = _BLOCK_FILE.match(path)
        if not match:
            raise FileNotFoundError(path)
        index = int(match.group(1))
        if not 0 <= index < self.manager.mm.num_blocks:
            raise FileNotFoundError(path)
        return index, match.group(2)

    def read(self, path: str) -> str:
        """Read a sysfs file; *path* is relative to
        ``/sys/devices/system/memory``."""
        if path == "block_size_bytes":
            return format(self.manager.mm.block_pages * PAGE_SIZE, "x")
        index, attr = self._block_file(path)
        if attr == "state":
            return self.manager.state(index).value
        if attr == "phys_index":
            return format(index, "x")
        return "1" if self.manager.removable(index) else "0"

    def write(self, path: str, value: str) -> None:
        """Write ``online``/``offline`` to a ``memoryN/state`` file.

        Mirrors the kernel's errno behaviour: raises
        :class:`OfflineBusyError` / :class:`OfflineAgainError` exactly as
        ``echo offline > state`` would return -EBUSY / -EAGAIN.
        """
        index, attr = self._block_file(path)
        if attr != "state":
            raise FileNotFoundError(path)
        value = value.strip()
        if value == "offline":
            self.manager.offline_block(index)
        elif value == "online":
            self.manager.online_block(index)
        else:
            raise HotplugError(f"invalid state value {value!r}")
