"""The ``greendimm`` policy is the daemon itself (see the registry)."""

from repro.core.daemon import GreenDIMMDaemon as GreenDIMMPolicy

__all__ = ["GreenDIMMPolicy"]
