"""The madvise(MADV_MERGEABLE) registration surface.

KSM only scans regions an application explicitly advised (Section 2.4);
the KVM hypervisor does this for guest memory, which is why VMs get
merging without modification.  The registry is what ksmd iterates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.errors import ConfigurationError
from repro.ksm.content import RegionContent

MADV_MERGEABLE = 12
MADV_UNMERGEABLE = 13


class MadviseRegistry:
    """Regions currently advised as mergeable, keyed by owner."""

    def __init__(self) -> None:
        self._regions: Dict[str, RegionContent] = {}

    def madvise(self, region: RegionContent, advice: int = MADV_MERGEABLE) -> None:
        """Register (or deregister) a region for merging."""
        if advice == MADV_MERGEABLE:
            if region.owner_id in self._regions:
                raise ConfigurationError(
                    f"{region.owner_id!r} already has a mergeable region")
            self._regions[region.owner_id] = region
        elif advice == MADV_UNMERGEABLE:
            self._regions.pop(region.owner_id, None)
        else:
            raise ConfigurationError(f"unsupported advice {advice}")

    def remove_owner(self, owner_id: str) -> None:
        self._regions.pop(owner_id, None)

    def __contains__(self, owner_id: str) -> bool:
        return owner_id in self._regions

    def __len__(self) -> int:
        return len(self._regions)

    def regions(self) -> List[RegionContent]:
        return list(self._regions.values())

    def owners(self) -> Iterator[str]:
        return iter(self._regions.keys())

    @property
    def total_pages(self) -> int:
        return sum(r.total_pages for r in self._regions.values())

    def state_dict(self) -> Dict[str, object]:
        return {"regions": self._regions}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._regions = state["regions"]
