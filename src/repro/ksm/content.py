"""Page-content model for KSM regions.

A mergeable region's pages fall into three classes:

* **zero pages** — all-zero content, the single biggest dedup win in
  practice (guest free memory, zeroed heaps);
* **image pages** — content derived from the VM's base image; VMs cloned
  from the same ``image_id`` carry identical copies, which is the
  cross-VM sharing KVM+KSM was built for (Section 2.4);
* **unique pages** — workload data that never merges.

Image content is fingerprinted at *chunk* granularity (a chunk is a run
of pages with contiguous image content): tree operations happen per
chunk while page accounting stays exact.  This keeps a 24-hour Azure
simulation tractable without giving up the stable/unstable tree
mechanics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError

#: Fingerprint of the all-zero page.
ZERO_FINGERPRINT = 0


def chunk_fingerprint(image_id: int, chunk_index: int) -> int:
    """Stable 63-bit fingerprint of one image chunk's content."""
    digest = hashlib.blake2b(
        f"image:{image_id}:chunk:{chunk_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1 | 1  # never collides with 0


@dataclass(frozen=True)
class ContentStats:
    zero_pages: int
    image_pages: int
    unique_pages: int

    @property
    def total_pages(self) -> int:
        return self.zero_pages + self.image_pages + self.unique_pages


@dataclass
class RegionContent:
    """One owner's mergeable region, with scan-progress bookkeeping.

    ``zero_fraction`` and ``image_fraction`` split the region's pages;
    the remainder is unique.  ``chunks`` is how many fingerprinted chunks
    the image portion comprises (all VMs of an image share the same chunk
    identities, prefix-first: a VM holding half the image holds chunks
    0..chunks/2).
    """

    owner_id: str
    total_pages: int
    image_id: int
    zero_fraction: float = 0.15
    image_fraction: float = 0.35
    chunks: int = 256
    #: Fraction of otherwise-mergeable content written frequently enough
    #: that its checksum never holds across two passes — ksmd refuses to
    #: put such pages in the unstable tree (Section 2.4).
    volatile_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.total_pages <= 0:
            raise ConfigurationError("region must have pages")
        if self.zero_fraction + self.image_fraction > 1.0:
            raise ConfigurationError("fractions exceed the region")
        if self.chunks <= 0:
            raise ConfigurationError("need at least one chunk")
        if not 0.0 <= self.volatile_fraction <= 1.0:
            raise ConfigurationError("volatile_fraction must be in [0, 1]")
        self.scanned_pages = 0
        self.scanned_chunks = 0  # image chunks fully covered by the scan

    # --- composition ----------------------------------------------------

    @property
    def zero_pages(self) -> int:
        return int(self.total_pages * self.zero_fraction)

    @property
    def image_pages(self) -> int:
        return int(self.total_pages * self.image_fraction)

    @property
    def unique_pages(self) -> int:
        return self.total_pages - self.zero_pages - self.image_pages

    @property
    def pages_per_chunk(self) -> int:
        return max(1, self.image_pages // self.chunks)

    @property
    def stable_zero_pages(self) -> int:
        """Zero pages whose checksum survives between passes."""
        return int(self.zero_pages * (1.0 - self.volatile_fraction))

    def chunk_is_volatile(self, chunk: int) -> bool:
        """Deterministic per-content volatility: the same chunk is hot in
        every VM of the image (it is the same guest data)."""
        if self.volatile_fraction <= 0.0:
            return False
        bucket = chunk_fingerprint(self.image_id, chunk) % 1000
        return bucket < self.volatile_fraction * 1000

    def stats(self) -> ContentStats:
        return ContentStats(zero_pages=self.zero_pages,
                            image_pages=self.image_pages,
                            unique_pages=self.unique_pages)

    # --- scan progress -----------------------------------------------------

    def advance_scan(self, pages: int) -> Tuple[int, Tuple[int, ...]]:
        """Scan *pages* more pages of this region.

        The scanner walks the address space, which interleaves the three
        content classes; we model the batch as carrying the region's
        average composition.  Returns ``(zero_pages_scanned,
        newly_covered_chunk_indices)``.  Caps at the region end — the
        daemon resets progress when a full pass completes.
        """
        if pages < 0:
            raise ConfigurationError("pages must be non-negative")
        pages = min(pages, self.total_pages - self.scanned_pages)
        if pages == 0:
            return 0, ()
        self.scanned_pages += pages
        zero_scanned = int(pages * self.zero_fraction)
        if self.image_pages:
            covered_fraction = (self.scanned_pages * self.image_fraction
                                ) / self.image_pages
            target_chunks = min(self.chunks, int(covered_fraction * self.chunks))
        else:
            target_chunks = 0
        new_chunks = tuple(range(self.scanned_chunks, target_chunks))
        self.scanned_chunks = target_chunks
        return zero_scanned, new_chunks

    @property
    def pass_complete(self) -> bool:
        return self.scanned_pages >= self.total_pages

    def reset_pass(self) -> None:
        self.scanned_pages = 0
        self.scanned_chunks = 0
