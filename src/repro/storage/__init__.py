"""Out-of-core storage: pages, buffer pool, paged tables, spilling.

Every save stores each table as fixed-size CRC32-checked pages of binary
column chunks; a load with ``memory_budget_bytes`` keeps them behind a
:class:`~repro.storage.buffer_pool.BufferPool` of that size — data ≫
memory becomes queryable, with scans
that hand over columns and skip pages by their min/max zones, pin/unpin,
LRU eviction, dirty write-back to a session overlay, and spill-to-disk
execution state for hash aggregation and window runs.

See DESIGN.md §5j for the page layout, buffer-pool lifecycle, spill
format and eviction policy.
"""

from repro.storage.buffer_pool import BufferPool, Frame, PageRef
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.paged import PagedColumnStore, PagedTable
from repro.storage.pager import OverlayFile, PageFile
from repro.storage.spill import SpillStore, active_budget, engine_budget

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "Frame",
    "OverlayFile",
    "PageFile",
    "PageRef",
    "PagedColumnStore",
    "PagedTable",
    "SpillStore",
    "active_budget",
    "engine_budget",
]
