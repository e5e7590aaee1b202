"""Out-of-core storage: pages, the buffer pool, page chunks, spilling.

Every save stores each table as fixed-size CRC32-checked pages of binary
column chunks.  A load with ``memory_budget_bytes`` leaves each 500-slot
chunk of a column on its pages — a
:class:`~repro.storage.buffer_pool.PageChunk` read through a
:class:`~repro.storage.buffer_pool.BufferPool` of that size — so data ≫
memory becomes queryable: scans hand over columns and skip pages by their
min/max zones, with pin/unpin, LRU eviction, dirty write-back to a
session overlay, and spill-to-disk execution state for hash aggregation
and window runs.  A chunk a write cannot put on its page becomes resident
on its own; the rest of the table stays where it is.

See DESIGN.md §5j for the page layout, buffer-pool lifecycle, spill
format and eviction policy.
"""

from repro.storage.buffer_pool import BufferPool, Frame, PageChunk, PageRef
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.pager import OverlayFile, PageFile
from repro.storage.spill import SpillStore, active_budget, engine_budget

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "Frame",
    "OverlayFile",
    "PageFile",
    "PageChunk",
    "PageRef",
    "SpillStore",
    "active_budget",
    "engine_budget",
]
