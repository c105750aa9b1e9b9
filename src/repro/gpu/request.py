"""Memory requests and access kinds.

A :class:`MemoryRequest` is the unit of work that travels through the cache
hierarchy.  Requests are created by wavefronts (one per memory instruction)
and threaded through the system's request-lifecycle callbacks; all timing
state lives on the request object itself so the engine payloads stay cheap.

Access kinds follow Section III of the paper:

* ``LOAD`` / ``STORE`` — L1 data accesses.  Stores use write-evict +
  no-write-allocate at the (DC-)L1.
* ``ATOMIC`` — skips the L1/DC-L1 entirely and is resolved at the L2/MC.
* ``BYPASS`` — "non-L1" traffic (instruction / texture / constant cache
  misses) that passes *through* a DC-L1 node (Q1→Q3) without accessing the
  DC-L1 cache.
"""

from __future__ import annotations

from enum import IntEnum


class AccessKind(IntEnum):
    """What a memory request does at the L1 level."""

    LOAD = 0
    STORE = 1
    ATOMIC = 2
    BYPASS = 3


class MemoryRequest:
    """One in-flight memory transaction.

    Attributes
    ----------
    addr:
        Byte address of the access (already coalesced at warp granularity).
    kind:
        The :class:`AccessKind`.
    size:
        Useful bytes requested/written by the warp (<= one cache line).
    core_id:
        Issuing GPU core.
    wavefront:
        The wavefront context to resume on completion (set by the core model).
    issue_time:
        Cycle at which the core injected the request (for round-trip stats).
    line:
        Cache-line index (``addr >> line_bits``), filled in by the system.
    dcl1_id / l2_id / mc_id:
        Route, resolved from the address by the active design.
    l1_hit / l2_hit:
        Outcome flags for statistics.
    """

    __slots__ = (
        "addr",
        "kind",
        "size",
        "core_id",
        "wavefront",
        "issue_time",
        "line",
        "dcl1_id",
        "l2_id",
        "mc_id",
        "l1_hit",
        "l2_hit",
        "merged",
    )

    def __init__(self, addr: int, kind: AccessKind, size: int, core_id: int):
        self.addr = addr
        self.kind = kind
        self.size = size
        self.core_id = core_id
        self.wavefront = None
        self.issue_time = 0.0
        self.line = 0
        self.dcl1_id = 0
        self.l2_id = 0
        self.mc_id = 0
        self.l1_hit = False
        self.l2_hit = False
        self.merged = False

    @property
    def is_load(self) -> bool:
        return self.kind == AccessKind.LOAD

    @property
    def is_store(self) -> bool:
        return self.kind == AccessKind.STORE

    @property
    def accesses_l1(self) -> bool:
        """Whether this request probes the (DC-)L1 cache at all."""
        return self.kind == AccessKind.LOAD or self.kind == AccessKind.STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRequest(addr={self.addr:#x}, kind={AccessKind(self.kind).name}, "
            f"size={self.size}, core={self.core_id})"
        )
