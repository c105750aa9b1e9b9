"""Wavefront contexts.

A wavefront executes one CTA's access stream: *(issue a memory
instruction → wait for its reply → execute ``compute_gap`` ALU
instructions → repeat)*.  A core runs ``wavefront_slots`` such contexts
concurrently; this is the GPU latency-tolerance model — with many
wavefronts in flight, memory latency is hidden and throughput is bounded
by bandwidth, with few it is latency-bound (the paper's C-NN discussion).

Timing is orchestrated by :class:`repro.sim.system.GPUSystem`; a wavefront
only tracks its position in the stream.
"""

from __future__ import annotations

from typing import Optional, Tuple


class Wavefront:
    """One in-flight CTA execution context on a core.

    ``mlp`` is the wavefront's memory-level parallelism: how many blocking
    memory operations it may have in flight before it stalls (real GPU
    wavefronts keep several independent loads outstanding).  ``outstanding``
    and ``issue_pending`` are scheduler bookkeeping owned by the system.
    """

    __slots__ = (
        "core_id", "slot", "stream", "pc", "compute_gap", "done",
        "mlp", "outstanding", "issue_pending", "_length", "_lines", "_kinds",
    )

    def __init__(self, core_id: int, slot: int, stream, compute_gap: float, mlp: int = 1):
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.core_id = core_id
        self.slot = slot
        self.compute_gap = compute_gap
        self.mlp = mlp
        self.outstanding = 0
        self.issue_pending = False
        self.bind(stream)

    def bind(self, stream, compute_gap: Optional[float] = None) -> None:
        """Attach a new CTA stream to this context (CTA replacement).

        The stream's line/kind arrays are materialized as plain Python
        lists once per bind: indexing a NumPy array boxes a NumPy scalar
        per access, and :meth:`next_access` runs once per memory
        instruction — the simulator's single hottest call site.
        """
        self.stream = stream
        self.pc = 0
        if compute_gap is not None:
            self.compute_gap = compute_gap
        if stream is None:
            self._length = 0
            self._lines = self._kinds = ()
        else:
            self._length = len(stream)
            lines, kinds = stream.lines, stream.kinds
            self._lines = lines.tolist() if hasattr(lines, "tolist") else lines
            self._kinds = kinds.tolist() if hasattr(kinds, "tolist") else kinds
        self.done = self._length == 0

    def next_access(self) -> Optional[Tuple[int, int]]:
        """Return (line, kind) of the next memory instruction and advance;
        None when the stream is exhausted.

        ``kind`` is returned as a plain int (comparable to
        :class:`~repro.gpu.request.AccessKind`) — this is the simulator's
        hottest path and enum construction is measurable there.
        """
        if self.done:
            return None
        pc = self.pc
        line = self._lines[pc]
        kind = self._kinds[pc]
        self.pc = pc + 1
        if self.pc >= self._length:
            self.done = True
        return line, kind

    @property
    def remaining(self) -> int:
        if self.stream is None:
            return 0
        return len(self.stream) - self.pc
