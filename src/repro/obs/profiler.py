"""DES kernel profiler: event-loop counters and wall-time attribution.

Attached to an :class:`~repro.des.environment.Environment` via
``env.profiler = ...`` (the runner does this when
``ObservabilityConfig.profile`` is on).  The kernel then reports:

* every processed event (:meth:`KernelProfiler.note_event`), with the
  heap depth observed at pop time;
* every callback it ran (:meth:`KernelProfiler.note_resume`), with the
  wall-clock seconds it took, booked under the ``name`` of the object
  the callback is bound to — a generator process (one resumption), a
  callback executor (one transition), the transport (one delivery).

This makes the simulator's own hot paths measurable: events/sec of real
time is the kernel's throughput, and the per-name wall-time table shows
which executors/collector/sweeper dominate a run.  When no profiler is
attached the kernel pays one ``is not None`` check per ``run()``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple


class KernelProfiler:
    """Counters for one environment's event loop."""

    __slots__ = (
        "events_processed",
        "max_heap_depth",
        "heap_depth_sum",
        "process_wall",
        "process_resumes",
        "_wall_start",
    )

    def __init__(self) -> None:
        self.events_processed = 0
        self.max_heap_depth = 0
        self.heap_depth_sum = 0
        #: owner name -> cumulative wall seconds inside its callbacks
        self.process_wall: Dict[str, float] = {}
        #: owner name -> number of callbacks run
        self.process_resumes: Dict[str, int] = {}
        self._wall_start = time.perf_counter()

    # -- kernel-facing hooks ------------------------------------------------------

    def note_event(self, heap_depth: int) -> None:
        """Called by :meth:`Environment.step` once per processed event."""
        self.events_processed += 1
        self.heap_depth_sum += heap_depth
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth

    def note_resume(self, name: str, wall_seconds: float) -> None:
        """Called by :meth:`Environment.step` once per callback run."""
        self.process_wall[name] = self.process_wall.get(name, 0.0) + wall_seconds
        self.process_resumes[name] = self.process_resumes.get(name, 0) + 1

    # -- derived metrics ----------------------------------------------------------

    @property
    def wall_elapsed(self) -> float:
        """Real seconds since the profiler was created."""
        return time.perf_counter() - self._wall_start

    @property
    def mean_heap_depth(self) -> float:
        if self.events_processed == 0:
            return 0.0
        return self.heap_depth_sum / self.events_processed

    def events_per_sec(self) -> float:
        """Kernel throughput: processed events per wall second."""
        elapsed = self.wall_elapsed
        return self.events_processed / elapsed if elapsed > 0 else 0.0

    def top_processes(self, n: int = 10) -> List[Tuple[str, float, int]]:
        """``(name, wall_seconds, resumes)`` sorted by wall time, top n."""
        rows = [
            (name, wall, self.process_resumes.get(name, 0))
            for name, wall in self.process_wall.items()
        ]
        rows.sort(key=lambda r: r[1], reverse=True)
        return rows[:n]

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of the loop counters (for JSON export)."""
        return {
            "events_processed": self.events_processed,
            "max_heap_depth": self.max_heap_depth,
            "mean_heap_depth": self.mean_heap_depth,
            "events_per_sec": self.events_per_sec(),
            "wall_elapsed": self.wall_elapsed,
            "distinct_processes": len(self.process_wall),
            "process_wall_total": sum(self.process_wall.values()),
        }

    def report(self, top: int = 10) -> str:
        """Human-readable event-loop counter report."""
        snap = self.snapshot()
        lines = [
            "DES event-loop counters",
            "-----------------------",
            f"events processed   : {self.events_processed}",
            f"events/sec (wall)  : {snap['events_per_sec']:.0f}",
            f"heap depth max/mean: {self.max_heap_depth}"
            f" / {self.mean_heap_depth:.1f}",
            f"wall elapsed       : {snap['wall_elapsed']:.3f} s",
            f"process wall total : {snap['process_wall_total']:.3f} s"
            f" across {len(self.process_wall)} processes",
        ]
        rows = self.top_processes(top)
        if rows:
            lines.append("top processes by wall time:")
            width = max(len(name) for name, _w, _r in rows)
            for name, wall, resumes in rows:
                lines.append(
                    f"  {name:<{width}}  {wall * 1e3:9.2f} ms"
                    f"  {resumes:8d} resumes"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<KernelProfiler events={self.events_processed}"
            f" max_heap={self.max_heap_depth}>"
        )
