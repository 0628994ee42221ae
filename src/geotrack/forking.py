"""Two CPUs for one task: a forked child takes the second range of the work.

dataio reads and writes a long file in two ranges, and kalman.run_windows
filters a large batch in two ranges of window chunks. Each forks a child
that does the second range into an unnamed temporary file while this
process does the first (_fork_to_file), then reaps the child (_reaped) and
takes its result from that file; a child that fails leaves its range to
this process. All of them split on one rule (_may_split): the second range
holds at least SPLIT_BYTES of work, the platform has os.fork, the process
may run on two CPUs and runs no other thread.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Callable, Optional

# The least work, in bytes of the second range, for which a forked child
# pays: a range of fewer is done in one pass. A writer counts its second
# range's values at dataio._VALUE_BYTES bytes each, the filter its windows'
# working set at 32 bytes a 2x2 matrix. In a 52 MB process, a split with a
# nearly empty second range cost 1.7-2.0 ms more than one pass (fork, wait
# and copy), and one pass took 22-25 ns a byte; but the child's pages are
# copied as it writes them, and a write splits at a chunk boundary, so
# second ranges of 178 and 239 KB read saved 0.1 and 0.4 ms, and of 358 and
# 479 KB written 2.7 and 1.8 ms (4-view detections, medians of 21).
# Under this floor: sparse_views' files, whose second ranges hold at most
# 210 KB written and 220 KB read (seeds 7 and 11); tune's validation pass,
# one chunk of windows. Over it: the walkthrough's train and test
# detections, 560-702 KB read and 657-700 KB written; long_track's
# detections, test truth and tracks; the walkthrough tune's train gradient
# passes, whose child's 14 windows of 100 frames hold 896 KB: a pass took
# 30-32 ms in one pass and 24-30 ms split (medians of 40 interleaved calls).
SPLIT_BYTES = 1 << 18

# The largest ru_maxrss of the children reaped since take_child_peak_rss.
_child_peak_rss = 0


def _may_split(work: int) -> bool:
    """Whether a forked child may take a second range of work bytes: work
    reaches SPLIT_BYTES (and 1), os.fork and os.sched_getaffinity exist,
    this process may run on two CPUs, and no other thread runs in it (a
    forked child holds only the forking thread)."""
    return (work >= max(SPLIT_BYTES, 1) and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1)


def _fork_to_file(body: Callable) -> Optional[tuple]:
    """Fork a child that runs body(out), out an unnamed temporary file in the
    default temporary directory, and exits 0, or 1 if body raised. The
    child's pid and out; None if the file or the fork raised OSError."""
    try:
        out = tempfile.TemporaryFile()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        out.close()
        return None
    if pid == 0:
        # None of the caller's code, atexit handlers or stdio buffers runs
        # here: the child's only way out is os._exit, its status its result.
        status = 1
        try:
            body(out)
            out.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, out


def _reaped(pid: int) -> bool:
    """Wait for the forked child pid; whether it exited 0. Its peak resident
    set counts towards take_child_peak_rss."""
    global _child_peak_rss
    _, status, usage = os.wait4(pid, 0)
    _child_peak_rss = max(_child_peak_rss, usage.ru_maxrss)
    return status == 0


def take_child_peak_rss() -> int:
    """The largest ru_maxrss of the children that reads, writes and the
    filter reaped since the last call, 0 if none."""
    global _child_peak_rss
    peak, _child_peak_rss = _child_peak_rss, 0
    return peak
