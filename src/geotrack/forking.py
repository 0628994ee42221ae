"""Two CPUs for one task: a forked child takes the second range of the work.

dataio reads and writes a long file in two ranges, kalman.run_windows
filters a large batch in two ranges of window chunks and a long window in
two ranges of time, and calibration.fit_per_view fits its views in two
ranges of views, each through split_work: it forks a child that does the
second range into an unnamed temporary file while this process does the
first, reaps the child, and hands back what the site takes from that file.
A site says only what its two ranges are, and does the second range itself
where split_work hands back None: no child ran, or the child failed. A
child runs where the second range holds at least SPLIT_BYTES of work, the
platform has os.fork, the process may run on two CPUs and runs no other
thread."""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
from typing import IO, Callable, Optional, TypeVar

# The least work, in bytes of the second range, for which a forked child
# pays: a range of fewer is done in one pass. A writer counts its second
# range's values at dataio._VALUE_BYTES bytes each, the filter's window
# split its windows' working set at 32 bytes a 2x2 matrix, its time split
# its frames from the fold at 32 bytes a view-frame, and the calibration fit
# its views' pair-cells (pairs times grid cells) at 4 a byte, a pair-cell
# taking 5.2-6.1 ns against one pass's 22-25 ns a byte. In a 52 MB
# process, a split with a nearly empty second range cost 1.7-2.0 ms more
# than one pass (fork, wait and copy), and one pass took 22-25 ns a byte;
# but the child's pages are copied as it writes them, and a write splits at
# a chunk boundary, so second ranges of 178 and 239 KB read saved 0.1 and
# 0.4 ms, and of 358 and 479 KB written 2.7 and 1.8 ms (4-view detections,
# medians of 21).
# Under this floor: sparse_views' files, whose second ranges hold at most
# 210 KB written and 220 KB read (seeds 7 and 11); tune's validation pass,
# one chunk of windows; the walkthrough's and sparse_views' 2400-frame
# tracks, whose frames from the fold hold 176 KB (4 views) and 88 KB (2),
# which, split in time, took about 10% more sparse_views stage.track_s;
# sparse_views' seed-7 calibration fit, whose child would fit 253 pairs
# (197 KB), 4 ms of fitting: split, it took 0.7-3.5 ms less in-process
# (10.5-15.7 against 9.4-12.2 ms), which sparse_views' wall_s cannot show.
# Over it: the walkthrough's train and test detections, 560-702 KB read and
# 657-700 KB written; long_track's detections, test truth and tracks; the
# walkthrough tune's train gradient passes, whose child's 14 windows of 100
# frames hold 896 KB: a pass took 30-32 ms in one pass and 24-30 ms split
# (medians of 40 interleaved calls); long_track's 10,000-frame, 8-view test
# track, whose 4880 frames from the fold hold 1.25 MB; the calibration fits
# of the walkthrough (the child fits 2 views, 1188-1197 pairs: 0.92 MB), of
# long_track (4 views, 4447-4587 pairs: 3.5 MB) and of sparse_views at seed
# 11 (346 pairs: 269 KB), which took 35-56, 158-200 and 14-21 ms in one
# pass and 23-35, 90-105 and 11-16 ms split (medians of 21-31 interleaved
# calls, in runs whose host speed differed by up to 1.5x).
SPLIT_BYTES = 1 << 18

# The largest ru_maxrss of the children reaped since take_child_peak_rss.
_child_peak_rss = 0

Taken = TypeVar("Taken")


def split_work(work: int, mine: Callable[[], object], theirs: Callable[[IO[bytes]], object],
               take: Callable[[IO[bytes]], Taken]) -> Optional[Taken]:
    """Run mine(), with a forked child running theirs(out) beside it where
    the second range's work bytes allow; take(out), out rewound, if the
    child exited 0, else None.

    The child runs where work reaches SPLIT_BYTES (and 1), os.fork and
    os.sched_getaffinity exist, this process may run on two CPUs and no
    other thread runs in it (a forked child holds only the forking thread).
    It is forked before mine() runs, so it sees this process's state as it
    was before the first range; out is an unnamed temporary file in the
    default temporary directory. A temporary file or fork that raises
    OSError leaves no child. The child is reaped whatever mine() raises, and
    its peak resident set counts towards take_child_peak_rss."""
    global _child_peak_rss
    pid = None
    with contextlib.ExitStack() as stack:
        if (work >= max(SPLIT_BYTES, 1) and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1):
            with contextlib.suppress(OSError):
                out = stack.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
        if pid == 0:
            # None of the caller's code, atexit handlers or stdio buffers
            # runs here: the child's only way out is os._exit, its status
            # its result.
            status = 1
            try:
                theirs(out)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            mine()
        finally:
            if pid is not None:
                _, status, usage = os.wait4(pid, 0)
                _child_peak_rss = max(_child_peak_rss, usage.ru_maxrss)
        if pid is None or status != 0:
            return None
        out.seek(0)
        return take(out)


def take_child_peak_rss() -> int:
    """The largest ru_maxrss of the children that reads, writes, the
    filter and the calibration fit reaped since the last call, 0 if none."""
    global _child_peak_rss
    peak, _child_peak_rss = _child_peak_rss, 0
    return peak
