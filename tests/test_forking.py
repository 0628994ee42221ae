"""forking.split_work, the one fork protocol behind split reads, writes and
filter passes: this process's range always runs, once; a child runs the
second range where the work, the CPUs and the threads allow; the child is
reaped whatever happens, and leaves no process and no file descriptor
behind. The sites' own tests (tests/test_dataio.py, tests/test_kalman.py)
check what each does with its two ranges.
"""

import errno
import os
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child, fork_only, open_fds
from geotrack import forking


class _Ranges:
    """A split's two ranges: mine() counts its runs in this process (a child
    counts in its own copy), theirs(out) writes how many runs of mine() it
    saw, and take(out) reads that back."""

    def __init__(self, mine_raises=None, theirs_raises=None):
        self.mine_runs = 0
        self.mine_raises, self.theirs_raises = mine_raises, theirs_raises

    def mine(self):
        self.mine_runs += 1
        if self.mine_raises:
            raise self.mine_raises

    def theirs(self, out):
        if self.theirs_raises:
            raise self.theirs_raises
        out.write(b"mine ran %d times" % self.mine_runs)

    @staticmethod
    def take(out):
        return out.read()


def _split(ranges, work, cpus=(0, 1), floor=0):
    """split_work(work, ...) on the given CPUs at the given floor, counting
    its forks: (what it handed back, or the exception it raised; forks). It
    must leave no child and no file descriptor behind."""
    fds = open_fds()
    with mock.patch.object(forking, "SPLIT_BYTES", floor), \
            mock.patch.object(os, "sched_getaffinity", return_value=set(cpus)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        try:
            got = forking.split_work(work, ranges.mine, ranges.theirs, ranges.take)
        except (MemoryError, ValueError) as exc:  # this range's raise, the outcome under test
            got = exc
    assert_no_child()
    assert open_fds() == fds
    return got, fork.call_count


@fork_only
def test_a_child_takes_the_second_range_as_this_process_was_before_the_first():
    forking.take_child_peak_rss()
    ranges = _Ranges()
    assert _split(ranges, 1) == (b"mine ran 0 times", 1)
    assert ranges.mine_runs == 1
    assert forking.take_child_peak_rss() > 0
    assert forking.take_child_peak_rss() == 0


@fork_only
def test_the_peak_is_the_largest_child_reaped_since_the_last_take():
    # A child that touches 32 MB more than its parent, then a plain one: the
    # second take counts the plain child alone, not the process's largest.
    def big(out):
        out.write(b"\x01" * (32 << 20))

    forking.take_child_peak_rss()
    ranges = _Ranges()
    ranges.theirs, ranges.take = big, lambda out: os.fstat(out.fileno()).st_size
    assert _split(ranges, 1) == (32 << 20, 1)
    first = forking.take_child_peak_rss()
    assert _split(_Ranges(), 1) == (b"mine ran 0 times", 1)
    assert 0 < forking.take_child_peak_rss() < first - (16 << 10)  # ru_maxrss in KB


@fork_only
@pytest.mark.parametrize("floor,work,forks", [(0, 0, 0), (0, 1, 1), (100, 99, 0), (100, 100, 1)])
def test_the_work_must_reach_the_floor_and_one_byte(floor, work, forks):
    ranges = _Ranges()
    got, forked = _split(ranges, work, floor=floor)
    assert (got, forked, ranges.mine_runs) == ((b"mine ran 0 times" if forks else None), forks, 1)


@fork_only
@pytest.mark.parametrize("fails", ["fork", "temporary file"])
def test_a_fork_or_temporary_file_that_fails_runs_this_range_alone(fails):
    # Moved here from the reader's, the writer's and the filter's copies.
    target = (os, "fork") if fails == "fork" else (forking.tempfile, "TemporaryFile")
    ranges = _Ranges()
    fds = open_fds()
    with mock.patch.object(forking, "SPLIT_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(*target, side_effect=BlockingIOError) as failing:
        got = forking.split_work(1, ranges.mine, ranges.theirs, ranges.take)
    assert_no_child()
    assert (got, ranges.mine_runs, failing.call_count) == (None, 1, 1)
    assert open_fds() == fds


@fork_only
@pytest.mark.parametrize("fails", [MemoryError, SystemExit, KeyboardInterrupt])
def test_a_child_that_fails_hands_back_none(fails):
    # The child exits 1 whatever it raised, and is reaped and counted.
    forking.take_child_peak_rss()
    ranges = _Ranges(theirs_raises=fails)
    assert _split(ranges, 1) == (None, 1)
    assert ranges.mine_runs == 1 and forking.take_child_peak_rss() > 0


@fork_only
def test_a_child_that_exits_other_than_0_hands_back_none():
    # A child that wrote its whole result and then exits 3: the status, not
    # the file, says whether the result is taken.
    def theirs(out):
        out.write(b"whole")
        out.flush()
        os._exit(3)

    take = mock.Mock(side_effect=_Ranges.take)
    ranges = _Ranges()
    ranges.theirs = theirs
    ranges.take = take
    assert _split(ranges, 1) == (None, 1)
    assert ranges.mine_runs == 1 and take.call_count == 0


@fork_only
def test_a_raise_in_this_processs_range_still_reaps_the_child():
    # Moved here from the filter's copy.
    forking.take_child_peak_rss()
    ranges = _Ranges(mine_raises=MemoryError("this range"))
    got, forked = _split(ranges, 1)
    assert isinstance(got, MemoryError) and str(got) == "this range"
    assert (forked, ranges.mine_runs) == (1, 1)
    assert forking.take_child_peak_rss() > 0


@fork_only
@pytest.mark.parametrize("cpus", [(0,), (1,)], ids=["cpu 0", "cpu 1"])
def test_one_cpu_runs_this_range_alone(cpus):
    # Moved here from the reader's copy.
    ranges = _Ranges()
    assert _split(ranges, 1 << 30, cpus=cpus) == (None, 0)
    assert ranges.mine_runs == 1


@fork_only
def test_another_thread_runs_this_range_alone():
    # Moved here from the reader's copy: a forked child would hold only the
    # forking thread.
    ranges = _Ranges()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        got = _split(ranges, 1 << 30)
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert got == (None, 0) and ranges.mine_runs == 1


def test_a_platform_without_fork_runs_this_range_alone(monkeypatch):
    for name in ("fork", "sched_getaffinity"):
        if hasattr(os, name):
            monkeypatch.delattr(os, name)
    ranges = _Ranges()
    with mock.patch.object(forking, "SPLIT_BYTES", 0):
        assert forking.split_work(1 << 30, ranges.mine, ranges.theirs, ranges.take) is None
    assert ranges.mine_runs == 1


_FAILURES = [None, "temporary file", "fork", "child's range", "this range"]


@fork_only
@settings(max_examples=60)
@given(
    floor=st.sampled_from([0, 1, 4096, forking.SPLIT_BYTES]),
    offset=st.integers(-2, 2),
    cpus=st.integers(1, 3),
    failure=st.sampled_from(_FAILURES),
)
def test_split_work_runs_this_range_once_and_reaps_its_child(floor, offset, cpus, failure):
    work = max(0, floor + offset)
    due = work >= max(floor, 1) and cpus > 1
    ranges = _Ranges(theirs_raises=MemoryError if failure == "child's range" else None,
                     mine_raises=ValueError("this range") if failure == "this range" else None)
    fails = {"temporary file": (forking.tempfile, "TemporaryFile"), "fork": (os, "fork")}.get(failure)
    forking.take_child_peak_rss()
    if fails is None:
        got, forked = _split(ranges, work, cpus=range(cpus), floor=floor)
    else:
        with mock.patch.object(*fails, side_effect=OSError(errno.EAGAIN, "refused")) as failing:
            got, forked = _split(ranges, work, cpus=range(cpus), floor=floor)
        assert failing.call_count == int(due)
    child = due and failure not in ("temporary file", "fork")
    assert ranges.mine_runs == 1
    assert forked == int(due and failure != "temporary file")
    if failure == "this range":
        assert isinstance(got, ValueError) and str(got) == "this range"
    else:
        assert got == (b"mine ran 0 times" if child and failure is None else None)
    assert (forking.take_child_peak_rss() > 0) == child
