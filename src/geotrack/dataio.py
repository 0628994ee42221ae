"""File formats for datasets, parameters, and reports.

All writers are deterministic (sorted keys, repr-exact floats): a write ->
read -> write round trip is byte-identical, as are identically seeded runs.
Scenario, parameter, calibration and report files take their keys and
columns from their dataclasses' fields (history.csv from its rows' keys).
Detections, truth and tracks are written from arrays, a bounded chunk of
frames at a time, each column spelt once (a repeated column reuses it).

This module is the input boundary: every file enters through a reader here,
which returns validated values or raises an error naming the file (and line):
ValueError for a missing, unreadable or malformed file; NotPositiveDefiniteError
for a covariance that is not positive definite; RuntimeError for data that
parses but is wrong (timestamp disorder, no detections, no truth row).

Detections, truth and tracks load as arrays: read_detections returns one
kalman.FrameBatch, read_truth a simulator.Trajectory and read_track (times,
means, covs). Each file is read once, CHUNK_FRAMES lines at a time, and a
chunk is checked in bulk: JSONL as one flat float array (a list per Gaussian
set off repeated garbage collections on a 10,000-frame file) parsed by the
C scanner that json.loads ends in, a truth CSV by np.loadtxt. A chunk that
fails a bulk check, alone, is read again line by line: to name its first bad
line, with that line's first failing check, or to read what the bulk check
does not take (numbers spelt as strings, spaced JSON or CSV fields). So a
reader holds one chunk beside the arrays, and read_detections scatters the
chunks into the batch without joining them first.

A file is read or written in two ranges on two CPUs where its second range
holds at least forking.SPLIT_BYTES of work: a forked child does the second
range into an unnamed temporary file while this process does the first,
then this process takes the child's result from that file (see forking,
whose rule and reaper kalman.run_windows shares too). Reading a JSONL file,
the child parses the lines after the first line that ends at or after the
file's byte midpoint and pickles its arrays (_read_jsonl). Writing
detections, truth, tracks, plot data, history or histograms, the child
spells the rows from the chunk boundary nearest the middle, which this
process appends after its own (_write_chunks). A file is read or written in
one pass where the split cannot run or pay: a second range under the floor,
a file read that is not a regular file (a FIFO, /dev/stdin), a platform
without os.fork, a process that may run on one CPU alone or that runs
another thread, a fork or temporary file that fails. Either way the bytes
written and the errors raised are those of the one-pass read or write, byte
for byte: where the child fails (exits other than 0), this process does its
range itself.
"""

from __future__ import annotations

import array
import csv
import dataclasses
import errno
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import re
import stat
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .calibration import CalibrationParams
from .core import Arena, NotPositiveDefiniteError, _gaussian_arrays, _is_pd, _pose_values, wrap_angle
from .forking import _fork_to_file, _may_split, _reaped
from .kalman import FilterParams, FrameBatch
from .metrics import MetricReport
from .simulator import CameraNode, ScenarioConfig, Trajectory, default_scenario

# Equal-width bins of write_histogram, from the least to the largest value.
HISTOGRAM_BINS = 30


def dumps(obj, indent: int | None = None) -> str:
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def _write_json(path: Path, obj) -> None:
    Path(path).write_text(dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Gaussian records, and the readers every file goes through


Record = TypeVar("Record")

# What reading a missing, unreadable or malformed file raises.
_MALFORMED = (OSError, csv.Error, ValueError, KeyError, TypeError, IndexError, AttributeError, OverflowError)


def _located(exc: Exception, path: Path, line: int = 0) -> Exception:
    """exc as the error to raise, naming path (and line, if > 0)."""
    where = f"{path}:{line}" if line else str(path)
    if isinstance(exc, NotPositiveDefiniteError):
        return NotPositiveDefiniteError(exc.minor_index, exc.minor_value, where)
    if isinstance(exc, KeyError):
        return ValueError(f"{where}: missing field {exc}")
    if isinstance(exc, json.JSONDecodeError):
        return ValueError(f"{where}: invalid JSON: {exc}")
    if isinstance(exc, OSError):
        return ValueError(f"{where}: {exc.strerror or exc}")
    return ValueError(f"{where}: {exc}")


def _read_json(path: Path, parse: Callable[[dict], Record]) -> Record:
    try:
        with open(path, "rb") as fh:
            return parse(json.load(fh))
    except _MALFORMED as exc:
        raise _located(exc, path) from exc


def _from_fields(cls, data: dict):
    """The dataclass cls from data's value of each field; a field with a default may be left out."""
    names = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING or f.name in data]
    return cls(**{name: data[name] for name in names})


def _time(value) -> float:
    t = float(value)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return t


# Frames (track steps, truth rows) per chunk that the readers convert and
# check, and the writers format, at once. On a 10,000-frame, 8-view file,
# read_detections' traced peak was 8.9 MB at 2^8 to 2^11 (the arrays it
# returns and their assembly) and 13.8 MB at 2^12; write_detections' was
# 1.4 MB at 2^8, doubling with each doubling to 21.9 MB at 2^12, in one
# pass. Written in two ranges, the child's chunks add no traced memory in
# this process, which holds one chunk's text at a time either way. Neither's
# time moved beyond the host's noise.
CHUNK_FRAMES = 1 << 9


# About what a value takes in a written detections or track file, with its
# separators: 18.8 bytes in long_track's 8.3 MB test detections.
_VALUE_BYTES = 20


# ---------------------------------------------------------------------------
# row writers: a file of rows spelt a chunk at a time


def _spelt(table, specs: Sequence[str]) -> list[list[str]]:
    """The 2-D table's columns, each value spelt as specs[j] ("%r" or "%d")
    spells it; a column with an earlier one's spec and bits shares its strings."""
    columns, seen = [], {}
    for spec, column in zip(specs, np.transpose(table)):
        key = (spec, column.tobytes())  # bits, not values: 0.0 == -0.0
        if key not in seen:
            seen[key] = list(map(repr if spec == "%r" else "%d".__mod__, column.tolist()))
        columns.append(seen[key])
    return columns


def _write_range(fh, lo: int, hi: int, text: Callable[[int, int], str]) -> None:
    """Write text(a, b) to fh for each chunk [a, b) of rows [lo, hi), the
    chunks CHUNK_FRAMES rows apart from lo."""
    for a in range(lo, hi, CHUNK_FRAMES):
        fh.write(text(a, min(a + CHUNK_FRAMES, hi)))


def _append(fh, spelt) -> None:
    """Append the bytes of the file spelt to the file fh, with sendfile."""
    fh.flush()
    offset, size = 0, os.fstat(spelt.fileno()).st_size
    while offset < size:
        sent = os.sendfile(fh.fileno(), spelt.fileno(), offset, size - offset)
        if not sent:  # the file shrank: end as a failed write would
            raise OSError(errno.EIO, f"temporary file ended after {offset} of {size} bytes")
        offset += sent


def _write_chunks(path: Path, header: str, n_rows: int, text: Callable[[int, int], str], values: int) -> None:
    """header, then text(lo, hi) for each chunk [lo, hi) of CHUNK_FRAMES of
    n_rows rows, into path; the rows spell values numbers in all. Where
    _may_split takes the rows from the chunk boundary nearest n_rows / 2,
    their share of values at _VALUE_BYTES bytes each, a forked child spells
    them into a temporary file while this process writes the header and the
    rows before them, then appends the child's bytes. If the child fails,
    this process spells its rows itself, so the bytes and errors are those
    of a one-pass write; the child is reaped whatever this process raises."""
    # On a chunk boundary: a failed child's rows are spelt again from mid a
    # chunk at a time, and an error in them must stop the write after the
    # chunks that a one-pass write finishes. From another row the chunks,
    # and so the bytes left in path, would differ.
    mid = (n_rows + CHUNK_FRAMES) // (2 * CHUNK_FRAMES) * CHUNK_FRAMES
    with open(path, "w", newline="") as fh:
        # Forked before a byte goes into fh's buffer, which the child holds too.
        split = 0 < mid < n_rows and _may_split(values * (n_rows - mid) // n_rows * _VALUE_BYTES)

        def spell(out):  # the child's rows, encoded as fh encodes them
            _write_range(out, mid, n_rows, lambda a, b: text(a, b).encode(fh.encoding))

        child = _fork_to_file(spell) if split else None
        if child is None:
            fh.write(header)
            _write_range(fh, 0, n_rows, text)
            return
        pid, spelt = child
        with spelt:
            try:
                fh.write(header)
                _write_range(fh, 0, mid, text)
            finally:
                done = _reaped(pid)
            if done:
                _append(fh, spelt)
            else:
                _write_range(fh, mid, n_rows, text)


def _write_rows(path: Path, header: str, row: str, table, json_floats: bool = False) -> None:
    """header, then row % r for each row r of the 2-D table, formatted
    CHUNK_FRAMES rows at a time (by _write_chunks); with json_floats, the
    non-finite floats spelt as dumps spells them: NaN, Infinity and
    -Infinity."""
    specs, row = re.findall("%[rd]", row), re.sub("%[rd]", "%s", row)

    def text(lo: int, hi: int) -> str:
        chunk = table[lo:hi]
        text = "".join(map(row.__mod__, zip(*_spelt(chunk, specs))))
        if json_floats and not np.isfinite(chunk).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        return text

    _write_chunks(path, header, len(table), text, len(table) * len(specs))


# ---------------------------------------------------------------------------
# detections frames and track steps: one JSON record per line


# One detection as dumps writes it, from its seven fields spelt as strings.
_DETECTION = '{"cov":[[%s,%s],[%s,%s]],"mean":[%s,%s],"view":%s}'


def write_detections(path: Path, batch: FrameBatch) -> None:
    """One line per frame of the batch's windows, listing the frame's
    detections in the batch's column order; written from the arrays, a chunk
    of frames at a time (by _write_chunks)."""
    views = [dumps(view) for view in batch.views]
    t = batch.t.reshape(-1)
    mean = batch.mean.reshape(len(t), len(views), 2)
    cov = batch.cov.reshape(len(t), len(views), 4)
    mask = batch.mask.reshape(len(t), len(views))

    def text(lo: int, hi: int) -> str:
        present = mask[lo:hi]
        values = np.concatenate([cov[lo:hi][present], mean[lo:hi][present]], axis=1)
        ids = [views[j] for j in np.nonzero(present)[1].tolist()]
        dets = list(map(_DETECTION.__mod__, zip(*_spelt(values, ["%r"] * 6), ids)))
        ends = np.cumsum(present.sum(axis=1)).tolist()
        lines = [
            '{"detections":[%s],"t":%s}\n' % (",".join(dets[start:end]), time)
            for time, start, end in zip(map(repr, t[lo:hi].tolist()), [0, *ends], ends)
        ]
        return "".join(lines)

    _write_chunks(path, "", len(t), text, 6 * int(np.count_nonzero(mask)) + len(t))


def _record(rec: dict, frames: bool) -> tuple[float, list, list]:
    """One line as (t, view ids, [(mean, cov)]), checked in the order a
    DetectionFrame of Gaussian2D detections (for a track step, one
    Gaussian2D) checks it, then its view ids: strings, none repeated."""
    t = _time(rec["t"])
    if not frames:
        return t, [], [_gaussian_arrays(rec["mean"], rec["cov"])]
    views, gaussians = [], []
    for d in rec["detections"]:
        views.append(d["view"])
        gaussians.append(_gaussian_arrays(d["mean"], d["cov"]))
    for view in views:
        if not isinstance(view, str):
            raise ValueError(f"view id must be a string, got {view!r}")
    if len(set(views)) != len(views):
        raise ValueError(f"duplicate view ids in frame at t={t}: {views}")
    return t, views, gaussians


def _bulk_chunk(lines: list, frames: bool, views: dict, after: float) -> Optional[tuple]:
    """A chunk of lines of detections frames (or, if not frames, track
    steps) as times, Gaussians per line, each Gaussian's view column and
    (n, 6) numbers: the mean, then the covariance row by row made symmetric
    from its upper entry. None unless the chunk passes every bulk check:
    numbers alone, finite, times rising from after, covariances that pass
    _is_pd, view ids that are strings and none repeated within a line. views
    gives each view id its column as the id is read."""
    times, counts, columns, values = [], [], [], []
    scan = json.JSONDecoder().scan_once  # json.loads' C scanner
    try:
        for line in lines:
            if not line.strip():
                continue
            # As json.loads reads it: strict UTF-8, a value at 0, a line end.
            text = line.decode()
            rec, end = scan(text, 0)
            if text[end:] not in ("\n", "\r\n", ""):
                return None
            gaussians = rec["detections"] if frames else (rec,)
            for g in gaussians:
                if frames:
                    columns.append(views.setdefault(g["view"], len(views)))
                x, y = g["mean"]
                (c00, c01), (c10, c11) = g["cov"]
                values += (x, y, c00, c01, c10, c11)
            counts.append(len(gaussians))
            times.append(rec["t"])
        # array.array takes numbers alone (ints, floats and bools, as
        # float() takes them): a string or a list that a mean or covariance
        # row unpacks into declines the chunk, as a JSON null does.
        t, flat = (np.asarray(array.array("d", a)) for a in (times, values))
    except (*_MALFORMED, StopIteration):
        return None
    flat = flat.reshape(-1, 6)
    if not (np.isfinite(t).all() and np.isfinite(flat).all()):
        return None
    flat[:, 4] = flat[:, 3]  # the covariance made symmetric from its upper entry
    counts, columns = np.array(counts, dtype=np.intp), np.array(columns, dtype=np.intp)
    if frames:
        # Each detection's line and column as one number: a view repeated
        # within a line repeats it.
        slots = np.sort(np.repeat(np.arange(len(counts)), counts) * len(views) + columns)
        if not ((slots[1:] != slots[:-1]).all() and all(isinstance(view, str) for view in views)):
            return None
    with np.errstate(all="ignore"):
        valid = (np.diff(t, prepend=after) > 0.0).all() and _is_pd(flat[:, 2:].reshape(-1, 2, 2)).all()
    return (t, counts, columns, flat) if valid else None


def _jsonl_chunk(frames: bool, views: dict, path: Path, lines: list, first: int, after: float) -> tuple:
    """_bulk_chunk's arrays for lines of detections frames (or, if not
    frames, track steps), the first being line first of path. A chunk that
    the bulk check declines is parsed record by record, each line checked as
    _record checks it and its time after the line before's (after, for the
    first): the first bad line's error is raised, naming path:line."""
    chunk = _bulk_chunk(lines, frames, views, after)
    if chunk is not None:
        return chunk
    times, counts, columns, values = [], [], [], []
    for line_no, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        try:
            t, line_views, gaussians = _record(json.loads(line), frames)
        except _MALFORMED as exc:
            raise _located(exc, path, line_no) from exc
        if not t > after:
            raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
        after = t
        times.append(t)
        counts.append(len(gaussians))
        columns += [views.setdefault(view, len(views)) for view in line_views]
        for mean, cov in gaussians:
            values += (*mean, *cov.flat)
    return (np.array(times, dtype=float), np.array(counts, dtype=np.intp),
            np.array(columns, dtype=np.intp), np.array(values, dtype=float).reshape(-1, 6))


class _Chunks(list):
    """parse(path, lines, first, after)'s arrays for each chunk of a file's
    lines read so far, in file order, the first array the times: first is
    the next line's number, after the last time read (-inf before any)."""

    def __init__(self, path: Path, parse: Callable, encoding: Optional[str] = None):
        super().__init__()
        self.path, self.parse, self.encoding = path, parse, encoding
        self.first, self.after = 1, -math.inf

    def read(self, lines) -> None:
        """Parse the iterator lines on to its end, CHUNK_FRAMES lines at a
        time: at least one chunk, an empty one if lines is. Lines read as text
        in encoding (undecodable bytes as surrogates) must decode, a line that
        does not named by its own bytes' decoding error."""
        while True:
            block = list(itertools.islice(lines, CHUNK_FRAMES))
            if self.encoding and not "".join(block).isascii():
                for line_no, line in enumerate(block, start=self.first):
                    try:
                        line.encode(self.encoding, "surrogateescape").decode(self.encoding)
                    except UnicodeDecodeError as exc:
                        raise _located(exc, self.path, line_no) from exc
            chunk = self.parse(self.path, block, self.first, self.after)
            self.append(chunk)
            self.after = chunk[0][-1] if len(chunk[0]) else self.after
            self.first += len(block)
            if len(block) < CHUNK_FRAMES:
                return


def _read_lines(path: Path, parse: Callable) -> _Chunks:
    """A text file of one record a line, split where csv.reader splits it,
    as the chunks that parse gives, read once."""
    try:
        with open(path, newline="", errors="surrogateescape") as fh:
            chunks = _Chunks(path, parse, fh.encoding)
            chunks.read(fh)
    except OSError as exc:
        raise _located(exc, path) from exc
    return chunks


def _second_range(fh) -> Optional[int]:
    """Where a child may start to read fh, a file opened and not yet read:
    after the first line that ends at or after its byte midpoint. None where
    the split cannot run or pay: fh is not a regular file, or _may_split
    declines the bytes from there to the end."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return None
    fh.seek(max(0, info.st_size // 2 - 1))
    fh.readline()
    split = fh.tell()
    fh.seek(0)
    return split if _may_split(info.st_size - split) else None


def _lines_to(fh, end: int):
    """fh's lines from where it is to the byte offset end, a line end."""
    pos = fh.tell()
    while pos < end:
        line = fh.readline()
        if not line:
            return
        pos += len(line)
        yield line


def _first_time(chunks: list) -> float:
    """The first time in chunks, inf if they hold none."""
    return next((times[0] for times, *_ in chunks if len(times)), math.inf)


def _read_jsonl(path: Path, frames: bool) -> tuple[_Chunks, list]:
    """A file of detections frames (or, if not frames, track steps) as the
    _jsonl_chunk arrays of each chunk of its lines, in file order, with the
    view ids by column. Where _second_range finds a split, a forked child
    parses the range after it, with its own line numbers, times and view
    columns, and pickles them into a temporary file, while this process
    parses the lines before it. The errors are those of reading the file in
    one pass: this process's range is read first, and if the child failed,
    or its first time does not follow this range's last, this process reads
    the child's range itself from where it stopped."""
    views: dict = {}
    chunks = _Chunks(path, functools.partial(_jsonl_chunk, frames, views))
    sent = None

    def child_range(out):
        child = _Chunks(path, chunks.parse)
        with open(path, "rb") as fh:  # its own offset, not the parent's
            fh.seek(split)
            child.read(fh)
        pickle.dump((list(views), list(child)), out, protocol=5)

    try:
        with open(path, "rb") as fh:
            split = _second_range(fh)
            child = None if split is None else _fork_to_file(child_range)
            if child is None:
                chunks.read(fh)
            else:
                pid, out = child
                with out:
                    try:
                        chunks.read(_lines_to(fh, split))
                    finally:
                        done = _reaped(pid)
                    if done:
                        out.seek(0)
                        sent = pickle.load(out)
                if sent is None or not _first_time(sent[1]) > chunks.after:
                    sent = None
                    chunks.read(fh)  # the child's range again
    except OSError as exc:
        raise _located(exc, path) from exc
    if sent is not None:
        child_views, child_chunks = sent
        # The child's view columns as this process's.
        column = np.array([views.setdefault(view, len(views)) for view in child_views], dtype=np.intp)
        chunks += [(times, counts, column[columns], flat) for times, counts, columns, flat in child_chunks]
    return chunks, list(views)


def read_detections(path: Path) -> FrameBatch:
    """A detections file as a FrameBatch of one window over all its frames,
    its views the sorted ids it holds. Errors are those of reading it record
    by record: the first bad record's line, with its first failing check."""
    chunks, views = _read_jsonl(path, True)
    if not any(len(flat) for *_, flat in chunks):
        raise RuntimeError(f"{path}: no detections")
    t = np.concatenate([times for times, *_ in chunks])
    return FrameBatch.scatter(t[None], views, _pieces(chunks))


def _pieces(chunks: list):
    """read_detections' chunks as FrameBatch.scatter's pieces, each chunk
    dropped from the list as its piece is taken."""
    chunks.reverse()
    frame = 0
    while chunks:
        times, counts, columns, flat = chunks.pop()
        yield np.repeat(np.arange(frame, frame + len(times)), counts), columns, flat[:, :2], flat[:, 2:]
        frame += len(times)


# ---------------------------------------------------------------------------
# truth: CSV with header t,x,y,heading,width,length

TRUTH_HEADER = ["t", "x", "y", "heading", "width", "length"]


def write_truth(path: Path, truth: Trajectory) -> None:
    """One row per sample of the truth arrays, as csv.writer writes it."""
    table = np.column_stack((truth.times, truth.positions, truth.headings, truth.extent))
    _write_rows(path, ",".join(TRUTH_HEADER) + "\r\n", ",".join(["%r"] * len(TRUTH_HEADER)) + "\r\n", table)


# A truth chunk of numbers, commas and line endings alone: csv.reader splits
# it as loadtxt does, which parses a field as float() does.
_TRUTH_CHARS = b"0123456789+-.eE,\r\n"


def _truth_bulk(lines: list, after: float) -> Optional[np.ndarray]:
    """A chunk of truth rows as a table (N, 6), headings wrapped; None
    unless the chunk passes every bulk check: numbers and commas alone, six
    fields a line, no blank line, times rising from after, finite positions
    and headings, positive extents."""
    text = "".join(lines)
    if text.encode().translate(None, _TRUTH_CHARS):
        return None
    try:
        # loadtxt warns of text with no row, and skips a blank line.
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2) if text.strip() else np.empty((0, 6))
    except _MALFORMED:
        return None
    if table.shape != (len(lines), len(TRUTH_HEADER)):
        return None
    t, _, _, heading, width, length = table.T
    times = np.append(after, t)
    valid = np.isfinite(table[:, :4]).all() and (times[1:] > times[:-1]).all()
    if not (valid and (width > 0.0).all() and (length > 0.0).all()):
        return None
    table[:, 3] = wrap_angle(heading)
    return table


def _truth_chunk(path: Path, lines: list, first: int, after: float) -> tuple:
    """Times (N,) and _truth_bulk's table for lines of a truth file, the
    first being line first of path (line 1 the header). A chunk that the bulk
    check declines is read row by row, each line one csv row checked as an
    ObjectPose checks it, its time after the line before's (after, for the
    first): the first bad line's error is raised, naming path:line."""
    line_no = first
    try:
        if first == 1:
            header = next(csv.reader(lines[:1]), None)
            if header != TRUTH_HEADER:
                raise ValueError(f"expected header {TRUTH_HEADER}, got {header}")
            lines, first = lines[1:], 2
        table = _truth_bulk(lines, after)
        if table is None:
            samples = []
            for line_no, line in enumerate(lines, start=first):
                row = next(csv.reader([line]))
                if len(row) != len(TRUTH_HEADER):
                    raise ValueError(f"expected {len(TRUTH_HEADER)} fields, got {len(row)}")
                t, *pose = (float(v) for v in row)
                sample = (_time(t), *_pose_values(*pose))
                if not sample[0] > after:
                    raise RuntimeError(f"{path}: timestamp disorder at line {line_no}")
                after = sample[0]
                samples.append(sample)
            table = np.array(samples, dtype=float).reshape(-1, len(TRUTH_HEADER))
    except _MALFORMED as exc:
        raise _located(exc, path, line_no) from exc
    return table[:, 0], table


def read_truth(path: Path) -> Trajectory:
    """A truth file as the arrays write_truth takes. Each row is checked as
    an ObjectPose checks it, its heading wrapped the same way, and its time
    must follow the previous row's."""
    chunks = _read_lines(path, _truth_chunk)
    t, table = (np.concatenate(arrays) for arrays in zip(*chunks))
    return Trajectory(t, table[:, 1:3], table[:, 3], table[:, 4:])


def match_truth(times: np.ndarray, truth: Trajectory, source: str) -> np.ndarray:
    """The index of the truth row at each of times. Matching is exact:
    simulate writes detections and truth from the same floats, each with
    repr."""
    rows = np.searchsorted(truth.times, times)
    # A time after the last row indexes the sentinel, which matches no time.
    missing = np.count_nonzero(np.append(truth.times, np.inf)[rows] != times)
    if missing:
        raise RuntimeError(
            f"{source}: {missing} of {len(times)} timestamps have no matching truth row"
        )
    return rows


# ---------------------------------------------------------------------------
# scenario config


def _plain(value, name: str = ""):
    """A scenario value (the field name, if it is one) as JSON: a dataclass
    as a dict of its fields, a tuple, list or array as a list, a string as
    it is, the seed as an int and any other number as a float."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name), f.name) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, str):
        return value
    return int(value) if name == "seed" else float(value)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return _plain(config)


def _check_fields(data, cls, prefix: str = "") -> None:
    """Raise for the first key of data, in sorted order, that names no field of the dataclass cls."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config field: {prefix}{sorted(unknown)[0]}")


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a possibly partial dict; missing fields take the
    bundled defaults. Unknown fields are an error, named in the message."""
    _check_fields(data, ScenarioConfig)
    # ScenarioConfig converts and checks the other fields itself.
    kwargs = {key: value for key, value in data.items() if key not in ("arena", "nodes")}
    if "arena" in data:
        arena = data["arena"]
        # Every arena field is required.
        kwargs["arena"] = Arena(*(float(arena[f.name]) for f in dataclasses.fields(Arena)))
        _check_fields(arena, Arena, "arena.")
    if "nodes" in data:
        nodes = []
        for nd in data["nodes"]:
            _check_fields(nd, CameraNode, "nodes.")
            nodes.append(_from_fields(CameraNode, nd))
        kwargs["nodes"] = tuple(nodes)
    return dataclasses.replace(default_scenario(), **kwargs)


def load_scenario(path: Path) -> ScenarioConfig:
    return _read_json(path, scenario_from_dict)


def write_scenario(path: Path, config: ScenarioConfig) -> None:
    _write_json(path, scenario_to_dict(config))


# ---------------------------------------------------------------------------
# parameter files


def write_filter_params(path: Path, params: FilterParams) -> None:
    _write_json(path, dataclasses.asdict(params))


def _strict(cls, data, name: str, prefix: str = ""):
    """The dataclass cls from data, which must be an object (name says of
    what) whose every key is a field of cls."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object")
    _check_fields(data, cls, prefix)
    return _from_fields(cls, data)


def read_filter_params(path: Path) -> FilterParams:
    return _read_json(path, functools.partial(_strict, FilterParams, name="filter parameters"))


@dataclasses.dataclass(frozen=True)
class _CalibrationFile:
    """A calibration file's fields: each view's CalibrationParams, and
    whether calibrate fitted one pair across the views."""

    views: dict
    shared: bool = False


def write_calibration(path: Path, params: dict[str, CalibrationParams], shared: bool = False) -> None:
    _write_json(path, dataclasses.asdict(_CalibrationFile(params, shared)))


def _calibration(data) -> dict[str, CalibrationParams]:
    views = _strict(_CalibrationFile, data, "calibration").views
    if not isinstance(views, dict):
        raise ValueError("views must be an object")
    return {v: _strict(CalibrationParams, d, f"views.{v}", f"views.{v}.") for v, d in views.items()}


def read_calibration(path: Path) -> dict[str, CalibrationParams]:
    return _read_json(path, _calibration)


# ---------------------------------------------------------------------------
# track output


# One track step as dumps writes it: sorted keys, repr-exact floats.
_STEP = '{"cov":[[%r,%r],[%r,%r]],"mean":[%r,%r],"t":%r}\n'


def write_track(path: Path, times: np.ndarray, means: np.ndarray, covs: np.ndarray) -> None:
    """One record per step: times (N,), means (N, 2), covs (N, 2, 2)."""
    steps = np.column_stack((np.reshape(covs, (-1, 4)), np.reshape(means, (-1, 2)), times))
    _write_rows(path, "", _STEP, steps.astype(float), json_floats=True)


def read_track(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A track file as the arrays write_track takes: times (N,), means
    (N, 2) and covs (N, 2, 2), each line checked as a Gaussian2D checks it
    and its time following the previous line's."""
    chunks, _ = _read_jsonl(path, False)
    t = np.concatenate([times for times, *_ in chunks])
    means = np.concatenate([flat[:, :2] for *_, flat in chunks])
    return t, means, np.concatenate([flat[:, 2:] for *_, flat in chunks]).reshape(-1, 2, 2)


# 95% quantile of chi-squared with 2 dof, for confidence ellipses.
CHI2_95_2D = -2.0 * math.log(0.05)


def write_plot_data(path: Path, times, means, covs, truth) -> None:
    """Per track step: the time, the truth position (blank without truth,
    else truth (N, 2)), the filtered mean and its 95% ellipse (axes and the
    major axis' angle)."""
    evals, evecs = np.linalg.eigh(covs)
    axes = np.sqrt(CHI2_95_2D * evals)
    # math.atan2: np.arctan2 can differ from it in the last bit.
    angle = np.fromiter(map(math.atan2, evecs[:, 1, 1], evecs[:, 0, 1]), float, len(evecs))
    table = np.column_stack([times, *([] if truth is None else [truth]), means, axes[:, ::-1], angle])
    row = "%r,,,%r,%r,%r,%r,%r\n" if truth is None else "%r,%r,%r,%r,%r,%r,%r,%r\n"
    _write_rows(path, "t,truth_x,truth_y,mean_x,mean_y,ell_major,ell_minor,ell_angle\n", row, table)


# ---------------------------------------------------------------------------
# metric report

# The report's four headline metrics: every field but the alpha sweep.
_HEADLINE = [f.name for f in dataclasses.fields(MetricReport) if f.name != "alpha_sweep"]


def write_report(path: Path, report: MetricReport) -> None:
    _write_json(path, dataclasses.asdict(report))


def read_report(path: Path) -> tuple[MetricReport, str]:
    """A report file, read once, as its MetricReport and its fingerprint:
    the first 12 hex digits of the file's sha256."""
    try:
        data = Path(path).read_bytes()
        return _from_fields(MetricReport, json.loads(data)), hashlib.sha256(data).hexdigest()[:12]
    except _MALFORMED as exc:
        raise _located(exc, path) from exc


def write_report_row(path: Path, report: MetricReport) -> None:
    row = [getattr(report, key) for key in _HEADLINE]
    _write_rows(path, ",".join(_HEADLINE) + "\r\n", ",".join(["%r"] * len(row)) + "\r\n", np.array([row]))


def write_report_table(csv_path: Path, text_path: Path, runs: Sequence[tuple]) -> str:
    """A header and a row per run (name, MetricReport or None, fingerprint) as
    CSV and as text, columns left-aligned two spaces apart; returns the text."""
    rows = [["run", *_HEADLINE, "fingerprint"]]
    for name, report, fingerprint in runs:
        values = ["MISSING" if report is None else repr(getattr(report, key)) for key in _HEADLINE]
        rows.append([name, *values, "-" if report is None else fingerprint])
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    text = "".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) + "\n" for row in rows)
    Path(text_path).write_text(text)
    return text


def write_histogram(path: Path, values: np.ndarray) -> None:
    """Counts of a value list in HISTOGRAM_BINS equal bins, for plot-ready
    NLL histograms."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(values, bins=edges)
    table = np.column_stack((edges[:-1], edges[1:], counts))
    _write_rows(path, "bin_left,bin_right,count\r\n", "%r,%r,%d\r\n", table)


# ---------------------------------------------------------------------------
# tuning history


def write_history(path: Path, rows: Sequence[dict]) -> None:
    """tuning.TuneHistory.rows as CSV: a column per key, an int (the epoch) spelt with %d."""
    header = list(rows[0])
    specs = ["%d" if isinstance(value, int) else "%r" for value in rows[0].values()]
    table = np.array([[row[key] for key in header] for row in rows], dtype=float)
    _write_rows(path, ",".join(header) + "\r\n", ",".join(specs) + "\r\n", table)

