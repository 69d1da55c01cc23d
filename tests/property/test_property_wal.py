"""Property test: every consumer of the delta log reads one chain check.

Recovery (``DeltaLog`` open), the readers and ``fsck --wal`` are
policies over one segment walk, so they must agree on any damage: a log
opens exactly when fsck finds nothing worse than a torn last segment,
the reader never skips an LSN, and after ``fsck --wal --repair`` the
log opens and replays exactly LSNs ``1..latest``, each the event that
was appended.

The input is a small rotated log with random epoch bumps and one damage
action: truncate a segment at a random byte, flip one of its bytes,
delete it, rewrite its header epoch lower, or nothing.  The first
segment is never deleted — a log that starts past LSN 1 is what pruning
leaves, not damage.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.fsck import fsck_wal
from repro.serving.wal.log import DeltaLog, LogCorruption, LogReader

_SEG_HEADER = struct.Struct("<4sIQQ")  # magic, version, first LSN, epoch


@st.composite
def damaged_logs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_events = draw(st.integers(40, 140))
    bumps = set(draw(st.lists(st.integers(1, n_events - 1), max_size=3)))
    events = [
        (int(kind), int(rng.integers(0, 50)), int(rng.integers(0, 50)),
         float(rng.random()) if kind == 3 else 0.0)
        for kind in rng.integers(1, 5, size=n_events)
    ]
    action = draw(st.sampled_from(["truncate", "flip", "delete", "epoch", "none"]))
    return events, bumps, action, draw(st.floats(0, 1)), draw(st.floats(0, 1))


def _damage(segments, action, where, at):
    index = min(int(where * len(segments)), len(segments) - 1)
    if action == "delete":
        index = max(index, 1)
        if index < len(segments):
            segments[index].unlink()
        return
    path = segments[index]
    data = bytearray(path.read_bytes())
    offset = min(int(at * len(data)), len(data) - 1)
    if action == "truncate":
        path.write_bytes(bytes(data[:offset]))
    elif action == "flip":
        data[offset] ^= 1 << int(at * 1000) % 8
        path.write_bytes(bytes(data))
    elif action == "epoch":
        magic, version, first_lsn, epoch = _SEG_HEADER.unpack_from(data, 0)
        _SEG_HEADER.pack_into(data, 0, magic, version, first_lsn, epoch - 1)
        path.write_bytes(bytes(data))


def _only_a_torn_tail(report, last_segment) -> bool:
    return all(
        issue.path == str(last_segment)
        and issue.repairable
        and issue.code in ("torn_segment", "bad_lsn")
        for issue in report.issues
    )


class TestWalConsumersAgree:
    @settings(max_examples=80, deadline=None)
    @given(damaged_logs())
    def test_open_fsck_and_reader_agree(self, tmp_path_factory, problem):
        events, bumps, action, where, at = problem
        root = tmp_path_factory.mktemp("wal")
        with DeltaLog(root, segment_bytes=1024, fsync=False) as log:
            for i, event in enumerate(events):
                if i in bumps:
                    log.bump_epoch()
                log.append_events([event])
        segments = sorted(root.glob("*.wal"))
        _damage(segments, action, where, at)
        last_segment = sorted(root.glob("*.wal"))[-1]

        report = fsck_wal(root)
        try:
            DeltaLog(root, fsync=False).close()
            opened = True
        except LogCorruption:
            opened = False
        assert opened == _only_a_torn_tail(report, last_segment), report.issues
        # The reader never skips an LSN: it yields an unbroken prefix or
        # refuses, and it refuses only a log that would not open.
        try:
            lsns = [rec.lsn for rec in LogReader(root).records()]
        except LogCorruption:
            assert not opened
        else:
            assert lsns == list(range(1, len(lsns) + 1))

        report = fsck_wal(root, repair=True)
        DeltaLog(root, fsync=False).close()
        latest = int(report.latest.split("=")[1]) if report.latest else 0
        replayed = [
            (rec.lsn, (rec.kind, rec.a, rec.b, rec.weight))
            for rec in LogReader(root).records()
        ]
        assert replayed == [(lsn, events[lsn - 1]) for lsn in range(1, latest + 1)]
