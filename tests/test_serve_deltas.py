"""Session deltas on the pool's one wire format.

A delta travels as an ordinary bundle entry: its kind byte names the op and
its payload is the instance payload over the session's atoms (no column to
open, the one column to add or remove).  The worker handler fails a bundle
closed on any entry it cannot name, and keeps any number of sessions apart
in one worker's table, keyed by the session id of each bundle's args.  A
stream's end drops its session from that table.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeError, WireFormatError
from repro.serve import ServePool, wire
from repro.serve.pool import (
    _K_ADD,
    _K_CLOSE,
    _K_OPEN,
    _K_REMOVE,
    _K_SOLVE,
    _serve_bundle,
)
from test_serve_stress import _delta_script, _delta_summary

#: handler args ``(circular, kernel, engine, split, certify, session_id)``
_SOLVE_ARGS = (False, "indexed", None, "whole", False, None)
_DELTA_ARGS = (False, "indexed", None, "delta", False, 1)


def _payload(n: int, masks=()) -> bytes:
    return wire.pack_ensemble(range(n), masks, with_labels=False)


def _serve(entries, args, sessions=None):
    return _serve_bundle(
        wire.pack_bundle(entries), args, {} if sessions is None else sessions
    )


class TestWorkerHandler:
    def test_solve_and_delta_entries_answer(self):
        assert _serve([(_K_SOLVE, _payload(3, (0b011, 0b110)))], _SOLVE_ARGS) == [
            ([2, 1, 0], None, 1)
        ]
        sessions = {}
        answers = _serve(
            [
                (_K_OPEN, _payload(3)),
                (_K_ADD, _payload(3, (0b101,))),
                (_K_REMOVE, _payload(3, (0b101,))),
                (_K_REMOVE, _payload(3, (0b101,))),
            ],
            _DELTA_ARGS,
            sessions,
        )
        assert [order is not None for order, _, _ in answers] == [
            True, True, True, False
        ]
        assert list(sessions) == [1]

    def test_unknown_kind_fails_the_task(self):
        with pytest.raises(ServeError, match="unknown bundle entry kind 7"):
            _serve([(7, _payload(3, (0b011,)))], _SOLVE_ARGS)

    def test_open_with_a_column_fails_the_task(self):
        sessions = {}
        with pytest.raises(ServeError, match="carries 1 columns, expected 0"):
            _serve([(_K_OPEN, _payload(3, (0b011,)))], _DELTA_ARGS, sessions)
        assert sessions == {}

    @pytest.mark.parametrize("kind", [_K_ADD, _K_REMOVE])
    @pytest.mark.parametrize("masks", [(), (0b011, 0b110)])
    def test_column_delta_needs_exactly_one_column(self, kind, masks):
        with pytest.raises(ServeError, match="expected 1"):
            _serve(
                [(_K_OPEN, _payload(3)), (kind, _payload(3, masks))], _DELTA_ARGS
            )

    def test_close_drops_the_session_and_tolerates_an_unknown_one(self):
        sessions = {}
        _serve([(_K_OPEN, _payload(3)), (_K_CLOSE, _payload(3))], _DELTA_ARGS, sessions)
        assert sessions == {}
        assert _serve([(_K_CLOSE, _payload(3))], _DELTA_ARGS, sessions) == [
            (None, None, 1)
        ]

    @pytest.mark.parametrize(
        "mangle",
        [lambda p: p[:-1], lambda p: p + b"\0"],
        ids=["truncated", "trailing-byte"],
    )
    def test_delta_payload_is_decoded_exactly(self, mangle):
        with pytest.raises(WireFormatError):
            _serve(
                [(_K_OPEN, _payload(9)), (_K_ADD, mangle(_payload(9, (0b11,))))],
                _DELTA_ARGS,
            )


def test_two_sessions_share_one_worker():
    # One worker holds both sessions in its table; each bundle names its
    # session in the args, so alternating the streams delta by delta must
    # leave each stream's answers exactly as they are when it runs alone.
    streams = [(_delta_script(91, n=9), False), (_delta_script(92, 30, n=7), True)]
    with ServePool(1) as pool:
        alone = [
            [
                _delta_summary(r)
                for r in pool.solve_stream(
                    deltas, incremental=True, certify=True, circular=circular
                )
            ]
            for deltas, circular in streams
        ]
        running = [
            pool.solve_stream(deltas, incremental=True, certify=True, circular=circular)
            for deltas, circular in streams
        ]
        together: list[list[str]] = [[], []]
        while running[0] is not None or running[1] is not None:
            for i, stream in enumerate(running):
                result = None if stream is None else next(stream, None)
                if result is None:
                    running[i] = None
                else:
                    together[i].append(_delta_summary(result))
    assert together == alone
    for answers in alone:
        assert any('"type": "tucker"' in answer for answer in answers)


class TestSessionEnd:
    """A finished delta stream leaves nothing in its worker: a later delta
    for its session id finds no session to apply to."""

    _DELTAS = [("open", 4), ("add", (0, 1)), ("add", (1, 2))]

    @pytest.mark.parametrize("closed_early", [False, True], ids=["ran-out", "closed"])
    def test_finished_session_is_dropped_from_its_worker(self, closed_early):
        with ServePool(1) as pool:
            stream = pool.solve_stream(iter(self._DELTAS), incremental=True)
            if closed_early:
                next(stream)
                stream.close()
            else:
                assert len(list(stream)) == len(self._DELTAS)
            # The pool numbers its sessions from 1, and a ServePool(1) sends
            # the hand-packed add to the worker that held the session.
            late_add = pool._submit_bundle(
                [(_K_ADD, _payload(4, (0b1100,)))],
                _DELTA_ARGS,
                done_q=None,
                tag=None,
                single=False,
            )
            with pytest.raises(ServeError, match="unknown session"):
                late_add.result(30)

    def test_ending_a_stream_after_its_pool_closed_raises_nothing(self):
        pool = ServePool(1)
        stream = pool.solve_stream(iter(self._DELTAS), incremental=True)
        next(stream)
        pool.close()
        stream.close()
