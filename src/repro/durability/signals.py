"""SIGINT/SIGTERM → graceful drain, for the long-running CLI commands.

``ruru live`` and ``ruru chaos`` run until the workload ends or the
operator stops them. A kill -9 is what the recovery machinery exists
for; a polite SIGINT/SIGTERM deserves better — finish the batch in
hand, run the full drain protocol, and leave a clean checkpoint.

:class:`GracefulShutdown` is the smallest thing that does this: a
context manager that installs flag-setting handlers (the handler does
nothing but set a flag — no I/O, no raising out of arbitrary stack
frames) and restores the previous handlers on exit. The run loop polls
:meth:`requested` between batches. A second signal while draining
falls through to the previous handler, so a stuck drain can still be
interrupted the ordinary way.
"""

from __future__ import annotations

import signal
from typing import List, Optional, Tuple


class GracefulShutdown:
    """Flag-setting SIGINT/SIGTERM trap, scoped to a ``with`` block."""

    signals: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)

    def __init__(self):
        self._requested_by: Optional[int] = None
        self._previous: List[Tuple[int, object]] = []

    def _handle(self, signum, frame) -> None:
        if self._requested_by is not None:
            # Second signal: the operator means it. Re-raise through
            # the original disposition (usually KeyboardInterrupt).
            previous = dict(self._previous).get(signum)
            if callable(previous):
                previous(signum, frame)
                return
            raise KeyboardInterrupt
        self._requested_by = signum

    def __enter__(self) -> "GracefulShutdown":
        self._previous = [
            (signum, signal.getsignal(signum)) for signum in self.signals
        ]
        for signum in self.signals:
            signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous:
            signal.signal(signum, previous)
        self._previous = []

    def requested(self) -> bool:
        """Has a shutdown signal arrived? (The run loop's flag poll.)"""
        return self._requested_by is not None

    @property
    def signal_name(self) -> Optional[str]:
        if self._requested_by is None:
            return None
        try:
            return signal.Signals(self._requested_by).name
        except ValueError:
            return str(self._requested_by)
