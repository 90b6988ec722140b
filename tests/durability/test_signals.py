"""GracefulShutdown tests: flag semantics, handler hygiene, and the
signal → drain path through a real run."""

import signal

import pytest

from repro.durability.signals import GracefulShutdown
from repro.resilience import Ledger
from repro.scenarios.runner import Episode
from tests.conftest import cli_spec, cli_stack

RUN = ("--duration", 4, "--rate", 30, "--queues", 2)


class TestFlagSemantics:
    def test_no_signal_no_request(self):
        with GracefulShutdown() as stop:
            assert not stop.requested()
            assert stop.signal_name is None

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_sets_flag_without_raising(self, signum):
        with GracefulShutdown() as stop:
            signal.raise_signal(signum)
            assert stop.requested()
            assert stop.signal_name == signal.Signals(signum).name

    def test_second_sigint_falls_through(self):
        with GracefulShutdown() as stop:
            signal.raise_signal(signal.SIGINT)
            assert stop.requested()
            # The operator means it: the second signal reaches the
            # previous disposition (KeyboardInterrupt for SIGINT).
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)


class TestHandlerHygiene:
    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_restored_even_on_exception(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(RuntimeError):
            with GracefulShutdown():
                raise RuntimeError("boom")
        assert signal.getsignal(signal.SIGTERM) is before


class TestSignalDrivenDrain:
    def test_sigterm_mid_run_drains_gracefully(self, tmp_path):
        runtime = cli_stack("live", "--state-dir", tmp_path / "s", "--profile", "clean", "--seed", 7, *RUN)
        batches = {"n": 0}

        def flag_that_signals_itself():
            batches["n"] += 1
            if batches["n"] == 2:
                signal.raise_signal(signal.SIGTERM)
            return stop.requested()

        with GracefulShutdown() as stop:
            report = runtime.run(shutdown_flag=flag_that_signals_itself)
        assert stop.requested()
        assert stop.signal_name == "SIGTERM"
        assert report.ok, report.render()
        assert report.stages[-1] == "clean-checkpoint"

    def test_sigint_mid_chaos_still_reconciles(self):
        ticks = {"n": 0}

        def flag():
            ticks["n"] += 1
            if ticks["n"] == 2:
                signal.raise_signal(signal.SIGINT)
            return stop.requested()

        with GracefulShutdown() as stop:
            episode = Episode(
                cli_spec("chaos", "--profile", "lossy-mq", "--seed", 42, *RUN)
            ).run(stop=flag)
        assert stop.requested()
        assert episode.error is None
        assert Ledger.from_books(episode.counts).ok
