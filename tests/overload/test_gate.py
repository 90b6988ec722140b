"""The MQ admission gate and the extended conservation ledger."""

from repro.mq.socket import Context
from repro.overload import HANDSHAKE, GatedPushSocket, OverloadController
from repro.resilience import Ledger
from repro.scenarios.runner import Episode
from tests.conftest import cli_spec


class _RefusingSocket:
    """A push socket whose bus never accepts (peerless, buffer full)."""

    def __init__(self):
        self.sent = 0
        self.dropped = 0

    def send(self, message: bytes) -> bool:
        self.dropped += 1
        return False


class TestGatedPushSocket:
    def test_offered_counts_every_send(self):
        context = Context()
        pull = context.pull(hwm=64)
        pull.bind("inproc://gate")
        push = context.push()
        push.connect("inproc://gate")
        controller = OverloadController()
        gate = GatedPushSocket(push, controller)

        for i in range(5):
            assert gate.send(b"record %d" % i)
        assert controller.mq_offered == 5
        assert controller.shed_total(stage="mq") == 0
        # Delegation: the wrapper is transparent to its consumers.
        assert gate.sent == 5
        assert gate.dropped == 0

    def test_refused_send_is_shed_at_mq(self):
        controller = OverloadController()
        gate = GatedPushSocket(_RefusingSocket(), controller)
        assert gate.send(b"r") is False
        assert controller.mq_offered == 1
        assert controller.shed_total(klass=HANDSHAKE, stage="mq") == 1
        # Records are not frames: frame-level ratios ignore this.
        assert controller.shed_ratio(HANDSHAKE) == 0.0


class TestOverloadLedger:
    def test_balances_with_shed_term(self):
        ledger = Ledger(
            ingested=90, processed=80, dropped=6, deadlettered=4
        )
        combined = Ledger.from_parts(100, ledger, shed_mq=10)
        assert combined.balance == 0
        assert combined.ok
        combined.check()

    def test_detects_vanished_records(self):
        ledger = Ledger(
            ingested=90, processed=80, dropped=6, deadlettered=4
        )
        combined = Ledger.from_parts(100, ledger, shed_mq=7)
        assert combined.balance == 3
        assert not combined.ok
        assert "VIOLATED" in str(combined)
        assert combined.as_dict()["balance"] == 3


class TestGateUnderFaults:
    def test_lossy_mq_keeps_extended_ledger_exact(self):
        # Gate-innermost composition: the fault injector wraps *around*
        # the gate, so injected drops never reach `offered` and injected
        # duplicates are offered twice — the four-destiny invariant
        # balances under the profile's full fault mix.
        episode = Episode(
            cli_spec(
                "chaos", "--profile", "lossy-mq", "--seed", 11, "--duration", 4,
                "--rate", 30, "--overload",
            )
        ).run()
        assert episode.error is None
        ledger = Ledger.from_books(episode.counts)
        assert ledger.ok
        controller = episode.stack.overload
        assert controller is not None
        combined = Ledger.from_parts(
            controller.mq_offered,
            ledger,
            controller.shed_total(stage="mq"),
        )
        assert combined.ok, str(combined)
        assert episode.counts["oledger.balance"] == combined.balance == 0
        # Faults really fired; the ledger still reconciled exactly.
        assert episode.counts["faults.injected_total"] > 0
