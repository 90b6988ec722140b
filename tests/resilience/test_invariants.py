"""Conservation-ledger tests."""

import pytest

from repro.resilience import InvariantViolation, Ledger


class TestConservationLedger:
    def test_balanced_ledger_ok(self):
        ledger = Ledger(
            ingested=10, processed=7, dropped=2, deadlettered=1
        )
        assert ledger.ok
        assert ledger.balance == 0
        ledger.check()  # does not raise

    def test_unbalanced_ledger_raises_with_detail(self):
        ledger = Ledger(
            ingested=10, processed=7, dropped=2, deadlettered=0
        )
        assert not ledger.ok
        assert ledger.balance == 1
        with pytest.raises(InvariantViolation, match="ingested=10"):
            ledger.check()

    def test_violation_is_an_assertion_error(self):
        assert issubclass(InvariantViolation, AssertionError)

    def test_as_dict_and_str(self):
        ledger = Ledger(
            ingested=3, processed=3, dropped=0, deadlettered=0
        )
        assert ledger.as_dict()["balance"] == 0
        assert "OK" in str(ledger)
        bad = Ledger(ingested=3, processed=1, dropped=0, deadlettered=0)
        assert "VIOLATED" in str(bad)
