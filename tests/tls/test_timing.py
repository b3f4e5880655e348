"""Handshake cost-model tests (Table 2)."""

import pytest

from repro.crypto.cert import KEY_ALG_ECDSA, KEY_ALG_RSA
from repro.errors import ProtocolError
from repro.tls.handshake import TraceOp
from repro.tls.timing import HandshakeCostModel, HandshakeTimer
from repro.units import USEC


@pytest.fixture()
def model():
    return HandshakeCostModel()


class TestBaseCosts:
    def test_table2_fixed_rows(self, model):
        # Spot-check the calibrated values against Table 2.
        assert model.op_cost(TraceOp("S2.2", {})) == pytest.approx(265.0 * USEC)
        assert model.op_cost(TraceOp("C1.1", {})) == pytest.approx(61.3 * USEC)
        assert model.op_cost(TraceOp("C2.2", {})) == pytest.approx(88.7 * USEC)
        assert model.op_cost(TraceOp("S3", {})) == pytest.approx(44.4 * USEC)

    def test_sign_costs_by_algorithm(self, model):
        ecdsa = model.op_cost(TraceOp("S2.5", {"alg": KEY_ALG_ECDSA}))
        rsa = model.op_cost(TraceOp("S2.5", {"alg": KEY_ALG_RSA}))
        assert ecdsa == pytest.approx(137.6 * USEC)
        assert rsa == pytest.approx(1344.0 * USEC)
        # Table 2: RSA signing is ~10x ECDSA.
        assert 8 < rsa / ecdsa < 12

    def test_verify_costs_by_algorithm(self, model):
        ecdsa = model.op_cost(TraceOp("C4.2", {"alg": KEY_ALG_ECDSA}))
        rsa = model.op_cost(TraceOp("C4.2", {"alg": KEY_ALG_RSA}))
        assert ecdsa == pytest.approx(196.3 * USEC)
        assert rsa == pytest.approx(67.1 * USEC)
        # Table 2: ECDSA verification is ~3x RSA.
        assert 2 < ecdsa / rsa < 4

    def test_cert_verify_single_link_matches_table2(self, model):
        cost = model.op_cost(TraceOp("C3.2", {"chain_len": 1, "short_chain": False}))
        assert cost == pytest.approx(483.4 * USEC)

    def test_cert_verify_scales_with_chain(self, model):
        one = model.op_cost(TraceOp("C3.2", {"chain_len": 1}))
        two = model.op_cost(TraceOp("C3.2", {"chain_len": 2}))
        assert two - one == pytest.approx(196.3 * USEC)

    def test_short_chain_cuts_cost_about_half(self, model):
        # Paper §4.5.1: "speeds up the Verify Cert operation by ~52 %".
        full = model.op_cost(TraceOp("C3.2", {"chain_len": 1, "short_chain": False}))
        short = model.op_cost(TraceOp("C3.2", {"chain_len": 1, "short_chain": True}))
        assert short / full == pytest.approx(0.48, abs=0.01)

    def test_unknown_op_rejected(self, model):
        with pytest.raises(ProtocolError):
            model.op_cost(TraceOp("Z9", {}))


class TestTotals:
    def test_total_sums(self, model):
        trace = [TraceOp("S1", {}), TraceOp("S3", {})]
        assert model.total(trace) == pytest.approx((1.8 + 44.4) * USEC)

    def test_breakdown_rows(self, model):
        rows = model.breakdown([TraceOp("S1", {}), TraceOp("C5", {})])
        assert rows[0] == ("S1", "Process CHLO", pytest.approx(1.8))
        assert rows[1][1] == "Process Finished"

    def test_timer_incremental_charging(self, model):
        timer = HandshakeTimer(model)
        trace = [TraceOp("S1", {})]
        timer.charge(trace)
        trace.append(TraceOp("S3", {}))
        timer.charge(trace, already_charged=1)
        assert timer.total_time == pytest.approx((1.8 + 44.4) * USEC)
        assert len(timer.ops) == 2
