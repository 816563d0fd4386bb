"""Unit tests for messages, headers, and stack configuration."""

import pytest

from repro.consensus.interface import max_f_consensus, max_f_uniform
from repro.core import message as mk
from repro.core.config import StackConfig
from repro.core.message import Message
from repro.core.view import ViewId
from repro.runtime.wire import encode_signed


def test_headers_push_pop():
    msg = Message(mk.KIND_CAST, 0, ViewId(1, 0), "data", 16)
    msg.push_header("rel", ("a", 7))
    assert msg.header("rel") == ("a", 7)
    assert msg.pop_header("rel") == ("a", 7)
    assert msg.header("rel") is None
    assert msg.pop_header("rel", "sentinel") == "sentinel"


def test_signed_block_covers_headers_and_payload():
    msg = Message(mk.KIND_CAST, 0, ViewId(1, 0), "data", 16)
    base = msg.signed_block()
    msg.push_header("rel", ("a", 1))
    with_header = msg.signed_block()
    assert base != with_header
    other = Message(mk.KIND_CAST, 0, ViewId(1, 0), "DATA", 16)
    assert other.signed_block() != base
    # the unsigned transport header and the tail fields are left out
    msg.push_header("inc", 3)
    msg.sender, msg.dest, msg.payload_size = 5, 2, 99
    assert msg.signed_block() == encode_signed(msg) == with_header


def test_signed_block_stable_under_header_order():
    a = Message(mk.KIND_CAST, 0, ViewId(1, 0), "x", 4)
    a.push_header("h1", 1)
    a.push_header("h2", 2)
    b = Message(mk.KIND_CAST, 0, ViewId(1, 0), "x", 4)
    b.push_header("h2", 2)
    b.push_header("h1", 1)
    assert a.signed_block() == b.signed_block()
    assert list(b.signed_fields()[3]) == ["h1", "h2"]


def test_wire_size_accounting():
    msg = Message(mk.KIND_CAST, 0, ViewId(1, 0), "data", 100)
    assert msg.wire_size(12, 10) == 8 + 100 + 12 + 10


def test_clone_for_is_independent():
    msg = Message(mk.KIND_CAST, 0, ViewId(1, 0), "data", 16, msg_id=(0, 1))
    msg.push_header("rel", ("a", 1))
    clone = msg.clone_for(3)
    clone.pop_header("rel")
    assert msg.header("rel") == ("a", 1)
    assert clone.dest == 3
    assert clone.msg_id == (0, 1)


# ----------------------------------------------------------------------
# StackConfig
# ----------------------------------------------------------------------
def test_preset_labels_match_paper_plot_lines():
    assert StackConfig.benign().label() == "JazzEns"
    assert StackConfig.byz().label() == "ByzEns+NoCrypto"
    assert StackConfig.byz(crypto="sym").label() == "ByzEns+SymCrypto"
    assert StackConfig.byz(crypto="pub").label() == "ByzEns+PubCrypto"
    assert StackConfig.byz(total_order=True).label() == "ByzEns+NoCrypto+Total"
    assert (StackConfig.byz(crypto="sym", uniform_delivery=True).label()
            == "ByzEns+SymCrypto+Uniform")
    assert (StackConfig.byz(total_order=True, uniform_delivery=True).label()
            == "ByzEns+NoCrypto+Total+Uniform")


def test_resilience_combines_protocol_bounds():
    config = StackConfig.byz()
    assert config.resilience(8) == 1      # min(consensus f=1, uniform f=1)
    assert config.resilience(13) == 1     # uniform bound binds before consensus
    assert config.resilience(14) == 2
    assert config.resilience(50) == 8
    assert config.resilience(6) == 0      # too small for any tolerance


def test_benign_stack_tolerates_no_byzantine():
    assert StackConfig.benign().resilience(50) == 0


def test_byz_resilience_is_both_agreement_bounds():
    # one uniform broadcast, on the paper's thresholds: the stack's f is
    # the lower of the consensus bound and the broadcast's liveness bound
    config = StackConfig.byz()
    for n in range(1, 65):
        assert config.resilience(n) == min(max_f_consensus(n),
                                           max_f_uniform(n))
    assert config.resilience(7) == 0


def test_clone_overrides():
    config = StackConfig.byz(crypto="sym")
    other = config.clone(total_order=True)
    assert other.crypto == "sym"
    assert other.total_order and not config.total_order
