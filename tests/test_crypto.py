"""Unit tests for key management and the three authenticators."""

import hashlib
import hmac

import pytest

from repro.crypto.auth import (MAC_BYTES, NullAuth, PairwiseSymmetricAuth,
                               PublicKeyAuth, make_authenticator,
                               stable_bytes)
from repro.crypto.cost import FREE, CryptoCostModel
from repro.crypto.keys import KeyAccessError, KeyManager, mac_states


@pytest.fixture
def keys():
    return KeyManager()


def test_pair_key_is_symmetric(keys):
    assert keys.pair_key(1, 2) == keys.pair_key(2, 1)


def test_pair_keys_differ_per_pair(keys):
    assert keys.pair_key(1, 2) != keys.pair_key(1, 3)


def test_private_key_only_released_to_owner(keys):
    keys.private_key_of(7, requester=7)
    with pytest.raises(KeyAccessError):
        keys.private_key_of(7, requester=8)


def test_null_auth_costs_nothing_and_accepts_everything():
    auth = NullAuth(None, FREE)
    sig, cost, size = auth.sign(0, [1, 2], ("data",))
    assert (sig, cost, size) == (None, 0.0, 0)
    ok, vcost = auth.verify(1, 0, ("data",), sig)
    assert ok and vcost == 0.0


def test_symmetric_auth_round_trip(keys):
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    sig, cost, size = auth.sign(0, [1, 2, 3], ("hello",))
    assert set(sig) == {1, 2, 3}
    assert cost == 3 * auth.costs.sym_sign
    for receiver in (1, 2, 3):
        ok, _vcost = auth.verify(receiver, 0, ("hello",), sig)
        assert ok


def test_symmetric_auth_rejects_tampered_content(keys):
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [1], ("hello",))
    ok, _ = auth.verify(1, 0, ("tampered",), sig)
    assert not ok


def test_symmetric_auth_rejects_wrong_claimed_sender(keys):
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [1], ("hello",))
    ok, _ = auth.verify(1, 2, ("hello",), sig)
    assert not ok


def test_symmetric_auth_receiver_not_in_vector(keys):
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [1], ("hello",))
    ok, _ = auth.verify(9, 0, ("hello",), sig)
    assert not ok


def test_symmetric_auth_does_not_sign_for_self(keys):
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [0, 1], ("x",))
    assert 0 not in sig


def test_symmetric_vector_travels_whole_so_third_party_can_retransmit(keys):
    # receiver 2 can verify its own entry from a copy relayed by node 1
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [1, 2], ("hello",))
    ok, _ = auth.verify(2, 0, ("hello",), sig)
    assert ok


def test_public_key_auth_round_trip(keys):
    auth = PublicKeyAuth(keys, CryptoCostModel())
    sig, cost, size = auth.sign(0, [1, 2], ("hello",))
    assert cost == auth.costs.pub_sign
    assert size == PublicKeyAuth.SIG_BYTES
    ok, vcost = auth.verify(5, 0, ("hello",), sig)
    assert ok and vcost == auth.costs.pub_verify


def test_public_key_auth_rejects_tampering(keys):
    auth = PublicKeyAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [1], ("hello",))
    assert not auth.verify(1, 0, ("bye",), sig)[0]
    assert not auth.verify(1, 3, ("hello",), sig)[0]


def test_public_key_signing_requires_own_identity(keys):
    auth = PublicKeyAuth(keys, CryptoCostModel())
    with pytest.raises(KeyAccessError):
        # the signing path goes through the owner check: no impersonation
        key = keys.private_key_of(3, requester=4)


def test_make_authenticator_factory(keys):
    costs = CryptoCostModel()
    assert isinstance(make_authenticator("none", keys, costs), NullAuth)
    assert isinstance(make_authenticator("sym", keys, costs),
                      PairwiseSymmetricAuth)
    assert isinstance(make_authenticator("pub", keys, costs), PublicKeyAuth)
    with pytest.raises(ValueError):
        make_authenticator("rot13", keys, costs)


def test_stable_bytes_is_deterministic():
    assert stable_bytes(("a", 1)) == stable_bytes(("a", 1))
    assert stable_bytes(("a", 1)) != stable_bytes(("a", 2))
    assert stable_bytes(b"raw") == b"raw"


def test_free_cost_model_is_all_zero():
    assert FREE.sym_sign == 0.0
    assert FREE.pub_sign == 0.0
    assert FREE.hash_digest == 0.0


def test_cost_model_describe():
    assert "sym_sign" in CryptoCostModel().describe()


@pytest.mark.parametrize("key_len", [0, 16, 32, 63, 64, 65, 200])
def test_keyed_states_mac_equals_hmac_new(key_len):
    """The two-copy MAC over keyed SHA-256 states (RFC 2104) is the
    stdlib's HMAC, for keys shorter than, equal to and longer than the
    64-byte block."""
    key = bytes(range(key_len % 256)) * (key_len // 256) + bytes(
        (7 * k) % 256 for k in range(key_len % 256))
    assert len(key) == key_len
    inner, outer = mac_states(key)
    for msg in (b"", b"x", b"m" * 32, bytes(range(256)) * 3):
        mac_inner = inner.copy()
        mac_inner.update(msg)
        mac_outer = outer.copy()
        mac_outer.update(mac_inner.digest())
        expected = hmac.new(key, msg, hashlib.sha256).digest()
        assert mac_outer.digest() == expected
        assert mac_outer.digest()[:MAC_BYTES] == expected[:MAC_BYTES]


def test_pairwise_macs_are_hmac_of_the_digest(keys):
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [1, 2], b"d" * 32)
    for receiver in (1, 2):
        assert sig[receiver] == hmac.new(keys.pair_key(0, receiver),
                                         b"d" * 32, hashlib.sha256
                                         ).digest()[:MAC_BYTES]


def test_content_the_codec_cannot_encode_verifies_false(keys):
    auth = PairwiseSymmetricAuth(keys, CryptoCostModel())
    pub = PublicKeyAuth(keys, CryptoCostModel())
    sig, _cost, _size = auth.sign(0, [1], ("x",))
    assert auth.verify(1, 0, (object(),), sig) == (False,
                                                   auth.costs.sym_verify)
    assert pub.verify(1, 0, (object(),), b"s" * 64)[0] is False
