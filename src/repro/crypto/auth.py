"""Message authenticators.

The paper keeps cryptography at the lowest level of the stack: each message
is signed once, just before hitting the network, and verified once on
receipt (section 1.2, "Cryptography is Kept at the Lowest Level").  Three
schemes are measured:

* ``NullAuth`` -- no authentication (the benign stack, and the
  "ByzEns+NoCrypto" configurations which isolate protocol overhead from
  crypto overhead);
* ``PairwiseSymmetricAuth`` -- each broadcast carries an *authenticator*:
  one MAC per receiver under the pairwise key (the Castro-Liskov trick the
  paper adopts; AES-128 in the paper, HMAC-SHA256 here, with the AES cost
  charged from the calibration table);
* ``PublicKeyAuth`` -- one signature per message (512-bit RSA in the
  paper; structurally-simulated here, with RSA costs charged).

Every method returns the simulated CPU cost alongside its result so the
bottom layer can charge the node's CPU.

Hot-path design (docs/PERFORMANCE.md): callers pass the
:class:`repro.core.message.Message` itself, and only a scheme that MACs
reads its :meth:`~repro.core.message.Message.auth_token` (the memoized
SHA-256 of its signed block) through :func:`stable_bytes`, so a NoCrypto
stack encodes and hashes nothing.  A MAC is two ``hashlib`` state copies
under keyed states derived once per pair (:func:`~repro.crypto.keys
.mac_states`), equal to ``hmac.new``'s.  Content the codec cannot encode
verifies as False: a scheme never raises on what a peer sent.
"""

from __future__ import annotations

import hmac

from repro.core.message import Message
from repro.crypto.cost import CryptoCostModel
from repro.runtime.wire import WireError, encode_value

MAC_BYTES = 10  # truncated MAC length on the wire, as in BFT


def stable_bytes(obj):
    """MAC input: a Message's memoized ``auth_token()``, ``bytes`` as
    they are, anything else its wire encoding (or ``WireError``)."""
    if isinstance(obj, bytes):
        return obj
    if isinstance(obj, Message):
        return obj.auth_token()
    return encode_value(obj)


class Authenticator:
    """Interface: sign once at the bottom, verify once on receipt."""

    name = "abstract"

    def __init__(self, keys=None, costs=None):
        self.keys = keys
        self.costs = costs or CryptoCostModel()

    def sign(self, sender, receivers, data):
        """Returns ``(signature, cpu_cost_seconds, wire_bytes)``."""
        raise NotImplementedError

    def verify(self, receiver, claimed_sender, data, signature):
        """Returns ``(ok, cpu_cost_seconds)``."""
        raise NotImplementedError

    def verify_batch(self, receiver, items):
        """:meth:`verify` over ``[(claimed_sender, data, signature), ...]``.

        Returns ``(verdicts, total_cpu_cost)`` with one boolean per item,
        in order.  The stack verifies frame by frame; this loop is the
        replay entry point of the ledger tracer
        (benchmarks/ledger/tracer.py), which times sampled verify calls
        through it.
        """
        verdicts = []
        total = 0.0
        for claimed_sender, data, signature in items:
            ok, cost = self.verify(receiver, claimed_sender, data, signature)
            verdicts.append(ok)
            total += cost
        return verdicts, total


class NullAuth(Authenticator):
    """No authentication; used by the benign stack and NoCrypto configs."""

    name = "none"

    def sign(self, sender, receivers, data):
        return None, 0.0, 0

    def verify(self, receiver, claimed_sender, data, signature):
        return True, 0.0


class PairwiseSymmetricAuth(Authenticator):
    """One MAC per receiver under the shared pairwise key.

    The signature of a broadcast to n-1 receivers is a vector of n-1 MACs;
    each receiver checks only its own entry.  Because the whole vector
    travels with the message, a third node can *retransmit* the message and
    the new receiver still finds its entry -- exactly the property the
    reliable-retransmission layer needs.
    """

    name = "sym"

    def __init__(self, keys=None, costs=None):
        super().__init__(keys, costs)
        # (a, b) -> keyed (inner, outer) SHA-256 states of pair_key(a, b):
        # an L1 memo over the KeyManager's, which co-hosted shard
        # processes share (the same contract as the pairwise-key cache)
        self._mac_bases = {}

    def _mac_base(self, a, b):
        base = self._mac_bases[(a, b)] = self.keys.mac_base(a, b)
        self._mac_bases[(b, a)] = base  # pairwise keys are symmetric
        return base

    def sign(self, sender, receivers, data):
        # n-1 MACs per broadcast, each two C-level state copies
        payload = stable_bytes(data)
        macs = {}
        bases = self._mac_bases
        for receiver in receivers:
            if receiver == sender:
                continue
            inner, outer = (bases.get((sender, receiver))
                            or self._mac_base(sender, receiver))
            inner = inner.copy()
            inner.update(payload)
            outer = outer.copy()
            outer.update(inner.digest())
            macs[receiver] = outer.digest()[:MAC_BYTES]
        cost = self.costs.sym_sign * len(macs)
        return macs, cost, MAC_BYTES * len(macs)

    def verify(self, receiver, claimed_sender, data, signature):
        cost = self.costs.sym_verify
        if not isinstance(signature, dict):
            return False, cost
        mac = signature.get(receiver)
        if mac is None:
            return False, cost
        try:
            payload = stable_bytes(data)
        except WireError:
            return False, cost
        inner, outer = (self._mac_bases.get((claimed_sender, receiver))
                        or self._mac_base(claimed_sender, receiver))
        inner = inner.copy()
        inner.update(payload)
        outer = outer.copy()
        outer.update(inner.digest())
        return hmac.compare_digest(mac, outer.digest()[:MAC_BYTES]), cost


class PublicKeyAuth(Authenticator):
    """One signature per message under the sender's private key.

    Structurally simulated (DESIGN.md section 6): signing requires the
    sender's private key, which the :class:`~repro.crypto.keys.KeyManager`
    only releases to its owner, so in-model signatures are unforgeable;
    verification recomputes the MAC through the verifier-only
    :meth:`~repro.crypto.keys.KeyManager.verify_key_of` accessor.
    """

    name = "pub"
    SIG_BYTES = 64  # 512-bit RSA signature

    def sign(self, sender, receivers, data):
        key = self.keys.private_key_of(sender, requester=sender)
        sig = hmac.digest(key, stable_bytes(data), "sha256")
        return sig, self.costs.pub_sign, self.SIG_BYTES

    def verify(self, receiver, claimed_sender, data, signature):
        cost = self.costs.pub_verify
        if not isinstance(signature, bytes):
            return False, cost
        try:
            payload = stable_bytes(data)
        except WireError:
            return False, cost
        key = self.keys.verify_key_of(claimed_sender)
        expected = hmac.digest(key, payload, "sha256")
        return hmac.compare_digest(signature, expected), cost


def make_authenticator(scheme, keys, costs):
    """Factory keyed by the configuration strings used across the repo."""
    if scheme in (None, "none", "null"):
        return NullAuth(keys, costs)
    if scheme == "sym":
        return PairwiseSymmetricAuth(keys, costs)
    if scheme == "pub":
        return PublicKeyAuth(keys, costs)
    raise ValueError("unknown crypto scheme: %r" % (scheme,))
