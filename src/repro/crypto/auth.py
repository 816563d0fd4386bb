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
asks for its :meth:`~repro.core.message.Message.auth_token` -- the
memoized 32-byte SHA-256 digest of the canonical encoding -- through
:func:`stable_bytes`.  ``NullAuth`` never reads it, so a NoCrypto stack
encodes and hashes nothing; a MAC scheme signs a broadcast to n-1
receivers over a constant 32 bytes per receiver instead of re-encoding
the whole message, and each receiver verifies against the same digest
without re-encoding either.  Pairwise keys and their half-initialized
HMAC state are derived once per pair and reused (identical MAC values,
no per-call key-schedule work).
"""

from __future__ import annotations

import hashlib
import hmac

from repro.core.message import Message
from repro.crypto.cost import CryptoCostModel

MAC_BYTES = 10  # truncated MAC length on the wire, as in BFT


def stable_bytes(obj):
    """Canonical byte encoding used as MAC input.

    A :class:`~repro.core.message.Message` maps to its memoized digest
    (``auth_token()``), computed here on a scheme's first read and not
    before.  ``bytes`` pass through untouched.  Anything else is encoded by
    its ``repr``: message headers in this system are tuples/strings/ints,
    whose ``repr`` is stable and injective enough for authentication
    purposes within the simulation.
    """
    if isinstance(obj, bytes):
        return obj
    if isinstance(obj, Message):
        return obj.auth_token()
    return repr(obj).encode("utf-8")


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
        # (a, b) -> half-initialized HMAC state under pair_key(a, b);
        # copy()+update() per MAC skips the per-call key schedule while
        # producing byte-identical MAC values.  The cache itself lives on
        # the KeyManager when one is present, so co-hosted shard
        # processes sharing a manager also share HMAC states (the same
        # contract as the pairwise-key cache); the local dict is the
        # fallback for keyless test doubles.
        self._mac_bases = {}

    def _mac_base(self, a, b):
        # the local dict is an L1 memo: the *object* comes from the shared
        # KeyManager when one is present, so co-hosted authenticators still
        # share one HMAC state per pair; the memo only skips the manager
        # round-trip on the per-MAC hot path
        base = self._mac_bases.get((a, b))
        if base is not None:
            return base
        keys = self.keys
        if keys is not None and hasattr(keys, "mac_base"):
            base = keys.mac_base(a, b)
        else:
            base = hmac.new(keys.pair_key(a, b),
                            digestmod=hashlib.sha256)
        self._mac_bases[(a, b)] = base
        self._mac_bases[(b, a)] = base  # pairwise keys are symmetric
        return base

    def _mac(self, a, b, payload):
        state = self._mac_base(a, b).copy()
        state.update(payload)
        return state.digest()[:MAC_BYTES]

    def sign(self, sender, receivers, data):
        # n-1 MACs per broadcast: the _mac/_mac_base frames are inlined
        # (identical MAC bytes, two fewer Python calls per receiver)
        payload = stable_bytes(data)
        macs = {}
        bases = self._mac_bases
        for receiver in receivers:
            if receiver == sender:
                continue
            base = bases.get((sender, receiver))
            if base is None:
                base = self._mac_base(sender, receiver)
            state = base.copy()
            state.update(payload)
            macs[receiver] = state.digest()[:MAC_BYTES]
        cost = self.costs.sym_sign * len(macs)
        return macs, cost, MAC_BYTES * len(macs)

    def verify(self, receiver, claimed_sender, data, signature):
        cost = self.costs.sym_verify
        if not isinstance(signature, dict):
            return False, cost
        mac = signature.get(receiver)
        if mac is None:
            return False, cost
        base = self._mac_bases.get((claimed_sender, receiver))
        if base is None:
            base = self._mac_base(claimed_sender, receiver)
        state = base.copy()
        state.update(stable_bytes(data))
        return hmac.compare_digest(mac, state.digest()[:MAC_BYTES]), cost


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
        sig = hmac.new(key, stable_bytes(data), hashlib.sha256).digest()
        return sig, self.costs.pub_sign, self.SIG_BYTES

    def verify(self, receiver, claimed_sender, data, signature):
        cost = self.costs.pub_verify
        if not isinstance(signature, bytes):
            return False, cost
        key = self.keys.verify_key_of(claimed_sender)
        expected = hmac.new(key, stable_bytes(data), hashlib.sha256).digest()
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
