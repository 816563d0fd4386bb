"""Key management.

The paper relies on Rodeh's Ensemble key management and assumes the
required cryptographic infrastructure exists (section 2.2).  We provide the
same abstraction: a :class:`KeyManager` that hands out

* one *pairwise symmetric key* per unordered node pair -- used by
  :class:`repro.crypto.auth.PairwiseSymmetricAuth`, where each broadcast is
  signed once per receiver (the n-1 MAC trick of Castro-Liskov that the
  paper adopts), and
* one *signing keypair* per node -- used by
  :class:`repro.crypto.auth.PublicKeyAuth` and by the reliable layer when a
  third node retransmits an original sender's message.

Impersonation is prevented structurally: private material is only released
to its owner (``private_key_of`` checks the requester), which realizes the
paper's "nodes cannot impersonate other nodes" assumption.  Verifiers use
the public :meth:`KeyManager.verify_key_of` accessor, which models the
*public* half of the simulated keypair: it can check signatures but is
never reachable from the signing path.

Keys are derived deterministically from one master secret and cached --
derivation is pure, so caching changes nothing but the wall-clock cost of
the sign/verify hot path.
"""

from __future__ import annotations

import hashlib
import hmac


_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def mac_states(key):
    """``(inner, outer)`` SHA-256 states keyed with ``key`` XOR ipad and
    opad (RFC 2104): HMAC(key, m) is outer+(inner+m), two C copies."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


class KeyAccessError(PermissionError):
    """A node asked for key material it does not own."""


class KeyManager:
    """Derives all keys deterministically from one master secret.

    In a deployment this would be a key-distribution service; in the
    reproduction it doubles as the trusted infrastructure the paper assumes,
    while still producing real HMAC keys so signatures are actual MACs.
    """

    def __init__(self, master_secret=b"repro-master-secret"):
        if isinstance(master_secret, str):
            master_secret = master_secret.encode("utf-8")
        self._master = master_secret
        self._pair_cache = {}   # (a, b) -> pairwise key (both orderings)
        self._mac_base_cache = {}  # (a, b) -> keyed (inner, outer) states
        self._priv_cache = {}   # owner -> signing key
        # derivation-vs-cache accounting: with one manager shared across a
        # whole shard plane (repro.shard), each node pair derives exactly
        # once no matter how many groups touch it -- these counters are
        # what the shard tests assert that on
        self.pair_derivations = 0
        self.pair_cache_hits = 0
        self.signing_derivations = 0

    # ------------------------------------------------------------------
    def pair_key(self, a, b):
        """Symmetric key shared by the unordered pair (a, b)."""
        cached = self._pair_cache.get((a, b))
        if cached is not None:
            self.pair_cache_hits += 1
            return cached
        lo, hi = sorted((repr(a), repr(b)))
        material = "pair:{}:{}".format(lo, hi).encode("utf-8")
        key = hmac.new(self._master, material, hashlib.sha256).digest()
        self.pair_derivations += 1
        self._pair_cache[(a, b)] = key
        self._pair_cache[(b, a)] = key
        return key

    def mac_base(self, a, b):
        """:func:`mac_states` of ``pair_key(a, b)``, once per pair per
        manager: like the pairwise-key cache, shared by every
        authenticator holding it (one per co-hosted shard process)."""
        cached = self._mac_base_cache.get((a, b))
        if cached is not None:
            return cached
        base = mac_states(self.pair_key(a, b))
        self._mac_base_cache[(a, b)] = base
        self._mac_base_cache[(b, a)] = base  # pairwise keys are symmetric
        return base

    def stats(self):
        """Cache-effectiveness snapshot of the (possibly shared) manager."""
        return {"pair_derivations": self.pair_derivations,
                "pair_cache_hits": self.pair_cache_hits,
                "signing_derivations": self.signing_derivations,
                "pairs_cached": len(self._pair_cache) // 2,
                "mac_bases_cached": len(self._mac_base_cache) // 2}

    def private_key_of(self, owner, requester):
        """Signing key of ``owner``; only ``owner`` itself may fetch it."""
        if requester != owner:
            raise KeyAccessError(
                "node %r may not read the private key of %r" % (requester, owner)
            )
        return self._signing_key(owner)

    def verify_key_of(self, owner):
        """Verification key for ``owner``'s signatures (public accessor).

        The public-key scheme is modeled, not real asymmetric crypto:
        verification recomputes the MAC under the owner's key.  In-model
        unforgeability is preserved structurally because *signing* goes
        through :meth:`private_key_of`, which enforces ownership, while
        this accessor is only used by
        :class:`repro.crypto.auth.PublicKeyAuth.verify`.
        """
        return self._signing_key(owner)

    def _signing_key(self, owner):
        cached = self._priv_cache.get(owner)
        if cached is not None:
            return cached
        material = "priv:{}".format(repr(owner)).encode("utf-8")
        key = hmac.new(self._master, material, hashlib.sha256).digest()
        self.signing_derivations += 1
        self._priv_cache[owner] = key
        return key
