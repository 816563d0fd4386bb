"""Stack configuration: quality-of-service level, crypto scheme, timing.

The paper evaluates a matrix of configurations; `StackConfig` presets
reproduce its exact line labels:

* ``JazzEns``                -- benign stack, no Byzantine checks, no crypto
* ``ByzEns+NoCrypto``        -- hardened stack, authentication disabled
* ``ByzEns+SymCrypto``       -- pairwise symmetric MACs (n-1 per broadcast)
* ``ByzEns+PubCrypto``       -- one public-key signature per message
* ``...+Total``              -- total ordering via Byzantine consensus
* ``...+Uniform``            -- per-cast uniform (agreed-content) delivery

Timing constants are the tunables the paper calls "tunable parameters"
(failure-detection timeouts, aging, thresholds).  Defaults are sized for
the simulated LAN in :mod:`repro.sim.topology`.
"""

from __future__ import annotations

from repro.consensus.interface import max_f_consensus, max_f_uniform
from repro.crypto.cost import CryptoCostModel
from repro.obs import ObsConfig
from repro.sim.topology import HostModel


class ShardConfig:
    """Shard-plane layout (:mod:`repro.shard`): how many groups the
    cluster runs, their size, and the directory's hash-ring shape.

    ``ring_slots`` is the number of virtual points each shard owns on the
    consistent-hash ring; ``epoch`` versions the routing table so
    resharding can fence stale routes.  ``ring_shards`` (default: all
    built groups) puts only the first K groups on the initial ring,
    leaving the rest as spare capacity a live ``Cluster.reshard(...)``
    can scale out onto.
    """

    def __init__(self, shards=1, nodes_per_shard=5, ring_slots=64, epoch=0,
                 ring_shards=None):
        self.shards = shards
        self.nodes_per_shard = nodes_per_shard
        self.ring_slots = ring_slots
        self.epoch = epoch
        self.ring_shards = ring_shards

    def clone(self, **overrides):
        fresh = ShardConfig(**vars(self))
        fresh.__dict__.update(overrides)
        return fresh

    def __repr__(self):
        return "ShardConfig(shards={}, nodes_per_shard={})".format(
            self.shards, self.nodes_per_shard)


class StackConfig:
    """All knobs of one node's protocol stack, as plain attributes.

    ``obs=`` and ``shard=`` take small config objects of their own
    (:class:`~repro.obs.ObsConfig`, :class:`ShardConfig`); everything
    else is a flat field.
    """

    def __init__(self,
                 byzantine=True,
                 crypto="none",
                 total_order=False,
                 uniform_delivery=False,
                 f_override=None,
                 # failure detection / fuzziness
                 heartbeat_interval=0.02,
                 mute_timeout=0.08,
                 fuzzy_decay_interval=0.05,
                 fuzzy_decay_amount=1.0,
                 mute_suspect_threshold=3.0,
                 verbose_suspect_threshold=4.0,
                 # membership
                 gossip_interval=0.05,
                 suspicion_settle_delay=0.004,
                 suspect_count_threshold=3,
                 consensus_msg_timeout=0.08,
                 newview_timeout=0.12,
                 # reliable delivery / flow control
                 fuzzy_flow=True,
                 fuzzy_flow_threshold=2.0,
                 flow_window=256,
                 ack_interval=0.012,
                 ack_every=512,
                 retrans_timeout=0.04,
                 # hardening against loss storms (chaos plane): repeated
                 # retransmission retries back off exponentially up to this
                 # ceiling, with +-retrans_jitter relative decorrelation
                 retrans_backoff_max=0.32,
                 retrans_jitter=0.25,
                 # NAKs one node may emit per retrans_timeout window
                 # (0 disables suppression)
                 nak_window_budget=64,
                 # signature rejections from one transmitter before the
                 # bottom layer reports it to the suspicion layer
                 # (0 disables corruption-triggered suspicion)
                 corruption_suspect_threshold=4,
                 mtu=1400,
                 # the real-network transport's datagram coalescer: its
                 # byte budget per UDP datagram (capped by the transport's
                 # MAX_DATAGRAM_BYTES); the sim backend never reads it, so
                 # changing it is byte-identical per seed
                 wire_mtu=16000,
                 # total ordering
                 order_batch_max=1024,
                 order_tick=0.002,
                 # pipelined ordering: up to FAST_PIPELINE_WINDOW
                 # consensus instances in flight, any cast may open one
                 ordering_fast_path=False,
                 # observability (repro.obs): None/False = fully disabled
                 # (untaxed failure-free path); True = ObsConfig defaults
                 obs=None,
                 # shard-plane layout (repro.shard): None = ShardConfig()
                 shard=None,
                 # models
                 host=None,
                 crypto_costs=None):
        self.byzantine = byzantine
        self.crypto = crypto
        self.total_order = total_order
        self.uniform_delivery = uniform_delivery
        self.f_override = f_override
        self.heartbeat_interval = heartbeat_interval
        self.mute_timeout = mute_timeout
        self.fuzzy_decay_interval = fuzzy_decay_interval
        self.fuzzy_decay_amount = fuzzy_decay_amount
        self.mute_suspect_threshold = mute_suspect_threshold
        self.verbose_suspect_threshold = verbose_suspect_threshold
        self.gossip_interval = gossip_interval
        self.fuzzy_flow = fuzzy_flow
        self.fuzzy_flow_threshold = fuzzy_flow_threshold
        self.suspicion_settle_delay = suspicion_settle_delay
        self.suspect_count_threshold = suspect_count_threshold
        self.consensus_msg_timeout = consensus_msg_timeout
        self.newview_timeout = newview_timeout
        self.flow_window = flow_window
        self.ack_interval = ack_interval
        self.ack_every = ack_every
        self.retrans_timeout = retrans_timeout
        self.retrans_backoff_max = retrans_backoff_max
        self.retrans_jitter = retrans_jitter
        self.nak_window_budget = nak_window_budget
        self.corruption_suspect_threshold = corruption_suspect_threshold
        self.mtu = mtu
        self.wire_mtu = wire_mtu
        self.order_batch_max = order_batch_max
        self.order_tick = order_tick
        self.ordering_fast_path = ordering_fast_path
        if obs is True:
            obs = ObsConfig()
        self.obs = obs or None
        self.shard = shard if shard is not None else ShardConfig()
        self.host = host or HostModel()
        self.crypto_costs = crypto_costs or CryptoCostModel()

    # ------------------------------------------------------------------
    # presets named after the paper's plot lines
    # ------------------------------------------------------------------
    @classmethod
    def benign(cls, **kw):
        """The non-Byzantine JazzEnsemble stack ("JazzEns")."""
        kw.setdefault("byzantine", False)
        kw.setdefault("crypto", "none")
        return cls(**kw)

    @classmethod
    def byz(cls, crypto="none", total_order=False, uniform_delivery=False, **kw):
        """The Byzantine-hardened stack ("ByzEns+...")."""
        return cls(byzantine=True, crypto=crypto, total_order=total_order,
                   uniform_delivery=uniform_delivery, **kw)

    def label(self):
        """The paper's plot-line label for this configuration."""
        if not self.byzantine:
            return "JazzEns"
        crypto = {"none": "NoCrypto", "sym": "SymCrypto",
                  "pub": "PubCrypto"}[self.crypto]
        parts = ["ByzEns+" + crypto]
        if self.total_order:
            parts.append("Total")
        if self.uniform_delivery:
            parts.append("Uniform")
        return "+".join(parts)

    # ------------------------------------------------------------------
    def resilience(self, n):
        """The f this stack tolerates in a view of n members.

        Bounded by both agreement protocols the stack uses: the vector
        consensus (n > 6f) and the 2-step uniform broadcast (n >= 6f + 2).
        The benign stack tolerates no Byzantine nodes by definition.
        """
        if not self.byzantine:
            return 0
        bound = min(max_f_consensus(n), max_f_uniform(n))
        if self.f_override is not None:
            bound = min(bound, self.f_override)
        return max(0, bound)

    def clone(self, **overrides):
        """A copy with ``overrides`` replaced; every key must be a field."""
        unknown = sorted(set(overrides) - set(self.__dict__))
        if unknown:
            raise TypeError("StackConfig has no field(s) %s"
                            % ", ".join(unknown))
        # clone() bypasses __init__, so the constructor's normalizations
        # (obs True -> ObsConfig(), falsy -> None; shard None -> defaults)
        # must be applied here too -- otherwise a literal True would be
        # stored
        if "obs" in overrides:
            obs = overrides["obs"]
            overrides["obs"] = ObsConfig() if obs is True else (obs or None)
        if "shard" in overrides and overrides["shard"] is None:
            overrides["shard"] = ShardConfig()
        fresh = StackConfig.__new__(StackConfig)
        fresh.__dict__.update(self.__dict__)
        fresh.__dict__.update(overrides)
        return fresh

    def __repr__(self):
        return "StackConfig({})".format(self.label())
