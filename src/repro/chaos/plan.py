"""Declarative fault plans: the chaos plane's input language.

A :class:`FaultPlan` is a JSON-serializable recipe for one adversarial
run: cluster size, configuration overrides, and an ordered op script --
traffic, timed crash/restart, leaves and joins, partition churn, per-link
packet corruption/duplication/loss, per-node clock skew and NIC
degradation, and Byzantine activations.  Plans are what the campaign
runner sweeps, what the shrinker minimizes, and what
``python -m repro chaos --replay`` replays.

Op vocabulary (each op is a JSON list, name first)::

    ["cast", sender, count]            sender broadcasts count app casts
    ["run", seconds]                   advance the simulation
    ["crash", node]                    crash-stop a node
    ["restart", node]                  reboot a crashed node (rejoins)
    ["leave", node]                    graceful leave
    ["join", node]                     spawn a fresh node that merges in
    ["partition", [[...], [...]]]      connectivity components
    ["heal"]                           reconnect everything
    ["byzantine", node, name, params]  activate a behaviors.<name> villain
    ["byzantine_at", node, name, params]  turn a live node Byzantine NOW
    ["drop", src, dst, prob]           per-link loss (None = wildcard)
    ["corrupt", src, dst, prob]        per-link payload corruption
    ["duplicate", src, dst, prob]      per-link duplication
    ["nic", node, factor]              scale a node's NIC bandwidth
    ["skew", node, drift]              scale a node's timer delays
    ["clear_faults"]                   lift all link faults
    ["reshard_at", delta]              start a live reshard NOW (sharded
                                       planes; +-delta ring shards)

Every op is *tolerant*: an op whose target does not exist (or is in the
wrong state) is a no-op.  That property is what makes delta-debugging
shrinking sound -- any subset of a plan's ops is itself a valid plan.
"""

from __future__ import annotations

import hashlib
import json
import random

#: ops the random generator draws from by default.  ``corrupt`` is NOT in
#: the default mix: with ``crypto="none"`` corruption is undetectable (the
#: paper's model assumes authenticated channels), so it belongs in
#: campaigns that also set a real crypto scheme.
DEFAULT_OPS = ("cast", "run", "crash", "restart", "leave", "partition",
               "heal", "join", "drop", "duplicate", "nic", "skew",
               "clear_faults")

#: the adversary vocabulary: everything above plus mid-run
#: Byzantine activation.  Kept OUT of ``DEFAULT_OPS`` on purpose --
#: extending that tuple would shift ``rng.choice`` draw order and silently
#: re-seed every recorded chaos-smoke campaign.
ADVERSARY_OPS = DEFAULT_OPS + ("byzantine_at",)

#: the sharded campaign's vocabulary: the defaults plus a mid-run live
#: reshard.  A separate tuple for the same draw-order reason as above --
#: only sharded planes (repro.shard.chaos) can act on ``reshard_at``;
#: the single-group engine treats it as a tolerant no-op.
RESHARD_OPS = DEFAULT_OPS + ("reshard_at",)

#: behaviors the generator may schedule mid-run via ``byzantine_at``
RUNTIME_BEHAVIORS = ("MuteNode", "VerboseNode", "TwoFacedCaster",
                     "Equivocator", "TargetedSlanderer", "ReplayStorm")

_PLAN_FIELDS = ("seed", "n", "ops", "config", "net", "check")


class FaultPlan:
    """One declarative, replayable chaos scenario."""

    def __init__(self, seed=0, n=6, ops=(), config=None, net=None,
                 check=None):
        self.seed = seed
        self.n = n
        self.ops = [list(op) for op in ops]
        #: StackConfig keyword overrides (e.g. {"crypto": "sym"})
        self.config = dict(config or {})
        #: NetworkConfig keyword overrides (e.g. {"drop_prob": 0.1})
        self.net = dict(net or {})
        #: property-checker options ({"content_agreement": ..,
        #: "total_order": ..}); defaults follow the stack config
        self.check = dict(check or {})

    # ------------------------------------------------------------------
    def replace_ops(self, ops):
        """A copy of this plan with a different op script (shrinking)."""
        return FaultPlan(seed=self.seed, n=self.n, ops=ops,
                         config=self.config, net=self.net, check=self.check)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        return {"seed": self.seed, "n": self.n, "ops": self.ops,
                "config": self.config, "net": self.net, "check": self.check}

    @classmethod
    def from_dict(cls, data):
        return cls(**{key: data.get(key) for key in _PLAN_FIELDS
                      if data.get(key) is not None})

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def digest(self):
        """Stable content hash of this plan (campaign report identity)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.ops)

    def __eq__(self, other):
        return (isinstance(other, FaultPlan)
                and self.to_dict() == other.to_dict())

    def __repr__(self):
        return "FaultPlan(seed={}, n={}, ops={})".format(
            self.seed, self.n, len(self.ops))


def _runtime_params(rng, kind):
    """Draw constructor params for a ``byzantine_at``-scheduled behavior."""
    if kind == "MuteNode":
        return {"mute_at": round(rng.uniform(0.0, 0.2), 4)}
    if kind == "VerboseNode":
        return {"start_at": round(rng.uniform(0.0, 0.2), 4)}
    if kind == "Equivocator":
        return {"start_at": round(rng.uniform(0.0, 0.2), 4)}
    if kind == "TargetedSlanderer":
        return {"start_at": round(rng.uniform(0.0, 0.1), 4),
                "interval": rng.choice((0.002, 0.004, 0.01))}
    if kind == "ReplayStorm":
        return {"start_at": round(rng.uniform(0.0, 0.1), 4),
                "interval": rng.choice((0.01, 0.02, 0.05)),
                "burst": rng.randint(2, 12),
                "spoof_incarnation": rng.random() < 0.5}
    return {}


class _View:
    """The generator's model of the cluster it draws ops against.

    ``random_plan`` keeps one per plan and each draw updates it: a model
    of what the plan did so far, never of the simulation, which has not
    run.  The engine's tolerant op semantics absorb any divergence.
    """

    def __init__(self, n, villain=None):
        self.n = n
        self.quorum_floor = max(3, (2 * n) // 3)
        self.crashed = set()
        self.out = {villain}   # left or Byzantine: never a target again
        self.turned = False    # a byzantine_at was drawn
        self.resharded = False
        self.next_join = 1000

    def live(self):
        return [node for node in range(self.n)
                if node not in self.crashed and node not in self.out]


def _draw_op(rng, name, view):
    """Draw one ``name`` op against ``view`` and update it; None when the
    view rules the op out.  The sequence of ``rng`` draws is part of every
    seed's ``plan_hash``: reordering or removing one re-seeds them all."""
    live = view.live()
    if name == "cast":
        if not live:
            return None
        return ["cast", rng.choice(live), rng.randint(1, 12)]
    if name == "run":
        return ["run", rng.choice((0.05, 0.1, 0.3, 0.6))]
    if name in ("crash", "leave"):
        if len(live) <= view.quorum_floor:
            return None
        node = rng.choice(live)
        (view.crashed if name == "crash" else view.out).add(node)
        return [name, node]
    if name == "restart":
        candidates = sorted(view.crashed)
        if not candidates:
            return None
        node = rng.choice(candidates)
        view.crashed.discard(node)
        return ["restart", node]
    if name == "partition":
        if len(live) < 4:
            return None
        rng.shuffle(live)
        split = rng.randint(1, len(live) - 1)
        side_a = sorted(set(live[:split]) | view.crashed, key=repr)
        return ["partition", [side_a, sorted(live[split:], key=repr)]]
    if name in ("heal", "clear_faults"):
        return [name]
    if name == "join":
        view.next_join += 1
        return ["join", view.next_join - 1]
    if name in ("drop", "corrupt", "duplicate"):
        src = rng.choice(live) if live and rng.random() < 0.5 else None
        return [name, src, None, rng.choice((0.05, 0.1, 0.2, 0.3))]
    if name in ("nic", "skew"):
        if not live:
            return None
        node = rng.choice(live)
        if name == "nic":
            return ["nic", node, rng.choice((0.05, 0.2, 0.5))]
        return ["skew", node, round(rng.uniform(0.7, 1.4), 3)]
    if name == "reshard_at":
        # at most one scripted reshard per plan: the engine refuses
        # overlapping migrations, and one epoch seam per run is what
        # the campaign's key-conservation check reasons about
        if view.resharded:
            return None
        view.resharded = True
        return ["reshard_at", rng.choice((-1, 1))]
    if name == "byzantine_at":
        # keep a correct supermajority: at most one mid-run villain on
        # top of the build-time one, and never below the quorum floor
        if view.turned or len(live) <= view.quorum_floor:
            return None
        node = rng.choice(live)
        kind = rng.choice(RUNTIME_BEHAVIORS)
        view.out.add(node)
        view.turned = True
        return ["byzantine_at", node, kind, _runtime_params(rng, kind)]
    raise ValueError("unknown op in allow list: %r" % (name,))


def random_plan(seed, n=None, ops=12, allow=DEFAULT_OPS,
                byzantine_fraction=0.3, config=None, net=None, check=None):
    """Draw one random fault plan (the campaign runner's generator).

    The generator is *state-blind*: it draws each op against its own
    model of which nodes it crashed or evicted (:class:`_View`), never
    against the simulation.
    """
    rng = random.Random(seed)
    n = n or rng.randint(6, 10)
    plan_ops = []
    villain = None
    if rng.random() < byzantine_fraction:
        villain = rng.randrange(n)
        kind = rng.choice(("MuteNode", "VerboseNode", "TwoFacedCaster"))
        params = {}
        if kind == "MuteNode":
            params = {"mute_at": round(rng.uniform(0.05, 0.3), 4)}
        elif kind == "VerboseNode":
            params = {"start_at": round(rng.uniform(0.05, 0.3), 4)}
        plan_ops.append(["byzantine", villain, kind, params])
    view = _View(n, villain)
    for _step in range(ops):
        op = _draw_op(rng, rng.choice(allow), view)
        if op is not None:
            plan_ops.append(op)
    return FaultPlan(seed=seed, n=n, ops=plan_ops, config=config, net=net,
                     check=check)
