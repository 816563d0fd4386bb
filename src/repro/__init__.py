"""repro -- reproduction of "Practical Byzantine Group Communication".

Drabkin, Friedman, Kama (Technion TR CS-2005-17 / ICDCS 2006): a Byzantine
fault tolerant group communication system derived from JazzEnsemble, with
fuzzy mute/verbose failure detectors, vector Byzantine consensus, a 2-step
Byzantine uniform broadcast, and a layered micro-protocol stack -- running
here on a deterministic discrete-event network simulator.

Quickstart::

    from repro import Group, StackConfig

    group = Group.bootstrap(8, config=StackConfig.byz(crypto="sym"))
    group.endpoints[0].cast({"hello": "world"}, size=16)
    group.run(0.5)
    for event in group.endpoints[3].events:
        print(event)

Everything in ``__all__`` is the supported public surface; see docs/API.md
for the tour and docs/OBSERVABILITY.md for the metrics/tracing plane.
"""

from repro.byzantine.behaviors import (
    BadViewCoordinator,
    ByzantineBehavior,
    ForgedRetransmitter,
    MuteCoordinator,
    MuteNode,
    Replayer,
    SlowNode,
    TwoFacedCaster,
    VerboseNode,
)
from repro.core.config import ShardConfig, StackConfig
from repro.core.endpoint import GroupEndpoint
from repro.core.events import CastDeliver, SendDeliver, ViewEvent
from repro.core.group import Group
from repro.core.history import Execution, History
from repro.core.process import GroupProcess
from repro.core.properties import check_virtual_synchrony
from repro.core.view import View, ViewId, singleton_view
from repro.obs import MetricsRegistry, ObsConfig, ObservabilityPlane, Trace
from repro.runtime import Runtime, SimRuntime
from repro.shard import (
    Cluster,
    HashRing,
    ShardDirectory,
    ShardManager,
    ShardReplica,
    ShardedKVStore,
    ShardedRSM,
    TransferCoordinator,
)
from repro.sim.network import NetworkConfig
from repro.sim.topology import HostModel

__version__ = "1.1.0"

__all__ = [
    "BadViewCoordinator",
    "ByzantineBehavior",
    "CastDeliver",
    "Cluster",
    "Execution",
    "ForgedRetransmitter",
    "Group",
    "GroupEndpoint",
    "GroupProcess",
    "HashRing",
    "History",
    "HostModel",
    "MetricsRegistry",
    "MuteCoordinator",
    "MuteNode",
    "NetworkConfig",
    "ObsConfig",
    "ObservabilityPlane",
    "Replayer",
    "Runtime",
    "SendDeliver",
    "ShardConfig",
    "ShardDirectory",
    "ShardManager",
    "ShardReplica",
    "ShardedKVStore",
    "ShardedRSM",
    "SimRuntime",
    "SlowNode",
    "StackConfig",
    "Trace",
    "TransferCoordinator",
    "TwoFacedCaster",
    "VerboseNode",
    "View",
    "ViewEvent",
    "ViewId",
    "__version__",
    "check_virtual_synchrony",
    "singleton_view",
]
