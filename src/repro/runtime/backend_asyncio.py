"""The asyncio UDP runtime: one node of a real localhost cluster.

Each node of a net cluster is its own OS process (spawned by
:mod:`repro.runtime.driver`) running one :class:`AsyncioRuntime`: a
monotonic :class:`~repro.runtime.clock.AsyncioClock` plus a
:class:`~repro.runtime.transport.AsyncioTransport` bound to the node's
UDP port.  The unmodified :class:`~repro.core.process.GroupProcess` and
layer stack run on top.

``net_profile`` widens the failure-detection and retransmission timing
constants: the simulator's defaults (20 ms heartbeats, 80 ms mute
timeout) assume a noiseless virtual LAN, while a loaded CI host adds
scheduling jitter that would read as muteness and churn views.
"""

from __future__ import annotations

import os

from repro.core.process import GroupProcess
from repro.core.view import View, ViewId, singleton_view
from repro.crypto.keys import KeyManager
from repro.runtime.clock import AsyncioClock
from repro.runtime.interface import Runtime
from repro.runtime.transport import AsyncioTransport


def install_uvloop():
    """Swap the default asyncio event-loop policy for uvloop if present.

    uvloop is an *optional* extra (``pip install .[perf]``): the runtime
    must work from a bare checkout, so a missing module is simply False.
    Set ``REPRO_UVLOOP=0`` (or ``off``/``no``/``false``) to keep the
    stock loop even when uvloop is importable -- e.g. to bisect a
    loop-dependent difference.  Returns True when uvloop was installed.
    Call it *before* creating the event loop; an already-running loop is
    unaffected by a policy change.
    """
    if os.environ.get("REPRO_UVLOOP", "").strip().lower() in (
            "0", "off", "no", "false"):
        return False
    try:
        import uvloop
    except ImportError:
        return False
    uvloop.install()
    return True


def net_profile(config):
    """Rescale a :class:`~repro.core.config.StackConfig` for real clocks.

    Only *floors* are applied: a caller that already asks for slower
    timers keeps them.
    """
    return config.clone(
        heartbeat_interval=max(config.heartbeat_interval, 0.05),
        mute_timeout=max(config.mute_timeout, 0.6),
        gossip_interval=max(config.gossip_interval, 0.1),
        consensus_msg_timeout=max(config.consensus_msg_timeout, 0.6),
        newview_timeout=max(config.newview_timeout, 1.0),
        retrans_timeout=max(config.retrans_timeout, 0.1),
        ack_interval=max(config.ack_interval, 0.04),
        fuzzy_decay_interval=max(config.fuzzy_decay_interval, 0.2),
        suspicion_settle_delay=max(config.suspicion_settle_delay, 0.02))


class AsyncioRuntime(Runtime):
    """Clock + UDP transport for one node; spawns its GroupProcess."""

    kind = "net"

    def __init__(self, node_id, addresses, seed=0, loop=None):
        self._clock = AsyncioClock(loop=loop, seed=seed)
        self._transport = AsyncioTransport(node_id, addresses, loop=loop)
        self.node_id = node_id
        self.addresses = dict(addresses)

    @property
    def clock(self):
        return self._clock

    @property
    def transport(self):
        return self._transport

    async def open(self):
        """Bind the UDP socket; must run before :meth:`spawn_process`."""
        await self._transport.open()
        return self

    def close(self):
        self._transport.close()
        self._clock.close()

    # ------------------------------------------------------------------
    def initial_view(self, node_ids, established=False):
        """The boot view: a common view of the whole address book, or the
        node's singleton (gossip/merge then assembles the group -- the
        default, since a real cluster cannot assume a synchronized boot)."""
        if not established:
            return singleton_view(self.node_id)
        members = tuple(sorted(node_ids, key=repr))
        return View(ViewId(1, members[0]), members)

    def spawn_process(self, config, keys=None, initial_view=None, obs=None,
                      group_id=None):
        """Build this runtime's node's GroupProcess.

        Wires the transport's undecodable-datagram reports into the
        bottom layer's corruption-suspicion path, the same escalation a
        signature rejection takes.

        ``group_id`` tags the process for the shard plane: the bottom
        layer stamps it into every signed message, the transport scopes
        its gossip, and wrong-group traffic is filtered on receive.
        """
        keys = keys or KeyManager()
        if initial_view is None:
            initial_view = self.initial_view(self.addresses)
        view = initial_view
        if view.f == 0 and config.byzantine and not view.underprovisioned:
            f = config.resilience(view.n)
            view = View(view.vid, view.mbrs, coordinator=view.coordinator,
                        f=f, underprovisioned=(f == 0))
        process = GroupProcess(self._clock, self._transport, self.node_id,
                               config, keys, view, obs=obs,
                               group_id=group_id)
        self._transport.on_undecodable = process.bottom.note_undecodable
        if obs is not None:
            self._clock.observer = obs
            self._transport.observer = obs
        return process

    def __repr__(self):
        return "AsyncioRuntime(node={!r}, peers={})".format(
            self.node_id, len(self.addresses))
