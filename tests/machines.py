"""One host port for the machines without I/O, and nodes built on it.

:class:`reliable.StreamMachine` and :class:`view_change.ViewChange` share
one port: ``send(kind, payload, size, dest=None)``, ``arm(delay,
callback, *args)``, ``now()`` and ``count(name)``, which a stack's layers
implement in :class:`repro.layers.base.Layer`.  Here nothing stands behind
it: a send lands in ``outbox``, an armed timer in ``timers`` until the
test (or the bus) fires it (:meth:`Port.expire`), and the clock moves only
when a timer fires.

* :class:`Port` hosts a stream machine alone (``tests/test_stream_machine.py``,
  and the membership layer's in ``tests/stubs.py``).
* :class:`Node` is the two machines composed over one port, as a stack
  composes them: the view change flushes the node's real stream machine,
  and the node serves NAKs from what it admitted itself.
* :func:`on_bus` puts nodes on the schedule explorer's bus, and
  :class:`BusExplorer` explores it with a visited set
  (``tests/test_tools.py``).
"""

from __future__ import annotations

import copy

from repro.core import message as mk
from repro.layers.reliable import STREAM_APP, StreamMachine
from repro.layers.view_change import ViewChange
from repro.tools.explorer import ScheduleExplorer


class Timer:
    def __init__(self, delay, callback, args):
        self.delay, self.callback, self.args = delay, callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class Port:
    """Member ``me`` of ``view``: the shared port, recording, and the
    stream machine's own outputs; ``acks`` is the ack evidence it holds,
    ``(member, origin, stream) -> seq``."""

    def __init__(self, me, view, config):
        self.me, self.view, self.config = me, view, config
        self.time = 0.0
        self.outbox = []        # (dest, (kind, body, vid))
        self.timers = []
        self.acks = {}
        self.archive = {}       # (origin, stream, seq) -> what admit let in
        self.delivered = []
        self.streams = StreamMachine(self, config, me)

    # the shared port --------------------------------------------------
    def send(self, kind, payload, size, dest=None):
        for peer in [dest] if dest is not None else self.view.mbrs:
            if peer != self.me:
                self.outbox.append((peer, (kind, payload, self.view.vid)))

    def arm(self, delay, callback, *args):
        self.timers.append(Timer(delay, callback, args))
        return self.timers[-1]

    def now(self):
        return self.time

    def expire(self, timer):
        """Advance the clock to ``timer`` and fire it, once."""
        assert not timer.cancelled
        timer.cancelled = True
        self.time += timer.delay
        timer.callback(*timer.args)

    # the stream machine's outputs -------------------------------------
    def admit(self, origin, stream, seq, msg):
        self.archive[origin, stream, seq] = msg
        return True

    def ignore(self, *args):
        pass

    # the ack a delivered cut sends at once: stability is this harness's
    # shortcut (Node.all_stable), so no ack travels on the bus
    count = opened = drained = ack = ignore

    def deliver(self, msg):
        self.delivered.append(msg)

    send_up = deliver

    def acked_seq(self, member, origin, stream):
        return self.acks.get((member, origin, stream), 0)

    def sent(self, stream):
        return 0                # nothing of our own is cast here

    def naks(self):
        """The NAKs sent, as ``(target, origin, stream, seqs)``."""
        return [(dest, *payload) for dest, (kind, payload, _vid)
                in self.outbox if kind == mk.KIND_NAK]


class Node(Port):
    """A :class:`ViewChange` over the node's :class:`StreamMachine`, one
    port for both.  ``crashed`` members are suspected and get nothing.
    Stability is answered here (``all_stable`` is True), and so is the
    app flush (it completes at once): the ordering machine and the ack
    path are not part of the composition yet.

    On the bus a view-change timer is a message to ourselves, so it fires
    in any order.  A repair timer never fires: the bus loses nothing, so
    the ask at the cut is what must complete it."""

    def __init__(self, me, view, config, crashed=frozenset()):
        super().__init__(me, view, config)
        self.f = config.resilience(view.n)
        self.crashed = frozenset(crashed)
        self.leavers = set()
        self.joiners = None
        self.stability = self.mute = self.verbose = self
        self.installed = None
        self.evidence = []
        self.repaired = []      # what arrived in a retransmission
        self.machine = ViewChange(self, self.streams, config, me)
        self._posted = 0        # timers drained so far

    def take(self, sender, payload):
        """One input from the bus: a timer of ours, or a peer's message,
        dropped outside the view it was sent in as the bottom layer does."""
        kind, body, vid = payload
        if kind == "timer":
            if not self.timers[body].cancelled:
                self.expire(self.timers[body])
        elif vid != self.view.vid:
            return
        elif kind == mk.KIND_NAK:
            origin, stream, seqs = body
            for seq in seqs:
                msg = self.archive.get((origin, stream, seq))
                if msg is not None:
                    self.send(mk.KIND_RETRANS, (origin, stream, seq, msg), 0,
                              dest=sender)
        elif kind == mk.KIND_RETRANS:
            origin, stream, seq, msg = body
            self.repaired.append(msg)
            self.streams.accept(origin, stream, seq, msg)
        else:
            self.machine.on_message(sender, kind, body)

    def drain(self):
        """This step's sends as one FIFO batch per live receiver."""
        for index in range(self._posted, len(self.timers)):
            if self.timers[index].callback.__self__ is self.machine:
                self.outbox.append((self.me, ("timer", index, None)))
        self._posted = len(self.timers)
        batches = {}
        for dest, payload in self.outbox:
            if dest not in self.crashed:
                batches.setdefault(dest, []).append(payload)
        self.outbox = []
        return tuple((dest, tuple(batch)) for dest, batch in batches.items())

    def acked_seq(self, member, origin, stream):
        """What ``member``'s SYNC report to us says it holds: this node
        sees no acks."""
        report = self.machine.attempt.sync_reports.get(member, {})
        return report.get(origin, 0) if stream == STREAM_APP else 0

    # the view change's outputs ----------------------------------------
    def expect(self, member, tag, timeout):
        return Timer(timeout, None, ())

    fulfil = subscribe = unsubscribe = block = Port.ignore

    def all_stable(self, cut, survivors):
        return True

    def suspects(self, member):
        return member in self.crashed

    def suspected(self):
        return set(self.crashed)

    def suspect(self, member, reason):
        self.evidence.append((member, reason))

    illegal = suspect

    def aborted(self):
        self.evidence.append("aborted")

    def wedge(self, undecidable):
        return (0, 0)

    def flush_app(self, k_star, on_done, undecidable):
        on_done()

    release_own = Port.ignore   # nothing of our own is cast here

    def install(self, view):
        self.installed = self.view = view
        self.streams.clear()
        self.machine.on_view()


class _OnBus:
    """A node on the explorer's bus, as the number of its state.  A node
    is deterministic, so each (state, input) transition is computed once
    and shared (``memo``, ``states``), and the explorer's per-step copy
    of a node is a number instead of two machines."""

    def __init__(self, me, bus, memo, states, state):
        self.me, self._bus, self._memo, self._states = me, bus, memo, states
        self.state = state

    def __deepcopy__(self, memo):
        return _OnBus(self.me, self._bus, self._memo, self._states,
                      self.state)

    @property
    def node(self):
        return self._states[self.state][0]

    def on_message(self, sender, batch):
        key = (self.state, sender, batch)
        state = self._memo.get(key)
        if state is None:
            node = copy.deepcopy(self.node)
            for payload in batch:
                node.take(sender, payload)
            state = self._memo[key] = len(self._states)
            self._states.append((node, node.drain()))
        self.state = state
        self.post()

    def post(self):
        for dest, batch in self._states[self.state][1]:
            self._bus.send(self.me, dest, batch)


def on_bus(bus, nodes):
    """A :class:`~repro.tools.explorer.ScheduleExplorer` factory's result
    for ``nodes`` (``{me: Node}``, inputs already given): the instances,
    and the kickoff that posts what each node sent so far."""
    memo, states = {}, []
    instances = {}
    for me, node in nodes.items():
        instances[me] = _OnBus(me, bus, memo, states, len(states))
        states.append((node, node.drain()))

    def kickoff():
        for instance in instances.values():
            instance.post()
    return instances, kickoff


class BusExplorer(ScheduleExplorer):
    """The schedule explorer over :func:`on_bus` nodes, with a visited
    set: a state of the bus -- every node's state number and what is in
    flight, a batch named by its id (one object per sending state) --
    reached again is not explored again."""

    def __init__(self, factory, check, **kw):
        super().__init__(factory, check, **kw)
        self._visited = set()

    def _explore(self, inflight):
        key = (tuple(node.state for node in self._instances.values()),
               tuple((sender, receiver, id(batch))
                     for sender, receiver, batch in inflight))
        if key not in self._visited:
            self._visited.add(key)
            super()._explore(inflight)
