"""Total ordering via repeated Byzantine consensus (paper section 3.5).

Nodes accumulate the casts they receive; each node proposes a
deterministically-chosen batch (all accumulated undelivered messages,
sorted by id) to a consensus instance.  Decided batches are delivered in
decided order, then the next instance starts.

Because the batch rule is deterministic and messages keep accumulating
while an instance runs, under continuous load every instance after the
first finds all correct proposals identical and decides in **one
communication round** -- the amortized single-step cost the paper measures
(the first instance of a burst may disagree and take more rounds).

For small messages the proposals carry the messages themselves, so total
ordering subsumes uniform broadcast without a separate protocol, exactly
as the paper notes.

Decisions are announced on demand.  Algorithm 1 ends every instance with
each member broadcasting ``dec`` -- n of the listing's 2n + 1 broadcasts
of a one-round instance, almost never read.  Here every decided instance
goes into one bounded archive and nothing is broadcast at decide time; a
``val`` arriving for a finished instance proves its sender is behind, and
is answered with the archived ``("dec", vector)``, once per instance.  Same
messages, later: safety is untouched, and only a member that is already
behind pays an extra hop (DESIGN section 6).

View-change interaction: the SYNC reports of the flush protocol carry each
member's highest started instance; every member joins all instances up to
the maximum before delivering the deterministic tail, so the total order
extends unbroken to the view boundary.

Every instance is one ``VectorConsensus``, run by one instance manager:
up to *window* instances in flight, decided batches held and applied
strictly in instance order.  The classic path is window 1.
``ordering_fast_path`` sets the window to ``FAST_PIPELINE_WINDOW`` and lets
any cast arrival open an instance, so a cast arriving while instance ``k``
is in flight rides instance ``k+1`` immediately instead of waiting for
``k`` to finish plus an ordering tick.  Every proposal is the whole
undelivered buffer, so concurrent proposals overlap; delivery dedups by
message id, and in-order application makes the dedup resolve identically
at every correct member.  Per-origin FIFO holds by construction: the
reliable layer feeds the buffer in each origin's order, so a correct
proposal plus what its proposer already delivered is prefix-closed per
origin, and every batch applied before it covers that delivered part.

Who opens a classic instance: the cast itself when it finds this member's
ordering tick dormant (nothing to batch with), otherwise the tick or the
decide event of the instance in flight.  The tick goes dormant at a grid
instant that finds nothing buffered, stashed or in flight, and at a decide
that leaves the member so -- unless the member is *busy*: its last cast
came less than ``ORDER_TICK`` after the one before.  ``ORDER_TICK`` is thus
the batching period of a busy member, not a poll (DESIGN section 4, the
ordering tick contract).
"""

from __future__ import annotations

from repro.core import message as mk
from repro.core.message import Message, batch_sort_key, is_cast_id
from repro.consensus.vector import VectorConsensus, _stable_hash
from repro.layers.base import Layer
from repro.sim.clock import GridTimer

#: bound on how far a (possibly lying) SYNC report can make us chase
#: ordering instances past our own; vacuous instances are cheap but a
#: Byzantine member must not be able to request unbounded work
MAX_INSTANCE_SKEW = 64

#: pipelining depth under ``ordering_fast_path``: how many ordering
#: instances may be in flight concurrently.  Two keeps a cast's wait
#: bounded by one in-flight instance instead of (instance + tick) while
#: capping the per-node state and the overlap between concurrent proposals.
FAST_PIPELINE_WINDOW = 2

#: the ordering tick (seconds): the grid a busy member batches its casts on
ORDER_TICK = 0.002


def fast_coordinator(members, coordinator_seed):
    """The one member that may open the overlap slot of the instance
    seeded ``coordinator_seed`` while another is in flight; everyone else
    joins it when its ``val`` arrives.  Offset by one from the instance's
    round-1 coordinator, so one slow member does not gate both."""
    return members[_stable_hash(len(members), coordinator_seed)
                   % len(members)]


def batch_entries(batch):
    """The well-formed ``(msg_id, payload, size)`` entries of a batch, in
    batch order.  A batch is Byzantine input (a proposal, or a decided slot
    that may be the consensus bottom): the rest is left out, and a caller
    that must refuse such a batch compares lengths."""
    if not isinstance(batch, tuple):
        return []
    return [entry for entry in batch
            if isinstance(entry, tuple) and len(entry) == 3
            and is_cast_id(entry[0])
            and type(entry[2]) is int and entry[2] >= 0]


class _DeliveredIds:
    """The ids delivered in this view: a set that costs nothing per cast.

    Casts of one origin are delivered in counter order, so per origin one
    contiguous run ``[first, last]`` of counters holds them all (counters
    run on across views, so a run starts wherever its origin's first
    delivery of the view is -- a forged first id costs that origin the
    compression, nothing else).  Whatever does not extend a run -- out of
    order, or not shaped like a cast id at all: ids are Byzantine input --
    is kept in ``overflow`` as a plain set would keep it, and leaves it
    again when its run catches up.  Membership is exactly that of ``set``,
    ``(o, True) == (o, 1.0) == (o, 1)`` included.
    """

    __slots__ = ("_runs", "overflow")

    def __init__(self):
        self._runs = {}         # origin -> [first, last] counter delivered
        self.overflow = set()   # delivered ids outside their origin's run

    def __contains__(self, msg_id):
        if msg_id in self.overflow:
            return True
        if not isinstance(msg_id, tuple) or len(msg_id) != 2:
            return False
        run = self._runs.get(msg_id[0])
        counter = msg_id[1]
        return (run is not None and isinstance(counter, (int, float))
                and run[0] <= counter <= run[1] and counter == int(counter))

    def add(self, msg_id):
        if is_cast_id(msg_id):
            origin, counter = msg_id
            run = self._runs.get(origin)
            if run is None:
                self._runs[origin] = [counter, counter]
                return
            if counter == run[1] + 1:
                run[1] = counter
                overflow = self.overflow
                while overflow and (origin, run[1] + 1) in overflow:
                    run[1] += 1
                    overflow.discard((origin, run[1]))
                return
            if run[0] <= counter <= run[1]:
                return
        self.overflow.add(msg_id)

    def clear(self):
        self._runs.clear()
        self.overflow.clear()


class OrderingLayer(Layer):
    """Atomic (totally ordered) delivery of application casts."""

    name = "ordering"

    def __init__(self):
        super().__init__()
        self._buffer = {}        # msg_id -> Message (received, unordered)
        self._delivered = _DeliveredIds()   # ids delivered in this view
        self._instances = {}     # k -> AgreementInstance (in flight)
        self._instance_k = 0     # number of the last instance opened
        self._pending = {}       # k -> [(sender, proto)] early messages
        self._ticker = None      # GridTimer on ORDER_TICK, set at attach
        self._last_cast_at = float("-inf")  # arrival of the last buffered cast
        self._busy = False       # ... less than ORDER_TICK after the one before
        self._stopped_proposing = False
        self._decided_k = 0
        self._flush_target = None
        self._flush_done_cb = None
        self._flush_undecidable = False
        self._frozen_undecidable = False
        self._decisions = {}     # k -> [vector, dec already broadcast]
        self._decided_out = {}   # k -> vector decided, unapplied
        self.batches_decided = 0
        self.messages_ordered = 0

    # ------------------------------------------------------------------
    def attach(self, stack):
        super().attach(stack)
        self._ticker = GridTimer(self.sim, ORDER_TICK, self._tick)

    def start(self):
        if self.config.total_order:
            self._ticker.start()
            self._ticker.arm()  # picks up anything buffered before boot

    def stop(self):
        self._ticker.stop()

    def on_view(self, view):
        self._buffer.clear()
        self._delivered.clear()
        self._instances.clear()
        self._instance_k = 0
        self._pending.clear()
        self._stopped_proposing = False
        self._decided_k = 0
        self._flush_target = None
        self._flush_done_cb = None
        self._flush_undecidable = False
        self._frozen_undecidable = False
        self._decided_out.clear()
        self._decisions.clear()

    def on_control(self, event, data):
        if (not self.config.total_order or event not in (
                "view-change-started", "suspicions-updated")):
            return
        if event == "view-change-started":
            self._stopped_proposing = True
        # either event means the failure detector's verdicts moved (the
        # *first* suspicion raises only view-change-started): an instance
        # that has heard every live member gets no further message to
        # re-evaluate its wait on, so the host must poke it
        for inst in list(self._instances.values()):
            inst.notify_suspicion_change()

    def _window(self):
        """How many instances may be in flight at once."""
        return FAST_PIPELINE_WINDOW if self.config.ordering_fast_path else 1

    def freeze_for_flush(self, undecidable):
        """Called by the membership layer just before it broadcasts its
        SYNC report.  Returns the (started, decided) instance watermarks.

        In *undecidable* mode -- the agreed survivor set is smaller than
        n - f, so no further round quorum can ever complete -- the
        in-flight instances are frozen: they may only finish by adopting
        the announced decision of a member that decided before the freeze.
        This pins the watermarks the SYNC reports carry, making the
        members' flush decisions mutually consistent.

        With pipelining the *decided* watermark is the highest instance
        whose batch was actually applied: a decision still parked behind a
        gap in ``_decided_out`` was observed by nobody's application order
        and is reported (and, if the flush says so, poisoned) exactly as
        if it had never decided.
        """
        self._stopped_proposing = True
        if undecidable:
            self._frozen_undecidable = True
            self._freeze_in_flight()
        return (self._instance_k, self._decided_k)

    def _freeze_in_flight(self):
        """From now on the running instances finish only by adopting f + 1
        matching decs (undecidable flush)."""
        for inst in list(self._instances.values()):
            inst.dec_adoption_quorum = self.process.f + 1
            inst.freeze_rounds()

    # ------------------------------------------------------------------
    # message plane
    # ------------------------------------------------------------------
    def passes_up(self):
        return not self.config.total_order

    def handle_up(self, msg):
        if not self.config.total_order:
            self.send_up(msg)
            return
        if msg.kind == mk.KIND_CAST:
            if msg.msg_id is None or msg.msg_id in self._delivered:
                return
            self._buffer[msg.msg_id] = msg
            now = self.sim.now
            self._busy = now - self._last_cast_at < ORDER_TICK
            self._last_cast_at = now
            # a dormant tick says this member had nothing buffered,
            # stashed or in flight at its last grid instant, or at the
            # decide that emptied it while not busy: there is no load to
            # batch with, so the cast opens its instance now.  A busy
            # member's cast waits for the tick (or the next decide), which
            # is all the batching window 1 has; a wider window lets any
            # arrival open the next instance
            idle = self._ticker.dormant
            self._ticker.arm()
            if idle or self.config.ordering_fast_path:
                self._maybe_start()
            return
        if msg.kind == mk.KIND_ORDER:
            self._on_order_msg(msg)
            return
        self.send_up(msg)

    def _on_order_msg(self, msg):
        self.process.mute_detector.fulfil(msg.origin, "ordering")
        payload = msg.payload
        if not isinstance(payload, tuple) or len(payload) != 3:
            self._misbehavior(msg.origin, "ordering:bad-msg")
            return
        _tag, k, proto = payload
        if payload[0] != "ord" or not isinstance(k, int) or k < 1:
            self._misbehavior(msg.origin, "ordering:bad-instance")
            return
        inst = self._instances.get(k)
        if inst is not None:
            inst.on_message(msg.origin, proto)
        elif k > self._instance_k:
            if k > self._instance_k + MAX_INSTANCE_SKEW:
                self._misbehavior(msg.origin, "ordering:instance-skew")
                return
            self._pending.setdefault(k, []).append((msg.origin, proto))
            self._ticker.arm()
            # someone is ahead of us: join their instances (up to the
            # window) even with empty local batches, or we would block
            # their termination.  Joining is not proposing, so a started
            # view change does not forbid it -- but a flush in progress
            # does: the SYNC watermarks are pinned by then
            while (self._instance_k < k
                   and len(self._instances) < self._window()
                   and self._flush_target is None
                   and not self._frozen_undecidable):
                self._open_instance()
        else:
            self._on_stale_order_msg(k, proto)

    def _on_stale_order_msg(self, k, proto):
        """A message for an instance we already finished.

        No decision is broadcast at decide time, so a member whose round
        did not complete with ours (it missed a quorum, was suspected and
        left out, or is joining the instance during a flush) would wait
        forever on an instance everyone else completed.  Such a member
        always has a ``val`` in flight that our decision did not count --
        its next round's or a frozen instance's repeat -- and that ``val``
        is answered from the archive
        with the ``dec`` Algorithm 1 would have broadcast, which both live
        rounds and dec-adoption flushes know how to consume.  The answer
        is a broadcast, so one per instance serves every straggler.
        """
        entry = self._decisions.get(k)
        if (entry is None or entry[1] or not isinstance(proto, tuple)
                or not proto or proto[0] != "val"):
            return
        entry[1] = True
        self.count("dec_responses")
        self._bcast_proto(k, ("dec", entry[0]))

    # ------------------------------------------------------------------
    # instance lifecycle
    # ------------------------------------------------------------------
    def _tick(self):
        # the tick opens an instance for what a busy member buffered since
        # the last one (under a wider window, cast arrivals and decide
        # events drive the pipeline and the tick mops up anything those
        # paths missed).  Dormant iff nothing is buffered, stashed or in
        # flight (then it could start nothing); a cast or stashed ``ord``
        # re-arms it on the same grid, so an idle member costs no events
        # and a busy one keeps its instants
        self._maybe_start()
        self._ticker.fired(self._buffer or self._pending or self._instances)

    def _maybe_start(self):
        """Open the next instance when the window has room.

        A peer's early message for the next instance always warrants
        joining it, view change started or not.  Otherwise, idle (no
        instance in flight): any member starts on a non-empty buffer.
        Busy (window above 1 and room left): only the *next* instance's
        ``fast_coordinator`` opens the overlap slot, and only for casts the
        in-flight and unapplied batches do not already cover -- everyone
        else joins when its ``val`` arrives.
        """
        if self._flush_target is not None or self._frozen_undecidable:
            return
        if len(self._instances) >= self._window():
            return
        k_next = self._instance_k + 1
        if self._pending.get(k_next):
            self._open_instance()
            return
        if self._stopped_proposing:
            return
        if not self._instances:
            if self._buffer:
                self._open_instance()
            return
        view = self.view
        seed = ("ord",) + view.vid.key() + (k_next,)
        if fast_coordinator(list(view.mbrs), seed) != self.me:
            return
        covered = self._covered_ids()
        if any(mid not in covered for mid in self._buffer):
            self._open_instance()

    def _covered_ids(self):
        """Message ids an in-flight estimate or unapplied batch holds."""
        vectors = [inst.est for inst in self._instances.values()]
        vectors += self._decided_out.values()
        return {entry[0] for vector in vectors
                for entry in batch_entries(vector[0])}

    def _proposal(self):
        """Every buffered (so undelivered) cast, in batch order.  Leaving
        out what an in-flight instance covers would break per-origin FIFO
        when that instance decides another batch."""
        entries = [(mid, m.payload, m.payload_size)
                   for mid, m in self._buffer.items()]
        entries.sort(key=lambda e: batch_sort_key(e[0]))
        return tuple(entries[: self.config.order_batch_max])

    def _open_instance(self):
        """Start instance ``_instance_k + 1`` on the buffered casts."""
        view = self.view
        k = self._instance_k + 1
        self._instance_k = k
        members = list(view.mbrs)
        args = (("ord", view.vid.key(), k), members, self.me, self.process.f,
                (self._proposal(),), lambda proto: self._bcast_proto(k, proto))
        instance = VectorConsensus(
            *args, eager_dec=False,
            is_suspected=self.process.suspicion.suspects,
            on_decide=lambda vec: self._on_decided(k, vec),
            on_misbehavior=self._misbehavior,
            coordinator_seed=("ord",) + view.vid.key() + (k,),
            on_round=self._on_round)
        self._instances[k] = instance
        early = self._pending.pop(k, [])
        instance.start()
        for sender, proto in early:
            if self._instances.get(k) is not instance:
                break           # decided (or poisoned) under our feet
            instance.on_message(sender, proto)

    def _bcast_proto(self, k, proto):
        self.send(mk.KIND_ORDER, ("ord", k, proto), self._proto_size(proto))

    def _on_round(self, rnd, awaited):
        """A consensus round began: its awaited members owe us a message
        by one shared deadline (one timer per round, not one per member)."""
        self.process.mute_detector.expect_all(
            [m for m in awaited if m != self.me], "ordering",
            self.config.consensus_msg_timeout)

    def _proto_size(self, proto):
        """Accounting size of one ordering protocol message: what it
        actually carries, a proposal vector in its last slot."""
        return 16 + sum(e[2] + 10 for e in batch_entries(proto[-1][0]))
    def _misbehavior(self, member, reason):
        if self.config.byzantine and member != self.me:
            self.process.verbose_detector.illegal(member, reason)

    def _on_decided(self, k, vector):
        inst = self._instances.pop(k, None)
        if inst is None:
            return              # poisoned by an undecidable flush
        self._archive_decision(k, vector, inst.dec_announced)
        self._decided_out[k] = vector
        self._apply_ready()

    def _apply_ready(self):
        """Apply decided batches strictly in instance order.

        A decision for ``k+1`` that lands while ``k`` is still in flight
        parks in ``_decided_out``; applying in ``k`` order is what makes
        the delivery-time dedup of overlapping proposals deterministic
        and therefore identical at every correct member.
        """
        while self._decided_k + 1 in self._decided_out:
            k = self._decided_k + 1
            vector = self._decided_out.pop(k)
            self._decided_k = k
            self._apply_batch(vector)
        if self._flush_target is not None:
            self._continue_flush()
            return
        self._maybe_start()
        # a light member (its last cast came a tick or more after the one
        # before) left with nothing to do has no load to batch with: the
        # tick sleeps, so its next cast opens at arrival
        if not (self._busy or self._buffer or self._pending
                or self._instances):
            self._ticker.sleep()

    def _apply_batch(self, vector):
        batch = vector[0]
        if not isinstance(batch, tuple):
            return
        self.batches_decided += 1
        self.count("batches_decided")
        self.observe("batch_size", len(batch))
        for msg_id, payload, size in sorted(
                batch_entries(batch), key=lambda e: batch_sort_key(e[0])):
            self._deliver(msg_id, payload, size)

    def _archive_decision(self, k, vector, announced):
        """Remember a decision so stragglers can be answered.

        Bounded by the same skew window as instance chasing: entries
        retire as the instance number advances, and the whole archive
        clears at each view install.
        """
        self._decisions[k] = [vector, announced]
        self._decisions.pop(k - MAX_INSTANCE_SKEW, None)

    def _deliver(self, msg_id, payload, size):
        if msg_id in self._delivered:
            return
        self._delivered.add(msg_id)
        self.messages_ordered += 1
        self.count("messages_ordered")
        held = self._buffer.pop(msg_id, None)
        # always deliver the *decided* content: with a two-faced origin our
        # local copy may differ from what the group agreed on, and content
        # agreement is exactly what consensus-based ordering buys
        if held is not None and held.payload == payload:
            self.send_up(held)
        else:
            out = Message(mk.KIND_CAST, msg_id[0], self.view.vid, payload,
                          size, msg_id=msg_id)
            self.send_up(out)

    # ------------------------------------------------------------------
    # flush at view change
    # ------------------------------------------------------------------
    def flush(self, k_star, on_done, undecidable=False):
        """Resolve every instance up to ``k_star``, then deliver the tail.

        Decidable mode (survivors still form an n - f quorum of the old
        view): join every instance up to the maximum *started* anywhere;
        each terminates normally.

        Undecidable mode: ``k_star`` is the maximum *decided* anywhere
        (from the frozen SYNC watermarks); instances up to it finish by
        adopting the deciders' on-demand ``dec``; instances beyond it were
        decided by nobody and are poisoned identically at every member --
        their messages fall into the deterministic tail.
        """
        self._stopped_proposing = True
        self._flush_undecidable = undecidable
        self._flush_target = min(k_star, self._instance_k + MAX_INSTANCE_SKEW)
        self._flush_done_cb = on_done
        if undecidable:
            # a frozen instance's val may have been counted by the very
            # decisions it now waits for: repeat it, so the deciders (all
            # frozen before their SYNC, hence finished by now) answer
            for k, inst in list(self._instances.items()):
                if k <= self._flush_target:
                    inst.resolicit()
        self._continue_flush()

    def _continue_flush(self):
        if self._flush_undecidable:
            self._continue_flush_undecidable()
            return
        if self._instances:
            return  # wait for the in-flight instances to decide
        if self._instance_k < self._flush_target:
            self._open_instance()
            return
        self._deliver_tail()

    # ------------------------------------------------------------------
    # bounded-state introspection (the soak's checker)
    # ------------------------------------------------------------------
    def state_sizes(self):
        return {
            "buffer": len(self._buffer),
            "delivered_overflow": len(self._delivered.overflow),
            "pending": sum(len(v) for v in self._pending.values()),
            "decision_archive": len(self._decisions),
            "decided_backlog": len(self._decided_out),
            "instance_state": sum(i.state_size()
                                  for i in self._instances.values()),
        }

    def _continue_flush_undecidable(self):
        # instances (and parked decisions) beyond the target were
        # decided-and-applied by nobody: poison them identically at every
        # member -- their messages stay buffered and join the
        # deterministic tail
        target = self._flush_target
        for k in [k for k in self._instances if k > target]:
            del self._instances[k]
        for k in [k for k in self._decided_out if k > target]:
            del self._decided_out[k]
        if self._decided_k < target:
            self._open_to_adopt()
        else:
            self._deliver_tail()

    def _open_to_adopt(self):
        """A peer decided an instance we have not finished: unless it is
        in flight (and frozen) already, open it in frozen mode purely to
        broadcast its val and adopt the decs the deciders answer with."""
        if not self._instances:
            self._open_instance()
            self._freeze_in_flight()

    def release_own(self):
        """Deliver my own buffered casts, in batch order: I leave the view
        for a singleton one, where no one else delivers them after me."""
        own = [mid for mid in self._buffer if mid[0] == self.me]
        for msg_id in sorted(own, key=batch_sort_key):
            msg = self._buffer[msg_id]
            self._deliver(msg_id, msg.payload, msg.payload_size)

    def _deliver_tail(self):
        # every agreed batch is delivered; the rest of the cut is delivered
        # in a deterministic order identical at all members
        for msg_id in sorted(self._buffer, key=batch_sort_key):
            msg = self._buffer[msg_id]
            self._delivered.add(msg_id)
            self.messages_ordered += 1
            self.count("messages_ordered")
            self.send_up(msg)
        self._buffer.clear()
        done, self._flush_done_cb = self._flush_done_cb, None
        self._flush_target = None
        if done is not None:
            done()
