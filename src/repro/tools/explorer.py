"""Bounded schedule exploration for the agreement protocols.

The paper proves Algorithm 1 and the 2-step uniform broadcast correct on
paper (and mentions ITUA's formal verification as desirable future work,
section 6).  This tool is the executable counterpart: it runs a protocol
instance set under *every* message-delivery schedule up to a bound --
breadth-limited DFS over the nondeterministic choice of which in-flight
message to deliver next -- and checks the safety properties (and, for
the uniform broadcast, totality) in every reachable terminal state.

Exhaustive exploration explodes fast, so it is only tractable for tiny
systems (n <= 5, short protocols); that is exactly where hand-proofs are
most often wrong about thresholds, which makes it a good complement to
the randomized tests.  Beyond that, a ``max_states`` budget makes it a
bounded search: ``truncated`` says the scope was not exhausted.
"""

from __future__ import annotations


class ScheduleExplorer:
    """Explores delivery orders of a message-passing protocol.

    The protocol under test is supplied as a factory returning fresh
    instances wired to the explorer's virtual bus:

    * ``factory(explorer)`` creates and returns ``{node_id: instance}``;
      instances send by calling ``explorer.broadcast(sender, payload)``;
    * instances receive via ``on_message(sender, payload)``;
    * ``check(instances)`` returns a violation string or None; it is
      evaluated at every quiescent state.
    """

    def __init__(self, factory, check, max_states=200_000,
                 max_inflight_choice=None):
        self.factory = factory
        self.check = check
        self.max_states = max_states
        self.max_inflight_choice = max_inflight_choice
        self.states_explored = 0
        self.terminal_states = 0
        self.violations = []
        self.truncated = False

    # ------------------------------------------------------------------
    # bus API used by instances under test
    # ------------------------------------------------------------------
    def broadcast(self, sender, payload):
        for receiver in self._instances:
            if receiver != sender:
                self._inflight.append((sender, receiver, payload))

    def send(self, sender, receiver, payload):
        self._inflight.append((sender, receiver, payload))

    # ------------------------------------------------------------------
    def run(self):
        """Explore; returns True if no schedule violated the check."""
        self._explore_root()
        return not self.violations

    def _explore_root(self):
        self._instances = {}
        self._inflight = []
        result = self.factory(self)
        if isinstance(result, tuple):
            # (instances, kickoff): register first, THEN let the protocol
            # start -- its initial broadcasts need the member list
            self._instances, kickoff = result
            kickoff()
        else:
            self._instances = result
        self._explore(self._inflight)

    def _explore(self, inflight):
        self.states_explored += 1
        if self.states_explored > self.max_states:
            self.truncated = True
            return
        if not inflight:
            self.terminal_states += 1
            violation = self.check(self._instances)
            if violation:
                self.violations.append(violation)
            return
        choices = range(len(inflight))
        if (self.max_inflight_choice is not None
                and len(inflight) > self.max_inflight_choice):
            choices = range(self.max_inflight_choice)
        for index in choices:
            if self.violations:
                return  # first counterexample is enough
            sender, receiver, payload = inflight[index]
            rest = inflight[:index] + inflight[index + 1:]
            # deliver and capture the new sends it triggers
            saved_instances = self._snapshot()
            self._inflight = list(rest)
            self._instances[receiver].on_message(sender, payload)
            self._explore(self._inflight)
            self._restore(saved_instances)

    # ------------------------------------------------------------------
    # state snapshot/restore: protocols under test must be deep-copyable
    # ------------------------------------------------------------------
    def _snapshot(self):
        import copy
        return copy.deepcopy(self._instances)

    def _restore(self, snapshot):
        self._instances = snapshot


def explore_uniform_broadcast(n, f, origin=0, two_faced=None, echo_to=(),
                              max_states=100_000):
    """Explore the 2-step UB for agreement and totality under every schedule.

    ``two_faced``: optional ``{receiver: value}`` scripting a Byzantine
    origin: it shows each receiver that initial (``"v"`` if unlisted),
    sends its echo of the same value to the members in ``echo_to`` only,
    and is not run as a correct instance.
    """
    from repro.broadcast.uniform import UniformBroadcast

    def factory(bus):
        instances = {}
        members = list(range(n))
        for i in members:
            if two_faced is not None and i == origin:
                continue
            instances[i] = UniformBroadcast(
                ("x", 0), members, i, f, origin,
                lambda payload, i=i: bus.broadcast(i, payload))
        # kick off: the origin's initial, possibly two-faced
        for receiver in members:
            if receiver == origin:
                continue
            value = "v"
            if two_faced is not None:
                value = two_faced.get(receiver, "v")
            bus.send(origin, receiver, ("ub-initial", value))
            if receiver in echo_to:
                bus.send(origin, receiver, ("ub-echo", value))
        return instances

    def check(instances):
        delivered = {i: inst.decision for i, inst in instances.items()
                     if inst.decided}
        if len(set(delivered.values())) > 1:
            return "uniformity violated: %r" % (delivered,)
        if delivered and len(delivered) < len(instances):
            return "totality violated: only %r delivered" % (delivered,)
        return None

    explorer = ScheduleExplorer(factory, check, max_states=max_states,
                                max_inflight_choice=4)
    explorer.run()
    return explorer


def explore_consensus_agreement(n, f, proposals, max_states=100_000,
                                width=1):
    """Explore the vector consensus for agreement under every schedule.

    Tractable only for very small n; crashes and suspicions are not
    modelled here (the randomized tests cover those), pure asynchrony is.
    """
    from repro.consensus.vector import VectorConsensus

    def factory(bus):
        instances = {}
        members = list(range(n))
        for i in members:
            instances[i] = VectorConsensus(
                "x", members, i, f, proposals[i],
                lambda payload, i=i: bus.broadcast(i, payload),
                coordinator_seed=0)

        def kickoff():
            for i in members:
                instances[i].start()
        return instances, kickoff

    def check(instances):
        decisions = {i: inst.decision for i, inst in instances.items()
                     if inst.decided}
        if len(set(decisions.values())) > 1:
            return "agreement violated: %r" % (decisions,)
        for i, decided in decisions.items():
            for k in range(width):
                inputs = {tuple(proposals[j])[k] for j in proposals}
                if len(inputs) == 1 and decided[k] not in inputs:
                    return "validity violated at entry %d: %r" % (k, decided)
        return None

    explorer = ScheduleExplorer(factory, check, max_states=max_states,
                                max_inflight_choice=3)
    explorer.run()
    return explorer
