"""Replicated state machine on atomic broadcast (paper section 3.5).

Adding total ordering to virtual synchrony yields atomic delivery, the
basic mechanism for replicated state machines [Schneider].  This module is
the canonical consumer: every replica applies the same deterministic
commands in the same total order and therefore stays in the same state --
even with Byzantine members injecting commands, as long as the ordering
layer's agreement holds.
"""

from __future__ import annotations

import hashlib


class StateMachine:
    """Deterministic application state; subclass or use KVStore."""

    def apply(self, origin, command):
        raise NotImplementedError

    def digest(self):
        raise NotImplementedError


class KVStore(StateMachine):
    """A key-value store with read-modify-write commands."""

    def __init__(self):
        self.data = {}
        self.applied = 0

    def apply(self, origin, command):
        if not isinstance(command, tuple) or not command:
            return None  # malformed commands are ignored deterministically
        op = command[0]
        result = None
        if op == "set" and len(command) == 3:
            self.data[command[1]] = command[2]
        elif op == "del" and len(command) == 2:
            self.data.pop(command[1], None)
        elif op == "incr" and len(command) == 3:
            key = command[1]
            base = self.data.get(key, 0)
            if isinstance(base, int) and isinstance(command[2], int):
                self.data[key] = base + command[2]
                result = self.data[key]
        elif op == "append" and len(command) == 3:
            key = command[1]
            base = self.data.get(key, ())
            if isinstance(base, tuple):
                self.data[key] = base + (command[2],)
        self.applied += 1
        return result

    def digest(self):
        canon = tuple(sorted(self.data.items(), key=repr))
        return hashlib.sha256(repr(canon).encode("utf-8")).hexdigest()[:16]


class Replica:
    """One RSM replica bound to a group endpoint.

    Requires a stack configured with ``total_order=True`` -- construction
    refuses anything weaker, because state-machine replication is exactly
    the semantics total ordering buys.
    """

    def __init__(self, endpoint, machine=None):
        if not endpoint.process.config.total_order:
            raise ValueError("replicated state machine requires total_order")
        self.endpoint = endpoint
        self.machine = machine or KVStore()
        self.log = []
        # the replica's record is ``log``; a second CastDeliver per
        # delivery in ``endpoint.events`` would only grow with the run
        endpoint.record_events = False
        endpoint.on_cast = self._on_cast
        # joiners receive the group's state through the Byzantine-safe
        # state-transfer layer (f+1 matching digests vouch the snapshot)
        endpoint.state_provider = self._snapshot
        endpoint.state_installer = self._install_snapshot

    def submit(self, command, size=32):
        """Propose a command; it is applied once atomically delivered."""
        return self.endpoint.cast(("rsm", command), size=size)

    def _on_cast(self, event):
        payload = event.payload
        if not isinstance(payload, tuple) or len(payload) != 2 or payload[0] != "rsm":
            return
        command = payload[1]
        self.log.append((event.origin, command))
        self.machine.apply(event.origin, command)

    def state_digest(self):
        return self.machine.digest()

    def _snapshot(self):
        if isinstance(self.machine, KVStore):
            return ("kv", tuple(sorted(self.machine.data.items(), key=repr)),
                    self.machine.applied)
        return ("opaque", repr(self.machine))

    def _install_snapshot(self, snapshot):
        if (isinstance(snapshot, tuple) and len(snapshot) == 3
                and snapshot[0] == "kv" and isinstance(self.machine, KVStore)):
            self.machine.data = dict(snapshot[1])
            self.machine.applied = snapshot[2]
