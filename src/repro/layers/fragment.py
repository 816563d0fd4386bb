"""Fragmentation and reassembly (paper section 3.3).

Application casts larger than the network MTU are split into fragments,
each sent as a normal app-stream cast.  Because the reliable layer below
delivers each origin's app stream in FIFO order without gaps, reassembly
is a simple accumulation of consecutive fragments.

A fragment that could not belong to any message under assembly (wrong
index, impossible count) is a verbose failure of its sender.
"""

from __future__ import annotations

from repro.core import message as mk
from repro.core.message import Message
from repro.layers.base import Layer

#: the largest app cast sent unsplit, in modelled payload bytes
MTU = 1400


class FragmentLayer(Layer):
    """Splits oversized casts; reassembles on the way up."""

    name = "fragment"

    def __init__(self):
        super().__init__()
        self._assembly = {}  # origin -> (count, received_chunks, sizes)
        self.fragmented = 0
        self.reassembled = 0

    def on_view(self, view):
        self._assembly.clear()

    # ------------------------------------------------------------------
    def handle_down(self, msg):
        if (msg.kind != mk.KIND_CAST or msg.dest is not None
                or msg.payload_size <= MTU):
            self.send_down(msg)
            return
        total = msg.payload_size
        count = -(-total // MTU)  # ceil division
        self.fragmented += 1
        self.count("casts_fragmented")
        for index in range(count):
            chunk_size = MTU if index < count - 1 else total - MTU * (count - 1)
            # only the last fragment carries the payload object; earlier
            # ones carry filler of the right wire size
            chunk_payload = msg.payload if index == count - 1 else None
            frag = Message(mk.KIND_CAST, msg.origin, msg.view_id,
                           chunk_payload, chunk_size, msg_id=msg.msg_id)
            frag.push_header("frag", (index, count, total))
            self.send_down(frag)

    # ------------------------------------------------------------------
    def handle_up(self, msg):
        header = msg.pop_header("frag")
        if header is None:
            self.send_up(msg)
            return
        if (not isinstance(header, tuple) or len(header) != 3
                or not all(isinstance(x, int) for x in header)):
            self._verbose(msg, "frag:malformed")
            return
        index, count, total = header
        if count < 1 or not 0 <= index < count or total < 0:
            self._verbose(msg, "frag:bad-bounds")
            return
        state = self._assembly.get(msg.origin)
        if state is None:
            if index != 0:
                self._verbose(msg, "frag:out-of-order")
                return
            state = [count, 0, total]
            self._assembly[msg.origin] = state
        expected_count, received, expected_total = state
        if count != expected_count or total != expected_total or index != received:
            self._verbose(msg, "frag:inconsistent")
            del self._assembly[msg.origin]
            return
        state[1] += 1
        if state[1] == count:
            del self._assembly[msg.origin]
            self.reassembled += 1
            self.count("casts_reassembled")
            whole = Message(mk.KIND_CAST, msg.origin, msg.view_id,
                            msg.payload, total, msg_id=msg.msg_id)
            whole.sender = msg.sender
            self.send_up(whole)

    def _verbose(self, msg, reason):
        if self.config.byzantine:
            self.process.verbose_detector.illegal(msg.sender, reason)
