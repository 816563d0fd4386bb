"""The per-layer cost ledger: traced spans + obs counters -> named rows.

Every per-cast value divides by the delivered casts of the traced
windows.  Counts come from the obs plane's registry (window deltas) and
from the tracer's own call counts; self times from the tracer; the
``crypto.auth`` and ``runtime.wire`` timings from replaying calls sampled
during the run, outside any span.
"""

from __future__ import annotations

import time

from repro.obs.metrics import Counter, Histogram
from repro.runtime.wire import FRAME_DATAGRAM, decode_datagram, encode_frame

from benchmarks.ledger.spec import LAYER_UNITS, STACK_LAYERS

def obs_snapshot(registry):
    """``{(layer, name): {node: (value, samples)}}`` of every counter and
    histogram in the obs registry."""
    snap = {}
    if registry is None:
        return snap
    for (node, layer, name), instrument in registry.select().items():
        if isinstance(instrument, Counter):
            entry = (instrument.value, 0)
        elif isinstance(instrument, Histogram):
            entry = (instrument.total, instrument.count)
        else:
            continue
        snap.setdefault((layer, name), {})[node] = entry
    return snap


def obs_histogram_max(registry, layer, name):
    samples = registry.merged_histogram(name, layer=layer).samples
    return max(samples) if samples else 0.0


def snapshot_delta(after, before):
    """Window activity ``{(layer, name): (sum over nodes, largest node,
    samples)}``: what every node added between two snapshots."""
    delta = {}
    for key, nodes in after.items():
        earlier = before.get(key, {})
        values, samples = [], 0
        for node, (value, count) in nodes.items():
            b_value, b_count = earlier.get(node, (0, 0))
            values.append(value - b_value)
            samples += count - b_count
        delta[key] = (sum(values), max(values), samples)
    return delta


def merge_deltas(deltas):
    """Add up the windows of several episodes."""
    merged = {}
    for delta in deltas:
        for key, entry in delta.items():
            prior = merged.get(key, (0, 0, 0))
            merged[key] = tuple(a + b for a, b in zip(prior, entry))
    return merged


def _replay_us(samples, call, weight=lambda args: 1, rounds=5):
    """Mean microseconds per unit of work of ``call`` over sampled
    arguments, timed in a tight loop outside the run (best of
    ``rounds``: the replay measures the code, not the host's mood)."""
    if not samples:
        return 0.0
    units = sum(weight(sample) for sample in samples) or 1
    best = None
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for sample in samples:
            call(sample)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1000.0 / units


def build(tracer, obs, facts, delivered, window_s, backend):
    """All per-layer rows of one traced pass.

    ``obs`` is the merged obs-registry window delta, ``facts`` the
    workload's own observations (see the episodes' ``facts``),
    ``delivered`` the casts delivered in the traced windows and
    ``window_s`` their total length on the backend's clock.
    """
    per_cast = 1.0 / delivered if delivered else 0.0
    self_us = {row: ns / 1000.0 for row, ns in tracer.self_ns.items()}
    calls = tracer.calls
    counts = tracer.counts

    def total(layer, name):
        return obs.get((layer, name), (0, 0, 0))[0]

    def peak(layer, name):
        return obs.get((layer, name), (0, 0, 0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    rows = {}
    for layer in STACK_LAYERS:
        row = "layers." + layer
        rows[row + ".self_us_per_cast"] = self_us.get(row, 0.0) * per_cast
        rows[row + ".msgs_per_cast"] = (
            calls.get((row, "handle_up"), 0)
            + calls.get((row, "handle_down"), 0)) * per_cast

    # on UDP the obs hooks see frames at the transport's send; on the
    # simulator, datagrams at the network's
    rows["layers.bottom.datagrams_per_cast"] = (
        total("net", "datagrams_out") * per_cast)
    rows["layers.bottom.bytes_per_cast"] = total("net", "bytes_out") * per_cast
    rows["layers.bottom.pack_fill"] = ratio(counts.get("net.frames", 0),
                                            counts.get("net.sends", 0))
    rows["layers.bottom.sig_rejects"] = total("bottom", "drop_bad_signature")

    samples = tracer.samples
    sign_us = _replay_us(samples.get("sign"), lambda s: s[0](*s[1]))
    verify_us = _replay_us(samples.get("verify"), lambda s: s[0](*s[1]),
                           weight=lambda s: len(s[1][1]))
    rows["crypto.auth.sign_us_per_cast"] = (
        sign_us * counts.get("crypto.signs", 0) * per_cast)
    rows["crypto.auth.verify_us_per_cast"] = (
        verify_us * counts.get("crypto.verifies", 0) * per_cast)
    rows["crypto.auth.macs_per_cast"] = (
        counts.get("crypto.macs", 0) * per_cast)

    naks = total("reliable", "naks_sent")
    suppressed = total("reliable", "naks_suppressed")
    rows["layers.reliable.acks_per_cast"] = (
        total("reliable", "acks_sent")
        + total("reliable", "ack_gossips_sent")) * per_cast
    rows["layers.reliable.naks_per_cast"] = naks * per_cast
    rows["layers.reliable.naks_suppressed_share"] = ratio(
        suppressed, naks + suppressed)
    rows["layers.reliable.retransmits_per_cast"] = (
        total("reliable", "retransmissions_served") * per_cast)
    rows["layers.flow.stalls"] = total("flow", "stalls")

    # every member counts its own decides; the per-member maximum is the
    # number of agreement instances the group ran
    decides = peak("ordering", "batches_decided")
    fast = peak("ordering", "fast_decides")
    changes_started = peak("membership", "view_changes_started")
    batch_total, _peak, batch_count = obs.get(("ordering", "batch_size"),
                                              (0, 0, 0))
    rows["layers.ordering.decides_per_s"] = ratio(decides, window_s)
    rows["layers.ordering.batch_size_mean"] = ratio(batch_total, batch_count)
    agreement = counts.get("kind.order", 0) + counts.get("kind.consensus", 0)
    rows["layers.ordering.traffic_share"] = ratio(
        agreement, sum(n for key, n in counts.items()
                       if key.startswith("kind.")))
    rows["consensus.vector.instances"] = (
        max(0, decides - fast) + changes_started)
    rows["consensus.vector.msgs_per_instance"] = ratio(
        agreement, decides + changes_started)
    rows["consensus.fastpath.fast_decides"] = fast
    rows["consensus.fastpath.fast_fallbacks"] = peak("ordering",
                                                     "fast_fallbacks")
    rows["consensus.fastpath.fast_share"] = ratio(fast, decides)

    rows["layers.heartbeat.heartbeats_per_s"] = ratio(
        total("heartbeat", "heartbeats_sent"), window_s)
    rows["layers.suspicion.suspicions_adopted"] = total(
        "suspicion", "suspicions_adopted")
    rows["layers.suspicion.false_suspicions"] = facts.get(
        "false_suspicions", 0)
    changes = peak("membership", "view_changes")
    change_s, _p, change_n = obs.get(("membership", "view_change_seconds"),
                                     (0, 0, 0))
    rows["layers.membership.view_changes"] = changes
    rows["layers.membership.view_changes_aborted"] = max(
        0, changes_started - changes)
    rows["layers.membership.detect_ms"] = facts.get("detect_ms", 0.0)
    rows["layers.membership.view_change_ms_mean"] = (
        ratio(change_s, change_n) * 1000.0)
    rows["layers.membership.view_change_ms_max"] = facts.get(
        "view_change_ms_max", 0.0)
    rows["layers.state_transfer.snapshots_sent"] = total(
        "state_transfer", "snapshots_sent")
    rows["layers.state_transfer.catchup_ms"] = facts.get("catchup_ms", 0.0)

    events = counts.get("events", 0)
    timers = sum(n for (_row, what), n in calls.items() if what == "timer")
    if backend == "sim":
        rows["sim.scheduler.events_per_cast"] = events * per_cast
        rows["sim.scheduler.timers_per_cast"] = timers * per_cast
        rows["sim.scheduler.self_us_per_event"] = ratio(
            self_us.get("sim.scheduler", 0.0), events)
        rows["sim.scheduler.pending_peak"] = facts.get("pending_peak", 0)
        rows["sim.network.datagrams_per_cast"] = (
            total("net", "datagrams_out") * per_cast)
        rows["sim.network.drops_per_cast"] = (
            total("net", "datagrams_dropped") * per_cast)
        rows["sim.network.self_us_per_cast"] = (
            self_us.get("sim.network", 0.0) * per_cast)
    else:
        encode = samples.get("encode")
        rows["runtime.wire.encode_us_per_frame"] = _replay_us(
            encode, lambda s: encode_frame(FRAME_DATAGRAM, s[0], s[1]))
        rows["runtime.wire.decode_us_per_datagram"] = _replay_us(
            samples.get("decode"), lambda s: decode_datagram(memoryview(s)))
        sent = facts.get("transport.datagrams_sent", 0)
        frames = facts.get("transport.frames_sent", 0)
        flushes = sum(facts.get("transport.flush_" + reason, 0)
                      for reason in ("size", "timer", "burst", "final"))
        rows["runtime.wire.bytes_per_cast"] = (
            facts.get("transport.bytes_out", 0) * per_cast)
        rows["runtime.transport.datagrams_per_cast"] = sent * per_cast
        rows["runtime.transport.frames_per_datagram"] = ratio(frames, sent)
        rows["runtime.transport.encode_cache_hit_share"] = ratio(
            facts.get("transport.encode_cache_hits", 0), frames)
        rows["runtime.transport.flush_timer_share"] = ratio(
            facts.get("transport.flush_timer", 0), flushes)
        rows["runtime.transport.self_us_per_cast"] = (
            self_us.get("runtime.transport", 0.0) * per_cast)
        rows["runtime.clock.timers_per_cast"] = events * per_cast
        rows["runtime.loop.self_us_per_cast"] = (
            facts.get("loop_self_us", 0.0) * per_cast)

    if "reshard_ops" in facts:
        attempted = facts.get("attempted", 0)
        rows["shard.directory.route_us_per_op"] = (
            self_us.get("shard.directory", 0.0) * per_cast)
        rows["shard.rsm.fenced_share"] = ratio(facts["fenced"], attempted)
        rows["shard.rsm.retries_per_op"] = ratio(facts["retries"], attempted)
        rows["shard.reshard.migration_ms"] = facts["migration_ms"]
        rows["shard.reshard.keys_moved"] = facts["keys_moved"]
    return rows


def attribution(tracer, backend):
    """Where the traced window's time went.

    Returns ``(shares, unattributed_share, loop_self_us)``: the share of
    the window held by every row, the share held by no named row, and --
    on UDP -- the event loop's own CPU.  On the simulator the base is
    the window's wall time, which the root spans (``sim.scheduler``)
    cover almost entirely.  On UDP the process mostly waits in the
    selector, so the base is the window's CPU time and what no span
    covers is the event loop's own work (``runtime.loop``).
    """
    # host-speed samples run inside the window but are not the workload
    sampling = tracer.self_ns.pop("calibration", 0)
    spanned = sum(tracer.self_ns.values())
    other = tracer.self_ns.get("other", 0)
    if backend == "sim":
        base = tracer.window_wall_ns - sampling
        residual = max(0, base - spanned)
        loop_self_us = 0.0
        unattributed = residual + other
    else:
        base = max(tracer.window_cpu_ns - sampling, spanned)
        loop_self_us = (base - spanned) / 1000.0
        unattributed = other
    shares = {row: ns / base for row, ns in tracer.self_ns.items()} \
        if base else {}
    if loop_self_us:
        shares["runtime.loop"] = loop_self_us * 1000.0 / base
    return shares, (unattributed / base if base else 0.0), loop_self_us


def complete(rows):
    """Every per-layer metric of the contract, zero where a row does not
    apply to the workload (``runtime.*`` on the simulator, ...)."""
    return {name: float(rows.get(name, 0.0)) for name in LAYER_UNITS}
