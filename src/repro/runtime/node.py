"""One net-cluster node: the OS-process entry point.

``python -m repro.runtime.node SPEC.json`` boots a single
:class:`~repro.core.process.GroupProcess` on the asyncio UDP runtime,
plays its side of the cluster's :class:`~repro.runtime.workload.NetWorkload`,
and writes a :class:`~repro.runtime.report.NodeReport` JSON at the path
the spec names.  The driver (:mod:`repro.runtime.driver`) spawns one of
these per node and folds the reports back together.

The spec is plain JSON::

    {"node_id": 0,
     "addresses": {"0": ["127.0.0.1", 40001], "1": [...], ...},
     "seed": 7,
     "config": {"byzantine": true, "crypto": "sym"},
     "established": false,
     "workload": {... NetWorkload.to_jsonable() ...},
     "report": "/tmp/.../node0.report.json",
     "obs": false,
     "obs_export": null}

Exit status 0 means the node's script completed; 1 means it timed out or
errored (the report still records whatever history it collected).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
import traceback

from repro.core.config import StackConfig
from repro.core.endpoint import GroupEndpoint
from repro.core.history import History
from repro.runtime.backend_asyncio import (AsyncioRuntime, install_uvloop,
                                           net_profile)
from repro.runtime.report import NodeReport
from repro.runtime.workload import NetWorkload, NodeScript

#: how often the supervising coroutine polls the script for completion
POLL_INTERVAL = 0.02

#: how long a node whose own script is complete stays up for the sake of
#: a peer whose heartbeats are stale.  A member that missed the final
#: view install needs the group alive while it falls back to a singleton
#: and rejoins (NEWVIEW resend) or is evicted and re-merged -- both
#: bounded well under this.  Peers that exited normally also read as
#: stale, so the wait must be bounded or the last node out would hang.
REJOIN_GRACE = 2.5


def build_config(spec_cfg):
    """A net-profiled StackConfig from the spec's config dict."""
    spec_cfg = dict(spec_cfg or {})
    if spec_cfg.pop("byzantine", True):
        base = StackConfig.byz(crypto=spec_cfg.pop("crypto", "sym"))
    else:
        base = StackConfig.benign(crypto=spec_cfg.pop("crypto", "none"))
    if spec_cfg:
        base = base.clone(**spec_cfg)
    return net_profile(base)


def _view_jsonable(view):
    return {"vid": [view.vid.counter, view.vid.creator],
            "mbrs": list(view.mbrs)}


def _stack_debug(process):
    """Membership-FSM snapshot recorded in failed reports: the first thing
    anyone triaging a net-smoke failure needs is what the node was stuck
    waiting for."""
    snap = process.membership.snapshot()
    return {
        "membership_state": snap["state"],
        "epoch": snap["epoch"],
        "coordinator": process.view.coordinator,
        "leaving": snap["leaving"],
        "merge_inflight": snap["merge_inflight"],
        "pending_joiners": snap["pending_joiners"],
        "join_offer": snap["join_offer"],
        "suspected": sorted(process.suspicion.suspected_set()),
        "blocked": process.stack.blocked,
    }


async def run_node(spec, loop):
    """Run one node's workload to completion (or its deadline)."""
    node_id = spec["node_id"]
    addresses = {int(k): (v[0], int(v[1]))
                 for k, v in spec["addresses"].items()}
    workload = NetWorkload.from_jsonable(spec["workload"])
    config = build_config(spec.get("config"))

    runtime = AsyncioRuntime(node_id, addresses, seed=spec.get("seed", 0),
                             loop=loop)
    await runtime.open()

    obs = None
    if spec.get("obs"):
        from repro.obs import ObsConfig, ObservabilityPlane
        obs = ObservabilityPlane(runtime.clock, ObsConfig())

    initial = runtime.initial_view(
        addresses, established=spec.get("established", False))
    process = runtime.spawn_process(config, initial_view=initial, obs=obs)
    endpoint = GroupEndpoint(process)
    script = NodeScript(workload, endpoint, runtime.clock)

    wall_start = time.monotonic()
    process.start()
    try:
        while runtime.clock.now < workload.deadline:
            if script.done():
                break
            await asyncio.sleep(POLL_INTERVAL)
        # linger so peers still flushing can finish against our stack
        await asyncio.sleep(workload.linger)
        # script_complete() is not monotonic: a membership wobble after
        # the linger (a wedged member evicted, then re-merged) un-does
        # it, and done() additionally holds this node up while a peer's
        # heartbeats are stale.  Re-wait until the group is whole and
        # current again -- but only up to REJOIN_GRACE once our own
        # script is complete, because normally-exited peers are
        # indistinguishable from wedged ones.
        grace_end = runtime.clock.now + REJOIN_GRACE
        while not script.done() and runtime.clock.now < workload.deadline:
            if (script.script_complete()
                    and runtime.clock.now >= grace_end):
                break
            await asyncio.sleep(POLL_INTERVAL)
        ok = script.script_complete()
        error = None if ok else "deadline: %r" % (script.milestones(),)
    except Exception:
        ok = False
        error = traceback.format_exc()

    # drain the wire-path coalescer before the final snapshot: anything
    # still buffered belongs to this run's datagram accounting, and
    # process.stop() below crashes the transport (buffers dropped)
    runtime.transport.flush_pending(reason="final")
    counters = runtime.transport.counters()
    final_view = _view_jsonable(process.view)
    debug = _stack_debug(process)
    process.stop()
    # post-stop resource accounting: satellite leak-check evidence.  stop()
    # must have closed the per-process clock and the UDP socket.
    leaks = {"pending_timers": runtime.clock.pending,
             "clock_closed": runtime.clock.closed,
             "socket_closed": runtime.transport.closed}
    runtime.close()

    wall = dict(script.milestones())
    wall["wall_elapsed"] = time.monotonic() - wall_start
    report = NodeReport(node_id, process.history, final_view=final_view,
                        counters=counters, wall=wall, leaks=leaks,
                        ok=ok, error=error, debug=debug)
    if obs is not None and spec.get("obs_export"):
        obs.export_json(spec["obs_export"])
    return report


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.runtime.node SPEC.json",
              file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        spec = json.load(handle)
    # optional perf extra: uvloop when installed (REPRO_UVLOOP=0 to veto);
    # must run before the loop is created to take effect
    install_uvloop()
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        report = loop.run_until_complete(run_node(spec, loop))
    except Exception:
        # even a crashed node leaves a report behind for the driver
        report = NodeReport(spec["node_id"], History(spec["node_id"]),
                            ok=False, error=traceback.format_exc())
    finally:
        loop.close()
    report.save(spec["report"])
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
