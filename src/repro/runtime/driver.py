"""Net-cluster driver: spawn n node processes, collect their reports.

``run_net_workload`` is the wire-side twin of
:func:`repro.runtime.workload.run_sim_workload`: it allocates one UDP
port per node on localhost, writes one spec JSON per node, launches each
node as ``python -m repro.runtime.node`` (a real OS process, so every
node has its own GIL, its own asyncio loop, and its own clock -- nothing
is shared but the wire), babysits them under a wall-clock timeout, and
folds the written :class:`~repro.runtime.report.NodeReport` files back
into a :class:`~repro.runtime.workload.WorkloadResult`.

On failure the artifacts directory (specs, reports, per-node
stdout/stderr, optional obs exports) is preserved and its path recorded
on the result, so CI can upload it.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time

from repro.runtime.report import NodeReport
from repro.runtime.workload import WorkloadResult

#: margin added to the per-node deadline when computing the kill timeout
WALL_MARGIN = 5.0


def free_udp_ports(count, host="127.0.0.1"):
    """Reserve ``count`` distinct ephemeral UDP ports.

    All sockets are held open while collecting so the OS cannot hand the
    same port out twice; they are closed just before the nodes bind.
    The (tiny) close-to-bind race is acceptable for a test driver.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _src_path():
    """The directory to put on PYTHONPATH so children import this repro."""
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def write_specs(workload, out_dir, seed=0, config=None, established=False,
                obs=False, host="127.0.0.1"):
    """Write one node spec per cluster member; returns [(node_id, path)]."""
    ports = free_udp_ports(workload.n, host=host)
    addresses = {node: [host, ports[node]] for node in range(workload.n)}
    specs = []
    for node in range(workload.n):
        spec = {
            "node_id": node,
            "addresses": {str(k): v for k, v in addresses.items()},
            "seed": seed,
            "config": config or {},
            "established": established,
            "workload": workload.to_jsonable(),
            "report": os.path.join(out_dir, "node%d.report.json" % node),
            "obs": bool(obs),
            "obs_export": (os.path.join(out_dir, "node%d.obs.json" % node)
                           if obs else None),
        }
        path = os.path.join(out_dir, "node%d.spec.json" % node)
        with open(path, "w") as handle:
            json.dump(spec, handle, indent=1)
        specs.append((node, path))
    return specs


def run_net_workload(workload, seed=0, config=None, established=False,
                     obs=False, out_dir=None, wall_timeout=None,
                     keep_artifacts="on-failure"):
    """Run the workload on a localhost UDP cluster of OS processes.

    Parameters
    ----------
    config:
        Spec-style dict (``{"byzantine": ..., "crypto": ...}``); each
        node rebuilds its StackConfig from it and applies ``net_profile``.
    wall_timeout:
        Hard kill horizon in wall seconds; defaults to the workload
        deadline + linger + a margin.
    keep_artifacts:
        "always" | "on-failure" | "never" -- whether the spec/report/log
        directory survives the call.
    """
    if wall_timeout is None:
        wall_timeout = workload.deadline + workload.linger + WALL_MARGIN
    own_dir = out_dir is None
    out_dir = out_dir or tempfile.mkdtemp(prefix="repro-net-")
    os.makedirs(out_dir, exist_ok=True)
    specs = write_specs(workload, out_dir, seed=seed, config=config,
                        established=established, obs=obs)

    env = dict(os.environ)
    src = _src_path()
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)

    children = []
    logs = []
    wall_start = time.monotonic()
    try:
        for node, spec_path in specs:
            log = open(os.path.join(out_dir, "node%d.log" % node), "w")
            logs.append(log)
            children.append((node, subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.node", spec_path],
                stdout=log, stderr=subprocess.STDOUT, env=env)))
        deadline = wall_start + wall_timeout
        timed_out = []
        for node, child in children:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                timed_out.append(node)
                child.kill()
                child.wait()
    finally:
        for _node, child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
        for log in logs:
            log.close()
    elapsed = time.monotonic() - wall_start

    reports = {}
    for node, _spec_path in specs:
        path = os.path.join(out_dir, "node%d.report.json" % node)
        try:
            reports[node] = NodeReport.load(path)
        except (OSError, ValueError, KeyError) as err:
            reports[node] = NodeReport(
                node, _missing_history(node), ok=False,
                error="no report (%s)%s" % (
                    err, "; killed at wall timeout" if node in timed_out
                    else ""))

    ok = bool(reports) and all(r.ok for r in reports.values())
    result = WorkloadResult("net", workload, reports, ok, elapsed,
                            artifacts_dir=out_dir)
    if own_dir and (keep_artifacts == "never"
                    or (keep_artifacts == "on-failure" and ok)):
        shutil.rmtree(out_dir, ignore_errors=True)
        result.artifacts_dir = None
    return result


def _missing_history(node):
    from repro.core.history import History
    return History(node)
