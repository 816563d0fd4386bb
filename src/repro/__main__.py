"""Command-line interface: ``python -m repro <command>``.

Small operational surface for poking at the system without writing a
script -- run a demo cluster, inject a fault, or print the calibration.
"""

from __future__ import annotations

import argparse
import sys


def cmd_demo(args):
    """Boot a group, broadcast, crash a member, show the view change."""
    from repro import Group, StackConfig
    config = StackConfig.byz(crypto=args.crypto,
                             total_order=args.total_order)
    group = Group.bootstrap(args.nodes, config=config, seed=args.seed)
    print("booted %d nodes: %s (f=%d, %s)"
          % (args.nodes, group.processes[0].view, group.processes[0].f,
             config.label()))
    for node, endpoint in group.endpoints.items():
        endpoint.cast(("hello", node), size=16)
    group.run(0.3)
    delivered = len([e for e in group.endpoints[0].events
                     if type(e).__name__ == "CastDeliver"])
    print("node 0 delivered %d casts" % delivered)
    victim = args.nodes - 1
    print("crashing node %d ..." % victim)
    group.crash(victim)
    ok = group.run_until(
        lambda: all(victim not in p.view.mbrs
                    for n, p in group.processes.items()
                    if n != victim and not p.stopped), timeout=10.0)
    duration = group.processes[0].membership.last_change_duration
    print("recovered=%s new view=%s (%.1f ms)"
          % (ok, group.processes[0].view,
             (duration or 0) * 1000.0))
    return 0


def cmd_attack(args):
    """Inject a Table-1 scenario and report the recovery time."""
    from repro.byzantine.table1 import TABLE1_SCENARIOS, recovery_time
    if args.scenario not in TABLE1_SCENARIOS:
        print("scenarios: %s" % ", ".join(TABLE1_SCENARIOS))
        return 2
    result = recovery_time(args.scenario, n=args.nodes, seed=args.seed)
    print("%s at n=%d: recovered=%s in %.4f s (max %.4f s)"
          % (args.scenario, args.nodes, result["recovered"],
             result["recovery_seconds"], result["max_recovery_seconds"]))
    return 0 if result["recovered"] else 1


def cmd_trace(args):
    """Boot an instrumented group, cast once, print the message's span."""
    import json

    from repro import Group, StackConfig
    from repro.tools.timeline import render_trace
    config = StackConfig.byz(crypto=args.crypto, obs=True)
    group = Group.bootstrap(args.nodes, config=config, seed=args.seed)
    msg_id = group.endpoints[0].cast(("traced", "cast"), size=16)
    ok = group.run_until(
        lambda: all(p.top.delivered >= 1 for p in group.processes.values()),
        timeout=5.0)
    trace = group.trace(msg_id)
    if args.json:
        print(json.dumps({"delivered_everywhere": ok,
                          "trace": trace.to_dict() if trace else None,
                          "metrics": group.metrics.to_dict()}, indent=2))
        group.stop()
        return 0 if ok else 1
    print("cast %r on a %d-node %s cluster (delivered everywhere: %s)"
          % (msg_id, args.nodes, config.label(), ok))
    for line in render_trace(trace):
        print(line)
    print("\nper-layer hop counters:")
    for row in group.metrics.rows():
        if row["name"] in ("casts_sent", "casts_delivered", "datagrams_out",
                           "datagrams_in"):
            print("  node %-6s %-14s %-16s %d"
                  % (row["node"], row["layer"], row["name"], row["value"]))
    group.stop()
    return 0 if ok else 1


#: chaos presets: config/check/allow bundles for the common campaigns.
#: ``corrupt`` only enters the op mix when a real crypto scheme can detect
#: it (the byz-sym preset); with crypto="none" corruption is silent.
CHAOS_PRESETS = {
    "benign": {"config": {"byzantine": False}, "byzantine_fraction": 0.0},
    "byz": {"config": None, "byzantine_fraction": 0.3},
    "byz-sym": {"config": {"byzantine": True, "crypto": "sym"},
                "byzantine_fraction": 0.3, "corrupt": True},
    # the default (classic) ordering mode under the byz op mix
    "byz-total": {"config": {"byzantine": True, "total_order": True},
                  "byzantine_fraction": 0.3},
    # pipelined ordering (a window of two consensus instances) under the
    # full adversary vocabulary (byzantine_at schedules Equivocator & co.
    # mid-run), with corruption enabled since crypto is real.  Exercises
    # the overlap of in-flight instances under every fault class.
    "byz-fast": {"config": {"byzantine": True, "crypto": "sym",
                            "total_order": True,
                            "ordering_fast_path": True},
                 "byzantine_fraction": 0.3, "corrupt": True,
                 "adversary": True},
}


def cmd_chaos(args):
    """Run a chaos campaign (or replay one plan); exit 1 on violations."""
    import json

    from repro.chaos import (ADVERSARY_OPS, DEFAULT_OPS, FaultPlan,
                             run_grid_campaign, run_plan,
                             run_random_campaign)

    if args.replay:
        plan = FaultPlan.load(args.replay)
        violations, _engine = run_plan(plan)
        print("replayed %s: %d violations" % (args.replay, len(violations)))
        for line in violations:
            print("  " + line)
        return 1 if violations else 0

    preset = CHAOS_PRESETS[args.preset]
    if args.grid:
        config = preset["config"]
        if args.preset == "byz-sym":
            corrupts = (0.0, 0.05, 0.1)
        else:
            corrupts = (0.0,)
        summary = run_grid_campaign(
            drops=(0.0, 0.1, 0.2, 0.3), corrupts=corrupts, n=args.nodes,
            seed=args.start, config=config, shrink=not args.no_shrink,
            out_dir=args.out, log=print)
    else:
        base = ADVERSARY_OPS if preset.get("adversary") else DEFAULT_OPS
        allow = base if preset.get("corrupt") \
            else tuple(op for op in base if op != "corrupt")
        summary = run_random_campaign(
            range(args.start, args.start + args.seeds), ops=args.ops,
            allow=allow, byzantine_fraction=preset["byzantine_fraction"],
            config=preset["config"], shrink=not args.no_shrink,
            out_dir=args.out, log=print)
    print(json.dumps({key: summary[key]
                      for key in ("seeds", "passed", "failed")}))
    return 1 if summary["failed"] else 0


def cmd_soak(args):
    """Run a long-horizon soak campaign; nonzero exit when it fails."""
    import json
    import os

    from repro.chaos import run_soak

    report = run_soak(args.seed, n=args.nodes, target_events=args.events,
                      recovery_bound=args.recovery_bound,
                      byzantine=not args.benign, log=print)
    print("soak seed %d: %s after %d cycles / %d events (%.1fs sim); "
          "%d byzantine episodes, recovery max %s"
          % (args.seed, report["verdict"].upper(), report["cycles"],
             report["events_processed"], report["sim_time"],
             report["byzantine_episodes"], report["recovery"]["max"]))
    for line in (report["violations"] + report["state_violations"])[:10]:
        print("  " + line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "soak-seed%d.json" % args.seed)
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, default=str)
        print("report written to %s" % path)
    return 1 if report["verdict"] == "fail" else 0


def cmd_net(args):
    """Boot a real asyncio-UDP cluster on localhost, form a view,
    multicast, tear down -- each node its own OS process."""
    import json

    from repro.runtime.driver import run_net_workload
    from repro.runtime.workload import NetWorkload
    leaver = None if args.no_leave else args.nodes - 1
    workload = NetWorkload(n=args.nodes, casts_per_node=args.casts,
                           leaver=leaver, deadline=args.deadline)
    config = {"byzantine": not args.benign, "crypto": args.crypto}
    print("spawning %d node processes on localhost UDP (%s%s) ..."
          % (args.nodes, "benign" if args.benign else "byz+" + args.crypto,
             "" if leaver is None else ", node %d will leave" % leaver))
    result = run_net_workload(workload, seed=args.seed, config=config,
                              obs=args.obs,
                              keep_artifacts="always" if args.keep
                              else "on-failure")
    if args.json:
        print(json.dumps(result.summary(), indent=2))
    else:
        members = result.common_final_members()
        print("cluster %s in %.2f s wall" % (
            "completed" if result.ok else "FAILED", result.elapsed))
        for node in sorted(result.reports):
            report = result.reports[node]
            print("  node %d: ok=%-5s delivered=%-3d formed_at=%s%s"
                  % (node, report.ok,
                     len(report.history.delivery_order()),
                     ("%.2fs" % report.wall["formed_at"])
                     if report.wall.get("formed_at") is not None else "never",
                     (" error=%s" % report.error.splitlines()[-1])
                     if report.error else ""))
        print("  final view at survivors: %s"
              % (list(members) if members else "DISAGREE"))
        violations = result.violations()
        print("  Def 2.1/2.2 violations: %d" % len(violations))
        for line in violations[:5]:
            print("    " + line)
    if result.artifacts_dir:
        print("artifacts: %s" % result.artifacts_dir)
    return 0 if (result.ok and not result.violations()
                 and result.common_final_members() is not None) else 1


def cmd_shards(args):
    """Boot a sharded service plane, route keys, run a cross-shard
    transfer, and check Defs 2.1/2.2 per shard."""
    from repro import Cluster, StackConfig, check_virtual_synchrony
    config = StackConfig.byz(crypto=args.crypto, total_order=True)
    cluster = Cluster.create(shards=args.shards,
                             nodes_per_shard=args.nodes_per_shard,
                             config=config, seed=args.seed)
    print("plane: %d shards x %d nodes (%s) on one shared runtime"
          % (cluster.shards, args.nodes_per_shard, config.label()))
    cluster.run_until_stable_views(timeout=5.0)

    rsm = cluster.sharded_rsm()
    src = next(k for i in range(1000)
               if cluster.route(k := "acct:%d" % i) == 0)
    dst = next(k for i in range(1000)
               if cluster.route(k := "acct:%d" % i) == 1)
    print("routing: %r -> shard %d, %r -> shard %d"
          % (src, cluster.route(src), dst, cluster.route(dst)))
    rsm.submit(src, ("set", src, 100))
    cluster.run(1.0)
    outcome = rsm.transfer(src, dst, 30)
    cluster.run(1.0)
    print("cross-shard transfer of 30: %s (balances: %s=%s, %s=%s)"
          % (outcome, src, rsm.get(src), dst, rsm.get(dst)))

    violations = []
    for shard in range(cluster.shards):
        violations.extend(check_virtual_synchrony(
            cluster.manager.execution(shard)))
    print("Def 2.1/2.2 violations across %d shards: %d"
          % (cluster.shards, len(violations)))
    for line in violations[:5]:
        print("  " + line)
    keys = cluster.manager.key_stats()
    print("shared key cache: %d pairwise keys derived, %d cache hits"
          % (keys["pair_derivations"], keys["pair_cache_hits"]))
    cluster.stop()
    return 0 if outcome == "committed" and not violations else 1


def cmd_reshard(args):
    """Run live reshard migrations under a chaos campaign (sim), or one
    migration over real localhost UDP with --net; exit 1 on violations."""
    import json
    import os

    if args.net:
        from repro.shard.netplane import run_reshard_conformance
        report = run_reshard_conformance(
            shards=args.shards, nodes_per_shard=args.nodes_per_shard,
            keys=args.keys, rounds=args.rounds, seed=args.start,
            wall_timeout=args.deadline)
        migration = report["migration"]
        print("net reshard %d->%d shards x %d nodes: %s in %.2f s wall"
              % (migration["from_shards"], migration["to_shards"],
                 args.nodes_per_shard, "ok" if report["ok"] else "FAIL",
                 report["elapsed"]))
        print("  state=%s keys_moved=%d pairs=%d/%d fencing=%s"
              % (migration["state"], migration["keys_moved"],
                 migration["pairs_done"], migration["pairs"],
                 migration["fencing"]))
        for line in report["violations"][:10]:
            print("  " + line)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out,
                                "reshard-net-seed%d.json" % args.start)
            with open(path, "w") as handle:
                json.dump(report, handle, indent=2, default=str)
            print("report written to %s" % path)
        return 0 if report["ok"] else 1

    from repro.shard.chaos import run_reshard_campaign
    seeds = range(args.start, args.start + args.seeds)
    report = run_reshard_campaign(
        seeds=seeds, shards=args.shards,
        nodes_per_shard=args.nodes_per_shard, keys=args.keys,
        rounds=args.rounds, plan_ops=args.ops, verbose=True)
    moved = sum(m["keys_moved"] for r in report["results"]
                for m in r["migrations"])
    faults = sum(r.get("mid_migration_ops", 0) for r in report["results"])
    print("campaign: %d/%d seeds clean, %d keys moved across the seam, "
          "%d fault ops placed mid-migration"
          % (len(report["seeds"]) - len(report["failures"]),
             len(report["seeds"]), moved, faults))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "reshard-campaign.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, default=str)
        print("report written to %s" % path)
    return 0 if report["ok"] else 1


def cmd_calibration(args):
    """Print the calibration tables the benchmarks run on."""
    from repro.crypto.cost import CryptoCostModel
    from repro.sim.topology import BladeCenterTopology, HostModel
    host = HostModel()
    print("host model:")
    print("  send_cpu      %8.2f us/datagram" % (host.send_cpu * 1e6))
    print("  recv_cpu      %8.2f us/datagram" % (host.recv_cpu * 1e6))
    print("  byz_check_cpu %8.2f us/datagram" % (host.byz_check_cpu * 1e6))
    print("crypto: %s" % CryptoCostModel().describe())
    print("topology: %s" % BladeCenterTopology(args.nodes).describe())
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Practical Byzantine Group Communication (reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help=cmd_demo.__doc__)
    demo.add_argument("--nodes", type=int, default=8)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--crypto", choices=("none", "sym", "pub"),
                      default="sym")
    demo.add_argument("--total-order", action="store_true")
    demo.set_defaults(func=cmd_demo)

    attack = sub.add_parser("attack", help=cmd_attack.__doc__)
    attack.add_argument("scenario")
    attack.add_argument("--nodes", type=int, default=12)
    attack.add_argument("--seed", type=int, default=7)
    attack.set_defaults(func=cmd_attack)

    trace = sub.add_parser("trace", help=cmd_trace.__doc__)
    trace.add_argument("--nodes", type=int, default=4)
    trace.add_argument("--seed", type=int, default=11)
    trace.add_argument("--crypto", choices=("none", "sym", "pub"),
                       default="none")
    trace.add_argument("--json", action="store_true",
                       help="emit the artifact as JSON instead of text")
    trace.set_defaults(func=cmd_trace)

    chaos = sub.add_parser("chaos", help=cmd_chaos.__doc__)
    chaos.add_argument("--seeds", type=int, default=10)
    chaos.add_argument("--start", type=int, default=0)
    chaos.add_argument("--ops", type=int, default=12)
    chaos.add_argument("--nodes", type=int, default=6,
                       help="cluster size for --grid sweeps")
    chaos.add_argument("--preset", choices=sorted(CHAOS_PRESETS),
                       default="byz")
    chaos.add_argument("--grid", action="store_true",
                       help="sweep the drop/corrupt grid instead of "
                            "random plans")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip ddmin minimization of failing plans")
    chaos.add_argument("--out", default=None,
                       help="directory for counterexample + summary JSON")
    chaos.add_argument("--replay", default=None, metavar="PLAN_JSON",
                       help="replay one saved plan instead of sweeping")
    chaos.set_defaults(func=cmd_chaos)

    soak = sub.add_parser("soak", help=cmd_soak.__doc__)
    soak.add_argument("--seed", type=int, default=1)
    soak.add_argument("--nodes", type=int, default=6)
    soak.add_argument("--events", type=int, default=1_000_000,
                      help="target simulated events")
    soak.add_argument("--recovery-bound", type=float, default=5.0,
                      help="max sim-seconds to re-stabilize after each "
                           "churn cycle")
    soak.add_argument("--benign", action="store_true",
                      help="no Byzantine episodes in the mix")
    soak.add_argument("--out", default=None, help="directory for report JSON")
    soak.set_defaults(func=cmd_soak)

    net = sub.add_parser("net", help=cmd_net.__doc__)
    net.add_argument("--nodes", type=int, default=5)
    net.add_argument("--seed", type=int, default=1)
    net.add_argument("--casts", type=int, default=3,
                     help="multicasts per node once the view forms")
    net.add_argument("--crypto", choices=("none", "sym", "pub"),
                     default="sym")
    net.add_argument("--benign", action="store_true",
                     help="run the non-Byzantine stack")
    net.add_argument("--no-leave", action="store_true",
                     help="skip the polite-leave phase")
    net.add_argument("--deadline", type=float, default=8.0,
                     help="per-node give-up horizon, wall seconds")
    net.add_argument("--obs", action="store_true",
                     help="collect per-node observability exports")
    net.add_argument("--keep", action="store_true",
                     help="always keep the artifacts directory")
    net.add_argument("--json", action="store_true")
    net.set_defaults(func=cmd_net)

    shards = sub.add_parser("shards", help=cmd_shards.__doc__)
    shards.add_argument("--shards", type=int, default=4)
    shards.add_argument("--nodes-per-shard", type=int, default=5)
    shards.add_argument("--seed", type=int, default=1)
    shards.add_argument("--crypto", choices=("none", "sym", "pub"),
                        default="sym")
    shards.set_defaults(func=cmd_shards)

    reshard = sub.add_parser("reshard", help=cmd_reshard.__doc__)
    reshard.add_argument("--shards", type=int, default=4,
                         help="groups built; the ring starts one short "
                              "and the campaign's reshard grows onto it")
    reshard.add_argument("--nodes-per-shard", type=int, default=4)
    reshard.add_argument("--seeds", type=int, default=3)
    reshard.add_argument("--start", type=int, default=0,
                         help="first seed of the range")
    reshard.add_argument("--keys", type=int, default=24)
    reshard.add_argument("--rounds", type=int, default=4,
                         help="exactly-once increment rounds per seed")
    reshard.add_argument("--ops", type=int, default=14,
                         help="fault-plan ops per seed (sim campaign)")
    reshard.add_argument("--net", action="store_true",
                         help="one migration over real localhost UDP "
                              "instead of the sim chaos campaign")
    reshard.add_argument("--deadline", type=float, default=30.0,
                         help="--net: wall-clock budget, seconds")
    reshard.add_argument("--out", default=None,
                         help="directory for the report JSON")
    reshard.set_defaults(func=cmd_reshard)

    calib = sub.add_parser("calibration", help=cmd_calibration.__doc__)
    calib.add_argument("--nodes", type=int, default=48)
    calib.set_defaults(func=cmd_calibration)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
