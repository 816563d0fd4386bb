"""Adaptive adversary tournament: evolve fault plans against the stack.

The random chaos campaign (PR 3) samples the fault-plan space blindly;
this module *searches* it.  A small genetic loop keeps a population of
:class:`~repro.chaos.plan.FaultPlan` genomes, scores each by how badly
its run hurts the stack -- checker violations, liveness stalls (event
budget burned without going quiet), slow or failed recovery -- and breeds
the nastiest plans via one-point crossover plus op-level mutations
(insert/delete/swap ops, perturb scalars, retarget nodes, inject mid-run
Byzantine genes from :data:`~repro.chaos.plan.RUNTIME_BEHAVIORS`).

Everything is deterministic per ``seed``: plan evaluation replays
deterministically (the chaos-plane contract) and all search randomness
flows from one ``random.Random(seed)``.  A winning genome is ddmin-shrunk
(ops, then scalar constants) to a 1-minimal replayable counterexample.
"""

from __future__ import annotations

import random
import time

from repro.chaos.engine import run_plan
from repro.chaos.plan import (ADVERSARY_OPS, FaultPlan, _draw_op, _View,
                              random_plan)
from repro.chaos.shrink import shrink_plan

#: seed salt: search randomness never mirrors plan/cluster RNG streams
_SEARCH_SEED_SALT = 0x70A11CE5

#: report format version emitted by :func:`run_tournament`.  Schema 2
#: adds the ``evaluated`` outcome cache and ``resume_key`` that make a
#: report resumable: feeding it back via ``resume=`` replays the search
#: trajectory through cached scores and continues where it stopped.
TOURNAMENT_SCHEMA = 2

#: outcome fields persisted per evaluation for deterministic resume --
#: everything the search trajectory reads (score drives selection,
#: ``failed`` drives stop_on_failure and the history's failure counts)
_RECORD_FIELDS = ("score", "failed", "stalled", "recovery_time", "events",
                  "violations", "violation_kinds")


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def evaluate_plan(plan, event_budget=150_000, settle=3.0):
    """Run one genome; returns its outcome record (higher score = worse).

    Scoring: each distinct violation *kind* dominates (a safety break is
    the jackpot), a burned event budget (livelock) and a never-recovering
    cluster score next, and recovery time is the tiebreaker that gives
    the search a gradient before it finds a real failure.
    """
    violations, engine = run_plan(plan, settle=settle,
                                  event_budget=event_budget,
                                  measure_recovery=True)
    kinds = []
    for violation in violations:
        kind = str(violation).split(":", 1)[0].strip()
        if kind not in kinds:
            kinds.append(kind)
    score = 100.0 * len(kinds) + float(min(len(violations), 20))
    if engine.stalled:
        score += 100.0
    if engine.recovery_time is None:
        score += 50.0
    else:
        score += min(engine.recovery_time, 5.0)
    return {
        "plan": plan,
        "violations": violations,
        "violation_kinds": kinds,
        "stalled": engine.stalled,
        "recovery_time": engine.recovery_time,
        "events": engine.group.sim.events_processed,
        "failed": bool(violations) or engine.stalled,
        "score": score,
    }


# ----------------------------------------------------------------------
# genetic operators
# ----------------------------------------------------------------------
class _BlindView(_View):
    """A gene's view: it may land anywhere in any script, so every node
    is live, any node restartable, and no crashed node sides a
    partition."""

    def restartable(self):
        return list(range(self.n))


def _random_op(rng, n, allow):
    """One fresh op gene, drawn from :func:`random_plan`'s op table; a
    short run when ``n`` is too small for the op (below four nodes: crash,
    leave, partition, byzantine_at).  Tolerant semantics absorb misfires."""
    return _draw_op(rng, rng.choice(allow), _BlindView(n)) or ["run", 0.1]


def _perturb_scalar(rng, op):
    """Scale one numeric field of ``op`` up or down (never field 0/1)."""
    out = list(op)
    numeric = [i for i in range(2, len(out))
               if isinstance(out[i], (int, float))
               and not isinstance(out[i], bool)]
    if op[0] == "run":
        numeric = [1]
    if not numeric:
        return out
    index = rng.choice(numeric)
    factor = rng.choice((0.5, 2.0))
    value = out[index]
    if isinstance(value, int):
        out[index] = max(1, int(value * factor))
    else:
        out[index] = round(min(max(value * factor, 0.01), 10.0), 4)
    return out


def _retarget(rng, op, n):
    """Point an op's node argument at a different node."""
    out = list(op)
    if len(out) >= 2 and isinstance(out[1], int) and op[0] != "run":
        out[1] = rng.randrange(n)
    return out


def mutate_ops(rng, ops, n, allow):
    """One mutation step over an op script; always returns a new list."""
    ops = [list(op) for op in ops]
    choices = ["insert"]
    if ops:
        choices += ["delete", "swap", "perturb", "retarget"]
    move = rng.choice(choices)
    if move == "insert":
        index = rng.randint(0, len(ops))
        ops.insert(index, _random_op(rng, n, allow))
    elif move == "delete":
        ops.pop(rng.randrange(len(ops)))
    elif move == "swap" and len(ops) >= 2:
        i = rng.randrange(len(ops))
        j = rng.randrange(len(ops))
        ops[i], ops[j] = ops[j], ops[i]
    elif move == "perturb":
        index = rng.randrange(len(ops))
        ops[index] = _perturb_scalar(rng, ops[index])
    elif move == "retarget":
        index = rng.randrange(len(ops))
        ops[index] = _retarget(rng, ops[index], n)
    return ops


def crossover_ops(rng, a, b):
    """One-point crossover of two op scripts."""
    if not a or not b:
        return [list(op) for op in (a or b)]
    cut_a = rng.randint(0, len(a))
    cut_b = rng.randint(0, len(b))
    return [list(op) for op in (a[:cut_a] + b[cut_b:])]


# ----------------------------------------------------------------------
# the tournament loop
# ----------------------------------------------------------------------
def run_tournament(seed, n=6, population=8, generations=6, plan_ops=10,
                   allow=ADVERSARY_OPS, byzantine_fraction=0.4,
                   config=None, net=None, check=None, settle=3.0,
                   event_budget=150_000, stop_on_failure=True, shrink=True,
                   shrink_runs=192, log=None, minutes=None, resume=None,
                   clock=None):
    """Evolve fault plans until one fails the checker or budget runs out.

    Returns the tournament report dict; ``report["found"]`` says whether
    a failing plan was discovered and ``report["minimized"]`` (when
    shrinking is on) holds the 1-minimal replayable counterexample, re-
    verified from scratch.  Deterministic per ``seed`` and parameters.

    ``minutes`` switches the budget from a generation count to wall
    clock: generations keep running until the deadline, which is only
    allowed to cut the search *between* plan evaluations -- the search
    trajectory itself (which plans are bred, in which order) never
    depends on timing.  That is what makes ``resume`` sound: feeding a
    prior schema-2 report back in replays the identical trajectory
    through its ``evaluated`` score cache at effectively zero cost, then
    keeps evolving from exactly where the previous run stopped.
    ``clock`` (a ``time.monotonic`` substitute) exists for tests.
    """
    log = log or (lambda line: None)
    clock = clock or time.monotonic
    started_at = clock()
    deadline = None if minutes is None else started_at + minutes * 60.0
    rng = random.Random(seed ^ _SEARCH_SEED_SALT)
    resume_key = {"seed": seed, "n": n, "population": population,
                  "plan_ops": plan_ops, "allow": list(allow),
                  "byzantine_fraction": byzantine_fraction,
                  "event_budget": event_budget, "settle": settle}
    cache = {}
    if resume is not None:
        if (resume.get("schema") == TOURNAMENT_SCHEMA
                and resume.get("resume_key") == resume_key):
            cache = {record["plan_hash"]: record
                     for record in resume.get("evaluated", [])}
            log("resuming from report with %d cached evaluations"
                % len(cache))
        else:
            log("resume report ignored: schema or parameters differ")
    scored = []
    evaluated = []
    evaluations = 0
    cache_hits = 0
    timed_out = False

    def out_of_time(plan):
        """May we still afford this plan?  Cache hits are always free;
        the very first outcome is always taken so the report is never
        empty."""
        if deadline is None or plan.digest() in cache:
            return False
        if not scored:
            return False
        return clock() >= deadline

    def consider(plan):
        nonlocal evaluations, cache_hits
        digest = plan.digest()
        record = cache.get(digest)
        if record is not None:
            outcome = {field: record[field] for field in _RECORD_FIELDS}
            outcome["plan"] = plan
            cache_hits += 1
        else:
            outcome = evaluate_plan(plan, event_budget=event_budget,
                                    settle=settle)
            evaluations += 1
        evaluated.append(dict({"plan_hash": digest},
                              **{field: outcome[field]
                                 for field in _RECORD_FIELDS}))
        scored.append(outcome)
        return outcome

    for index in range(population):
        plan = random_plan(seed * 1009 + index, n=n, ops=plan_ops,
                           allow=allow,
                           byzantine_fraction=byzantine_fraction,
                           config=config, net=net, check=check)
        if out_of_time(plan):
            timed_out = True
            break
        consider(plan)

    history = []
    generations_run = 0
    generation = -1
    while not timed_out:
        generation += 1
        if minutes is None and generation >= generations:
            break
        if deadline is not None and clock() >= deadline:
            timed_out = True
            break
        generations_run = generation + 1
        # deterministic rank: score desc, then arrival order
        order = sorted(range(len(scored)),
                       key=lambda i: (-scored[i]["score"], i))
        scored = [scored[i] for i in order]
        best = scored[0]
        # count *considered* plans, not just fresh evaluations: a resumed
        # run replays its prefix from cache and must reproduce the same
        # history records as an uninterrupted one
        history.append({"generation": generation,
                        "best_score": best["score"],
                        "best_ops": len(best["plan"]),
                        "failures": sum(1 for o in scored if o["failed"]),
                        "evaluations": len(evaluated)})
        log("gen %d: best score %.1f (%d ops), %d/%d failing"
            % (generation, best["score"], len(best["plan"]),
               history[-1]["failures"], len(scored)))
        if stop_on_failure and best["failed"]:
            break
        survivors = scored[:max(2, population // 2)]
        scored = list(survivors)
        if minutes is not None and len(scored) >= population:
            # nothing to breed (population <= survivor count): the loop
            # is a fixed point -- no rng draws, no new plans -- so a
            # wall-clock budget would spin until the deadline doing
            # nothing.  Structural, so a resumed run stops here too.
            log("population saturated (nothing to breed); stopping early")
            break
        while len(scored) < population:
            parent_a = rng.choice(survivors)["plan"]
            parent_b = rng.choice(survivors)["plan"]
            ops = crossover_ops(rng, parent_a.ops, parent_b.ops)
            for _ in range(rng.randint(1, 3)):
                ops = mutate_ops(rng, ops, n, allow)
            child = FaultPlan(seed=parent_a.seed, n=n, ops=ops,
                              config=parent_a.config, net=parent_a.net,
                              check=parent_a.check)
            if out_of_time(child):
                timed_out = True
                break
            consider(child)
        if timed_out:
            break

    order = sorted(range(len(scored)), key=lambda i: (-scored[i]["score"], i))
    best = scored[order[0]]
    report = {
        "schema": TOURNAMENT_SCHEMA, "kind": "tournament",
        "seed": seed,
        "params": {"n": n, "population": population,
                   "generations": generations, "plan_ops": plan_ops,
                   "allow": list(allow), "event_budget": event_budget,
                   "settle": settle,
                   "byzantine_fraction": byzantine_fraction},
        "resume_key": resume_key,
        "evaluations": evaluations,
        "cache_hits": cache_hits,
        "evaluated": evaluated,
        "timed_out": timed_out,
        "wall_seconds": clock() - started_at,
        "generations_run": generations_run,
        "history": history,
        "found": best["failed"],
        "best": {
            "plan": best["plan"].to_dict(),
            "plan_hash": best["plan"].digest(),
            "score": best["score"],
            "violations": best["violations"],
            "stalled": best["stalled"],
            "recovery_time": best["recovery_time"],
            "events_processed": best["events"],
        },
        "minimized": None,
        "minimized_violations": [],
    }
    if best["failed"] and shrink:
        # the predicate replays candidates EXACTLY the way evaluation ran
        # the winner (measured-recovery settle): a different settle path
        # is a different deterministic execution, and the failure may not
        # reproduce under it
        if best["violations"]:
            def fails(candidate):
                violations, _engine = run_plan(candidate, settle=settle,
                                               event_budget=event_budget,
                                               measure_recovery=True)
                return bool(violations)
        else:
            def fails(candidate):
                _violations, engine = run_plan(candidate, settle=settle,
                                               event_budget=event_budget,
                                               measure_recovery=True)
                return engine.stalled
        small = shrink_plan(best["plan"], fails=fails, max_runs=shrink_runs)
        # independently re-verify the artifact we publish
        small_violations, small_engine = run_plan(
            small, settle=settle, event_budget=event_budget,
            measure_recovery=True)
        if small_violations or small_engine.stalled:
            report["minimized"] = small.to_dict()
            report["minimized_violations"] = small_violations
            log("shrunk winner %d -> %d ops"
                % (len(best["plan"]), len(small)))
    return report
