"""Scenario fuzzing across the configuration matrix.

The base fuzzer runs the plain hardened stack; these runs point the same
random fault schedules at the other configurations -- crypto, packing,
uniform delivery -- where layer interactions differ.
"""

from repro import StackConfig
from repro.tools.fuzzer import ScenarioFuzzer


def run_fuzz(seed, config, ops=8, allow=("cast_burst", "run", "crash",
                                         "leave")):
    fuzzer = ScenarioFuzzer(seed, config=config, ops=ops, allow=allow)
    fuzzer.execute()
    violations = fuzzer.check()
    fuzzer.group.stop()
    assert not violations, (violations[:5], fuzzer.script)


def test_fuzz_sym_crypto():
    for seed in (31, 32):
        run_fuzz(seed, StackConfig.byz(crypto="sym"))


def test_fuzz_packing():
    for seed in (33, 34):
        run_fuzz(seed, StackConfig.byz(packing=True))


def test_fuzz_uniform_delivery():
    # uniform delivery + churn: the flush's pending-agreement handling
    run_fuzz(37, StackConfig.byz(uniform_delivery=True), ops=6)


def test_fuzz_sym_total_order():
    run_fuzz(38, StackConfig.byz(crypto="sym", total_order=True), ops=6,
             allow=("cast_burst", "run", "crash"))


def test_fuzz_partitions_with_packing():
    fuzzer = ScenarioFuzzer(39, config=StackConfig.byz(packing=True), ops=8,
                            allow=("cast_burst", "run", "partition", "heal"))
    fuzzer.execute()
    violations = fuzzer.check()
    fuzzer.group.stop()
    assert not violations, (violations[:5], fuzzer.script)
