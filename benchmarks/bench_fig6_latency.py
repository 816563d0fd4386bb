"""Figure 6: average latency of 1-byte messages vs group size.

Paper lines: JazzEns, ByzEns+NoCrypto, ByzEns+SymCrypto,
ByzEns+NoCrypto+Total (PubCrypto dropped -- orders of magnitude higher).

Expected shape: single-digit milliseconds growing mildly with n;
NoCrypto slightly above benign; SymCrypto adds per-receiver MAC cost
(grows with n); Total adds a consensus round on top.

``run_all.py`` sweeps the full size range into EXPERIMENTS.md.
Open-loop total-order latency under load, window 1 vs window 2,
is measured by the ledger's ``order_classic_n8`` / ``order_fast_n8``
workloads (``benchmarks/ledger``), not here.
"""

import pytest

from benchmarks.harness import FIG6_CONFIGS, QUICK_SIZES, ring_latency


@pytest.mark.parametrize("n", QUICK_SIZES)
@pytest.mark.parametrize("label", sorted(FIG6_CONFIGS))
def test_fig6_latency(benchmark, label, n):
    config = FIG6_CONFIGS[label]()
    result = benchmark.pedantic(
        lambda: ring_latency(config, n), rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["rounds"] > 3
    assert 0 < result["latency_ms"] < 50


def test_fig6_shape_millisecond_scale_at_8():
    """The paper's latencies at n=8 sit near 1 ms."""
    base = ring_latency(FIG6_CONFIGS["JazzEns"](), 8)
    assert 0.05 < base["latency_ms"] < 5.0


def test_fig6_shape_ordering_ladder():
    """benign <= hardened <= sym-crypto <= total ordering."""
    lat = {label: ring_latency(build(), 16)["latency_ms"]
           for label, build in FIG6_CONFIGS.items()}
    assert lat["JazzEns"] <= lat["ByzEns+NoCrypto"] * 1.15
    assert lat["ByzEns+NoCrypto"] < lat["ByzEns+SymCrypto"] * 1.15
    assert lat["ByzEns+SymCrypto"] < lat["ByzEns+NoCrypto+Total"] * 1.5


def test_fig6_shape_latency_grows_with_group_size():
    small = ring_latency(FIG6_CONFIGS["ByzEns+SymCrypto"](), 8)
    large = ring_latency(FIG6_CONFIGS["ByzEns+SymCrypto"](), 40)
    assert large["latency_ms"] > small["latency_ms"]
