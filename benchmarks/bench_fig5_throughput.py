"""Figure 5: throughput of 16-byte messages vs group size.

Paper lines: JazzEns, ByzEns+NoCrypto, ByzEns+SymCrypto,
ByzEns+NoCrypto+Total, ByzEns+PubCrypto(512 bits).

Expected shape (paper, section 4): 40-50k msgs/s without crypto;
NoCrypto at ~85-90% of JazzEns; SymCrypto about half; PubCrypto a few
dozen msgs/s ("hardly visible, as it is so close to 0"); Total lower
than plain with an extra drop above 24 nodes (shared NICs).

The pytest wrappers measure a QUICK_SIZES subset; ``run_all.py`` sweeps
FULL_SIZES and regenerates the EXPERIMENTS.md table.
"""

import pytest

from benchmarks.harness import FIG5_CONFIGS, QUICK_SIZES, ring_throughput


@pytest.mark.parametrize("n", QUICK_SIZES)
@pytest.mark.parametrize("label", sorted(FIG5_CONFIGS))
def test_fig5_throughput(benchmark, label, n):
    config = FIG5_CONFIGS[label]()
    if config.crypto == "pub" and n > 8:
        pytest.skip("PubCrypto line is flat near zero; one size suffices")

    result = benchmark.pedantic(
        lambda: ring_throughput(config, n), rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["view_changes"] == 0, "spurious view change during bench"
    assert result["throughput"] > 0


def test_fig5_shape_nocrypto_within_paper_band():
    """ByzEns+NoCrypto ~= 85-90% of JazzEns (paper section 4)."""
    base = ring_throughput(FIG5_CONFIGS["JazzEns"](), 8)
    hardened = ring_throughput(FIG5_CONFIGS["ByzEns+NoCrypto"](), 8)
    ratio = hardened["throughput"] / base["throughput"]
    assert 0.80 <= ratio <= 0.95, ratio


def test_fig5_shape_symcrypto_about_half():
    """SymCrypto reduces throughput by about half (paper section 4)."""
    base = ring_throughput(FIG5_CONFIGS["ByzEns+NoCrypto"](), 8)
    sym = ring_throughput(FIG5_CONFIGS["ByzEns+SymCrypto"](), 8)
    ratio = sym["throughput"] / base["throughput"]
    assert 0.35 <= ratio <= 0.65, ratio


def test_fig5_shape_pubcrypto_near_zero():
    """PubCrypto drops to 'almost useless'.  The paper reads a few dozen
    msgs/s; this stack reads 591, because under load a member RSA-signs
    one ack per 20 ms heartbeat tick and nothing more (DESIGN section 6,
    deviation 10: with an ack every 12 ms and a heartbeat every 20 ms, as
    in the paper's stack, it read 24; with the ack every 12 ms alone,
    293).  That is a cost to the reproduction's fidelity, pinned at its
    measured value so that it cannot grow unnoticed."""
    pub = ring_throughput(FIG5_CONFIGS["ByzEns+PubCrypto"](), 8)
    assert pub["throughput"] < 700, pub["throughput"]


def test_fig5_shape_total_below_plain():
    plain = ring_throughput(FIG5_CONFIGS["ByzEns+NoCrypto"](), 8)
    total = ring_throughput(FIG5_CONFIGS["ByzEns+NoCrypto+Total"](), 8)
    assert total["throughput"] < plain["throughput"]
