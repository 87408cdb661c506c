import pytest

from layermig.netsim import LinkSpec, effective_rate, transfer_time

MBPS = 1_000_000


def test_latency_only_round_trip():
    link = LinkSpec(bandwidth_bps=100 * MBPS, latency_s=0.025)
    assert transfer_time(link, 1) == 0.025


def test_processing_cap_makes_bandwidth_irrelevant():
    capped_100 = LinkSpec(bandwidth_bps=100 * MBPS, processing_cap_bps=50 * MBPS)
    capped_1000 = LinkSpec(bandwidth_bps=1000 * MBPS, processing_cap_bps=50 * MBPS)
    assert effective_rate(capped_100) == effective_rate(capped_1000)


def test_effective_rate():
    assert effective_rate(LinkSpec(bandwidth_bps=100 * MBPS, processing_cap_bps=50 * MBPS)) == 50 * MBPS
    assert effective_rate(LinkSpec(bandwidth_bps=1 * MBPS, processing_cap_bps=50 * MBPS)) == 1 * MBPS


def test_jitter_is_deterministic_and_bounded():
    link = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.02, jitter_s=0.005, seed=9)
    base = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.02)
    samples = set()
    for call in range(200):
        t = transfer_time(link, 1, call_index=call)
        assert t == transfer_time(link, 1, call_index=call)
        assert abs(t - transfer_time(base, 1)) <= 0.005 + 1e-12
        samples.add(round(t, 9))
    assert len(samples) > 100  # jitter actually varies across calls


def test_jitter_clamps_at_zero():
    link = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.0, jitter_s=0.010, seed=1)
    for call in range(50):
        assert transfer_time(link, 3, call_index=call) >= 0.0


def test_invalid_links_rejected():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=1, processing_cap_bps=0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=1, latency_s=-0.1)


@pytest.mark.parametrize("field", ["bandwidth_bps", "latency_s", "jitter_s", "processing_cap_bps"])
def test_nan_link_fields_rejected(field):
    with pytest.raises(ValueError):
        LinkSpec(**{"bandwidth_bps": 1.0, field: float("nan")})
