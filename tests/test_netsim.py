import pytest

from layermig.netsim import LinkSpec, effective_rate, transfer_time

MBPS = 1_000_000


def test_plain_transfer_arithmetic():
    # 100 MB over an uncapped 100 Mbps link with no latency.
    link = LinkSpec(bandwidth_bps=100 * MBPS)
    assert transfer_time(link, 100_000_000, 0) == 8.0


def test_latency_only_round_trip():
    link = LinkSpec(bandwidth_bps=100 * MBPS, latency_s=0.025)
    assert transfer_time(link, 0, 1) == 0.025


def test_processing_cap_makes_bandwidth_irrelevant():
    capped_100 = LinkSpec(bandwidth_bps=100 * MBPS, processing_cap_bps=50 * MBPS)
    capped_1000 = LinkSpec(bandwidth_bps=1000 * MBPS, processing_cap_bps=50 * MBPS)
    wire = 37_000_000
    assert transfer_time(capped_100, wire) == transfer_time(capped_1000, wire)


def test_effective_rate():
    assert effective_rate(LinkSpec(bandwidth_bps=100 * MBPS, processing_cap_bps=50 * MBPS)) == 50 * MBPS
    assert effective_rate(LinkSpec(bandwidth_bps=1 * MBPS, processing_cap_bps=50 * MBPS)) == 1 * MBPS


def test_bandwidth_sweep_saturates():
    # Monotone non-increasing transfer time, flat once past the cap.
    times = []
    for mbps in (1, 2, 5, 10, 20, 50, 100, 1000):
        link = LinkSpec(bandwidth_bps=mbps * MBPS, processing_cap_bps=50 * MBPS)
        times.append(transfer_time(link, 10_000_000))
    assert all(a >= b for a, b in zip(times, times[1:]))
    assert times[-3] == times[-2] == times[-1]


def test_monotone_in_wire_bytes():
    link = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.01, jitter_s=0.005, seed=3)
    previous = -1.0
    for wire in (0, 1, 10_000, 1_000_000):
        t = transfer_time(link, wire, 2, call_index=5)
        assert t >= previous
        previous = t


def test_jitter_is_deterministic_and_bounded():
    link = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.02, jitter_s=0.005, seed=9)
    base = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.02)
    samples = set()
    for call in range(200):
        t = transfer_time(link, 0, 1, call_index=call)
        assert t == transfer_time(link, 0, 1, call_index=call)
        assert abs(t - transfer_time(base, 0, 1)) <= 0.005 + 1e-12
        samples.add(round(t, 9))
    assert len(samples) > 100  # jitter actually varies across calls


def test_jitter_clamps_at_zero():
    link = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.0, jitter_s=0.010, seed=1)
    for call in range(50):
        assert transfer_time(link, 0, 3, call_index=call) >= 0.0


def test_additivity_overhead_is_the_round_trips():
    link = LinkSpec(bandwidth_bps=10 * MBPS, latency_s=0.025)
    split = transfer_time(link, 1000, 2) + transfer_time(link, 2000, 2)
    merged = transfer_time(link, 3000, 2)
    assert split == pytest.approx(merged + 2 * 0.025)


def test_invalid_links_rejected():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=1, processing_cap_bps=0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=1, latency_s=-0.1)
    with pytest.raises(ValueError):
        transfer_time(LinkSpec(bandwidth_bps=1), -1)


@pytest.mark.parametrize("field", ["bandwidth_bps", "latency_s", "jitter_s", "processing_cap_bps"])
def test_nan_link_fields_rejected(field):
    with pytest.raises(ValueError):
        LinkSpec(**{"bandwidth_bps": 1.0, field: float("nan")})
