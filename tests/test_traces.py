"""Tests for the synthetic cellular trace generator."""

import itertools
import pickle

import pytest

from repro.netsim import link, path
from repro.netsim.link import validate_delivery_trace
from repro.netsim.packet import DATA_PACKET_BYTES
from repro.scenarios import all_scenarios, get_scenario
from repro.traces import cellular
from repro.traces.cellular import (
    TRACE_KINDS,
    CellularTraceConfig,
    TraceSpec,
    att_lte_trace,
    generate_cellular_trace,
    generate_rate_series,
    rate_series_to_delivery_times,
    verizon_lte_trace,
)


def test_rate_series_respects_bounds():
    config = CellularTraceConfig()
    series = generate_rate_series(60.0, config, seed=0)
    assert len(series) == 120  # 0.5 s steps over 60 s
    for _, rate in series:
        assert rate <= config.max_rate_bps
        assert rate >= min(config.min_rate_bps, config.outage_rate_bps)


def test_delivery_times_are_sorted_and_within_duration():
    trace = generate_cellular_trace(30.0, seed=1)
    assert trace == sorted(trace)
    assert trace[0] >= 0.0
    assert trace[-1] <= 30.0
    assert len(trace) > 100


def test_mean_rate_close_to_configured_mean():
    config = CellularTraceConfig(mean_rate_bps=10e6, volatility=0.2, outage_probability=0.0)
    trace = generate_cellular_trace(120.0, config, seed=3)
    delivered_bits = len(trace) * DATA_PACKET_BYTES * 8
    mean_rate = delivered_bits / 120.0
    # The log-normal modulation biases the realised mean; just require the
    # right order of magnitude.
    assert 3e6 < mean_rate < 30e6


def test_reproducible_for_same_seed():
    assert verizon_lte_trace(20.0, seed=5) == verizon_lte_trace(20.0, seed=5)
    assert verizon_lte_trace(20.0, seed=5) != verizon_lte_trace(20.0, seed=6)


def test_att_trace_is_slower_than_verizon_on_average():
    verizon = verizon_lte_trace(60.0, seed=2)
    att = att_lte_trace(60.0, seed=2)
    assert len(att) < len(verizon)


def test_rate_series_to_delivery_times_simple_case():
    # Constant 12 Mbps for 1 s -> one 1500-byte packet per millisecond.
    times = rate_series_to_delivery_times([(0.0, 12e6)], 1.0)
    # Floating-point accumulation may lose the final boundary opportunity.
    assert len(times) in (999, 1000)
    assert times[0] == pytest.approx(0.001)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        generate_rate_series(0.0, CellularTraceConfig())
    with pytest.raises(ValueError):
        rate_series_to_delivery_times([], 1.0)
    with pytest.raises(ValueError):
        CellularTraceConfig(mean_rate_bps=-1)
    with pytest.raises(ValueError):
        CellularTraceConfig(outage_probability=1.5)


@pytest.mark.parametrize("kind", sorted(TRACE_KINDS))
def test_every_trace_kind_yields_a_valid_delivery_trace(kind):
    # The check a TraceSpec hop skips at construction: non-empty and
    # non-decreasing, at the durations cells and harnesses use.
    for duration, seed in itertools.product((1.0, 3.0, 4.0, 30.0), range(8)):
        validate_delivery_trace(TraceSpec(kind, duration, seed))


def test_every_registered_trace_is_a_valid_delivery_trace():
    specs = [
        hop.delivery_trace for cell in all_scenarios() for hop in cell.network.forward
        if isinstance(hop.delivery_trace, TraceSpec)
    ]
    assert len(specs) == 5
    for spec in specs:
        validate_delivery_trace(spec)


def test_a_trace_with_no_instant_fails_on_first_use():
    spec = TraceSpec("verizon", 0.2, 57)  # an outage step covers all of it
    with pytest.raises(ValueError, match="no delivery instant"):
        len(spec)


def test_two_builds_of_a_trace_cell_generate_its_trace_once(monkeypatch):
    calls = []

    def counting(**kwargs):
        calls.append(kwargs)
        return verizon_lte_trace(**kwargs)

    monkeypatch.setitem(TRACE_KINDS, "verizon", counting)
    monkeypatch.setattr(cellular, "_TRACES", {})  # as in a fresh process
    cell = get_scenario("fig7-lte4")
    assert calls == []  # the cell names its trace; nothing generated it yet
    cell.build()
    cell.build()
    assert calls == [{"duration_seconds": 4.0, "seed": 1}]


def test_two_builds_of_a_trace_cell_share_its_list_and_never_check_it(monkeypatch):
    def refuse(trace):
        raise AssertionError("a TraceSpec hop re-checked its trace")

    monkeypatch.setattr(link, "validate_delivery_trace", refuse)
    monkeypatch.setattr(path, "validate_delivery_trace", refuse)
    cell = get_scenario("fig7-lte4")
    first, second = (cell.build().network.forward_links[0] for _ in range(2))
    assert isinstance(first, link.TraceDrivenLink)
    assert first.delivery_times is second.delivery_times
    assert type(first.delivery_times) is list


def test_a_trace_spec_pickles_as_its_fields_and_reads_as_its_trace():
    spec = TraceSpec("att", 4.0, 2)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and len(pickle.dumps(spec)) < 200
    assert list(clone) == att_lte_trace(duration_seconds=4.0, seed=2)
    assert clone[-1] == spec[-1] and len(clone) == len(spec)
