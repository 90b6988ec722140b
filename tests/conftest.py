"""Shared fixtures: the address plan, geo databases, and small workloads."""

from __future__ import annotations

import pytest

from repro.cli import command_spec
from repro.dpdk.rss import toeplitz_hash
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.geo.builder import GeoDbBuilder, SyntheticGeoPlan
from repro.net.addresses import ip_to_int
from repro.net.packet import build_tcp_packet
from repro.net.parser import PacketParser
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_SYN
from repro.scenarios.runner import Episode
from repro.scenarios.spec import apply_overrides
from repro.traffic.scenarios import AucklandLaScenario

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


@pytest.fixture(scope="session")
def plan():
    """The default world address plan."""
    return SyntheticGeoPlan()


@pytest.fixture(scope="session")
def geo_asn(plan):
    """A perfect-accuracy geo/AS database pair over the plan."""
    builder = GeoDbBuilder(plan=plan, country_accuracy=1.0)
    return builder.build()


@pytest.fixture(scope="session")
def small_workload():
    """A 5-second, flat-rate Auckland-LA workload (packets + generator)."""
    generator = AucklandLaScenario(
        duration_ns=5 * NS_PER_S, mean_flows_per_s=30, seed=11, diurnal=False
    ).build(keep_specs=True)
    packets = generator.packet_list()
    return generator, packets


@pytest.fixture()
def parser():
    return PacketParser(extract_timestamps=True)


def attach_live_map(stack, fps: int = 30) -> LiveMapView:
    """Hang a live map on *stack*'s frontend stage, as ``ruru demo`` does."""
    map_view = LiveMapView(channel=WebSocketChannel(name="live-map"), fps=fps)
    stack.graph.get("frontend").observers.append(map_view.observe)
    return map_view


def make_handshake(
    client_ip="10.0.0.1",
    server_ip="192.168.1.1",
    client_port=40000,
    server_port=443,
    syn_ns=1_000_000,
    external_ns=50 * NS_PER_MS,
    internal_ns=10 * NS_PER_MS,
    client_isn=1000,
    server_isn=9000,
):
    """Three raw handshake frames with controllable latencies."""
    c_ip, s_ip = ip_to_int(client_ip), ip_to_int(server_ip)
    syn = build_tcp_packet(
        c_ip, s_ip, client_port, server_port, TCP_FLAG_SYN,
        seq=client_isn, timestamp_ns=syn_ns,
    )
    synack = build_tcp_packet(
        s_ip, c_ip, server_port, client_port, TCP_FLAG_SYN | TCP_FLAG_ACK,
        seq=server_isn, ack=client_isn + 1, timestamp_ns=syn_ns + external_ns,
    )
    ack = build_tcp_packet(
        c_ip, s_ip, client_port, server_port, TCP_FLAG_ACK,
        seq=client_isn + 1, ack=server_isn + 1,
        timestamp_ns=syn_ns + external_ns + internal_ns,
    )
    return [syn, synack, ack]


def toeplitz_of_tuple(key, src, dst, sport, dport, is_ipv6):
    """The bit-serial RSS oracle over one 4-tuple."""
    width = 16 if is_ipv6 else 4
    return toeplitz_hash(
        key,
        src.to_bytes(width, "big") + dst.to_bytes(width, "big")
        + sport.to_bytes(2, "big") + dport.to_bytes(2, "big"),
    )


def cli_spec(*argv, overrides=None):
    """The spec the command line ``ruru <argv…>`` runs, with dotted-path
    *overrides* on top (for what no flag sets)."""
    return apply_overrides(command_spec([str(arg) for arg in argv]), overrides or {})


def cli_stack(*argv, crash_schedule=None, overrides=None):
    """The stack ``ruru <argv…>`` runs, built but not yet fed."""
    spec = cli_spec(*argv, overrides=overrides)
    return Episode(spec, crash_schedule=crash_schedule).stack
