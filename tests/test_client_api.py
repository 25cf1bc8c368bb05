"""The unified client surface: ``connect()``, the ABC, kwarg spellings.

``ServiceClient`` and ``ClusterClient`` must be drop-in
interchangeable behind :class:`repro.CompressionClient` — the same
helper drives a byte round-trip through both without knowing which
topology it holds.  The canonical kwarg spellings (``deadline=``,
``retry=``) must work on every client; the old ones (``timeout=``,
``retries=``) are a hard ``TypeError``.

Also audits every public module's ``__all__``: each exported name must
resolve, so ``from repro.x import *`` never breaks.
"""

import importlib
import pkgutil
import warnings

import numpy as np
import pytest

import repro
from repro import CompressionClient, connect
from repro.cluster.client import ClusterClient
from repro.service import ServiceClient, serve_background


@pytest.fixture(scope="module")
def handle():
    server = serve_background()
    yield server
    server.stop()


@pytest.fixture()
def array():
    return np.linspace(-1.0, 1.0, 4096).astype(np.float64)


def round_trip(client: CompressionClient, array) -> bool:
    """Topology-blind workload — works on any CompressionClient."""
    blob = client.compress_array(array, "gorilla")
    restored = client.decompress_array(blob)
    explain = client.select_explain(array)
    ping = client.ping()  # float (service) or per-node dict (cluster)
    alive = all(ping.values()) if isinstance(ping, dict) else ping >= 0.0
    return (
        np.array_equal(restored, array)
        and alive
        and isinstance(client.stats(), dict)
        and isinstance(explain, dict)
    )


class TestConnect:
    def test_single_address_dials_service_client(self, handle, array):
        with connect(f"{handle.host}:{handle.port}") as client:
            assert isinstance(client, ServiceClient)
            assert isinstance(client, CompressionClient)
            assert round_trip(client, array)

    def test_host_port_tuple(self, handle, array):
        with connect((handle.host, handle.port)) as client:
            assert isinstance(client, ServiceClient)
            assert round_trip(client, array)

    def test_cluster_seeds_dial_cluster_client(self, handle, array):
        seeds = [f"{handle.host}:{handle.port}"]
        with connect(cluster_seeds=seeds) as client:
            assert isinstance(client, ClusterClient)
            assert isinstance(client, CompressionClient)
            assert round_trip(client, array)

    def test_multi_address_target_means_cluster(self, handle):
        addr = f"{handle.host}:{handle.port}"
        with connect([addr, addr]) as client:
            assert isinstance(client, ClusterClient)

    def test_canonical_kwargs_forwarded(self, handle):
        with connect(
            f"{handle.host}:{handle.port}", deadline=3.5, retry=1
        ) as client:
            assert client.deadline == 3.5

    def test_bad_usage_typed(self):
        with pytest.raises(TypeError):
            connect()
        with pytest.raises(TypeError):
            connect("a:1", cluster_seeds=["b:2"])
        with pytest.raises(ValueError):
            connect("no-port-here")


class TestDeprecatedKwargs:
    """The pre-canonical spellings ``timeout=``/``retries=`` are gone."""

    def test_removed_spellings_are_rejected(self, handle):
        address = (handle.host, handle.port)
        with pytest.raises(TypeError, match="timeout"):
            ServiceClient(*address, timeout=2.0)
        with pytest.raises(TypeError, match="retries"):
            ServiceClient(*address, retries=2)
        with pytest.raises(TypeError, match="timeout"):
            ClusterClient([address], timeout=4.0)
        with ServiceClient(*address, deadline=2.0) as client:
            assert not hasattr(client, "timeout")

    def test_both_spellings_is_an_error(self, handle):
        with pytest.raises(TypeError):
            ServiceClient(handle.host, handle.port, deadline=1.0, timeout=2.0)

    def test_canonical_spelling_does_not_warn(self, handle):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with ServiceClient(
                handle.host, handle.port, deadline=2.0, retry=1
            ) as client:
                assert client.deadline == 2.0


class TestPublicSurface:
    def test_top_level_all(self):
        for name in ("compress_array", "decompress_array", "open_stream",
                     "connect", "CompressionClient"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_every_all_name_resolves(self):
        modules = ["repro"]
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            modules.append(info.name)
        checked = 0
        for name in modules:
            module = importlib.import_module(name)
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            assert len(set(exported)) == len(exported), (
                f"{name}.__all__ has duplicates"
            )
            for symbol in exported:
                assert hasattr(module, symbol), (
                    f"{name}.__all__ exports missing name {symbol!r}"
                )
            checked += 1
        assert checked >= 20  # the audit actually covered the tree
