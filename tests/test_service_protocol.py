"""Wire protocol and socket round trips of the sweep-job service.

The centrepiece is the end-to-end smoke the CI service step runs: a
real server on a real unix socket, a five-tone job submitted over the
wire, tone events streamed back in plan order, and the final report
byte-identical to the one-shot monitor run — queueing and streaming
change *when* results arrive, never *what* they are.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import shutil
import socket as socket_module
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SweepPlan, TransferFunctionMonitor
from repro.errors import ConfigurationError, ServiceError
from repro.presets import (
    paper_bist_config,
    paper_pll,
    paper_stimulus,
    paper_sweep,
)
from repro.reporting import device_report
from repro.service import (
    ServiceClient,
    SweepJobRequest,
    SweepJobServer,
    SweepJobService,
    SweepJobSpec,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    parse_spec,
    parse_tcp_endpoint,
    resolve_spec,
)

SMOKE_POINTS = 5


class TestLineCodec:
    def test_encode_is_deterministic(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b == b'{"a": 2, "b": 1}\n'

    def test_decode_round_trip(self):
        payload = {"op": "submit", "spec": {"points": 5}}
        assert decode_line(encode_line(payload)) == payload

    def test_decode_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            decode_line(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            decode_line(b"[1, 2, 3]\n")

    @pytest.mark.parametrize("line", [
        b"[" * 100000,            # exhausts the decoder's recursion
        b"1" * 5000,              # past the integer digit limit
        b'{"a": ' + b"1" * 5000 + b"}",
        b"\xff\xfe{}",            # not UTF-8
    ], ids=["deep-nesting", "long-integer", "long-integer-member",
            "not-utf8"])
    def test_decode_hostile_lines_are_configuration_errors(self, line):
        with pytest.raises(ConfigurationError, match="malformed"):
            decode_line(line)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=256),
        st.text(alphabet='[]{}"0123456789:,. -eE\\tnulrfas', max_size=256)
        .map(str.encode),
        # Long runs of one token reach the decoder's depth and digit
        # limits, which short random lines never do.
        st.builds(
            lambda token, n, tail: token * n + tail,
            st.sampled_from([b"[", b'{"a":', b"1", b"-"]),
            st.integers(0, 6000),
            st.binary(max_size=16),
        ),
    ))
    def test_decode_fuzz_yields_dict_or_configuration_error(self, line):
        try:
            payload = decode_line(line)
        except ConfigurationError:
            return
        assert isinstance(payload, dict)


class TestTcpEndpointParsing:
    def test_host_and_port(self):
        assert parse_tcp_endpoint("127.0.0.1:7433") == ("127.0.0.1", 7433)

    def test_ephemeral_port_and_default_host(self):
        assert parse_tcp_endpoint(":0") == ("127.0.0.1", 0)

    def test_bracketed_ipv6_literal(self):
        assert parse_tcp_endpoint("[::1]:7000") == ("::1", 7000)

    @pytest.mark.parametrize(
        "endpoint", ["no-port-here", "host:notaport", "host:70000"]
    )
    def test_rejects_malformed_endpoints(self, endpoint):
        with pytest.raises(ConfigurationError):
            parse_tcp_endpoint(endpoint)


class TestSpec:
    def test_dict_round_trip(self):
        spec = SweepJobSpec(points=7, fault="Ko half nominal", label="x")
        assert SweepJobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="tone_count"):
            SweepJobSpec.from_dict({"tone_count": 9})
        # A stale client still sending the removed stage-0 policy.
        with pytest.raises(ConfigurationError) as excinfo:
            parse_spec({"points": 5, "settle": "fixed"})
        assert str(excinfo.value) == "unknown job-spec field(s): settle"

    def test_resolve_builds_the_one_shot_quadruple(self):
        request = resolve_spec(SweepJobSpec(points=6))
        assert request.pll.name == "paper-linear"
        assert request.plan.frequencies_hz == \
            paper_sweep(points=6).frequencies_hz
        assert request.config == paper_bist_config()

    def test_resolve_nonlinear_device(self):
        request = resolve_spec(SweepJobSpec(nonlinear=True))
        assert request.pll.name == "paper-hct4046"

    def test_resolve_rejects_unknown_fault(self):
        with pytest.raises(ConfigurationError, match="gremlins"):
            resolve_spec(SweepJobSpec(fault="gremlins"))

    def test_resolve_rejects_degenerate_plan(self):
        with pytest.raises(ConfigurationError, match="points"):
            resolve_spec(SweepJobSpec(points=1))


# ----------------------------------------------------------------------
# live socket round trips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service_socket():
    """A real server on a real unix socket, in a background thread."""
    # Unix socket paths are length-limited (~108 bytes), so rendezvous
    # under a short mkdtemp rather than pytest's nested tmp tree.
    tmp = tempfile.mkdtemp(prefix="repro-svc-")
    sock_path = os.path.join(tmp, "svc.sock")
    cache_path = os.path.join(tmp, "warm.cache")

    def serve() -> None:
        async def main() -> None:
            service = SweepJobService(cache_path=cache_path)
            server = SweepJobServer(service, sock_path)
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(200):
        if os.path.exists(sock_path):
            break
        threading.Event().wait(0.05)
    else:
        raise RuntimeError("service socket never appeared")
    yield sock_path
    try:
        ServiceClient(sock_path, timeout_s=10.0).shutdown()
    except ServiceError:
        pass  # a test already shut it down
    thread.join(timeout=60)
    assert not thread.is_alive(), "server thread failed to drain"
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.fixture(scope="module")
def client(service_socket):
    return ServiceClient(service_socket, timeout_s=120.0)


@pytest.fixture(scope="module")
def smoke_run(client):
    """The CI smoke: one five-tone job submitted and watched over the wire."""
    accepted = client.submit(SweepJobSpec(points=SMOKE_POINTS, label="smoke"))
    events = list(client.watch(accepted["job_id"]))
    return accepted, events


class TestServiceSmoke:
    def test_submit_acknowledges_with_job_id(self, smoke_run):
        accepted, _ = smoke_run
        assert accepted["job_id"].startswith("job-")
        assert accepted["tones_planned"] == SMOKE_POINTS

    def test_tones_stream_in_plan_order(self, smoke_run):
        _, events = smoke_run
        tones = [e for e in events if e.get("event") == "tone"]
        assert [e["index"] for e in tones] == list(range(SMOKE_POINTS))
        assert [e["f_mod_hz"] for e in tones] == \
            list(paper_sweep(points=SMOKE_POINTS).frequencies_hz)
        assert all(e["ok"] for e in tones)
        assert events[-1]["event"] == "done"

    def test_report_byte_identical_to_one_shot(self, smoke_run, client):
        accepted, _ = smoke_run
        one_shot = TransferFunctionMonitor(
            paper_pll(), paper_stimulus("multitone"), paper_bist_config()
        ).run(paper_sweep(points=SMOKE_POINTS))
        assert client.report(accepted["job_id"]) == \
            device_report(paper_pll(), one_shot)

    def test_status_reflects_the_finished_job(self, smoke_run, client):
        accepted, _ = smoke_run
        stats = client.status()
        assert stats["jobs_by_state"]["done"] >= 1
        assert stats["tones_streamed"] >= SMOKE_POINTS
        assert stats["cache"]["path"] is not None
        jobs = client.jobs()
        assert any(j["job_id"] == accepted["job_id"] for j in jobs)

    def test_unknown_job_is_an_error_line(self, smoke_run, client):
        with pytest.raises(ServiceError, match="unknown job"):
            list(client.watch("job-9999"))
        with pytest.raises(ServiceError, match="unknown job"):
            client.report("job-9999")

    def test_bad_spec_is_an_error_line(self, smoke_run, client):
        with pytest.raises(ServiceError, match="gremlins"):
            client.submit(SweepJobSpec(fault="gremlins"))

    def test_malformed_line_gets_error_reply(self, smoke_run, service_socket):
        # Bypass the client: a raw junk line must earn a polite error
        # response, not a dead server.
        sock = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        sock.settimeout(10.0)
        try:
            sock.connect(service_socket)
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        finally:
            sock.close()
        assert reply["ok"] is False
        assert "malformed" in reply["error"]

    @pytest.mark.parametrize("line", [b"[" * 100000 + b"\n",
                                      b"\xff\xfe{}\n"],
                             ids=["deep-nesting", "not-utf8"])
    def test_hostile_line_gets_one_configuration_error(
        self, smoke_run, service_socket, client, line
    ):
        sock = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        sock.settimeout(10.0)
        try:
            sock.connect(service_socket)
            sock.sendall(line)
            replies = sock.makefile("rb").readlines()
        finally:
            sock.close()
        assert len(replies) == 1
        reply = json.loads(replies[0])
        assert reply["ok"] is False
        assert reply["kind"] == "ConfigurationError"
        # The server survives and still answers.
        assert client.status()["jobs_by_state"]["done"] >= 1

    def test_unknown_op_gets_error_reply(self, smoke_run, service_socket):
        sock = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        sock.settimeout(10.0)
        try:
            sock.connect(service_socket)
            sock.sendall(encode_line({"op": "juggle"}))
            reply = json.loads(sock.makefile("rb").readline())
        finally:
            sock.close()
        assert reply["ok"] is False
        assert "juggle" in reply["error"]

    def test_line_above_readline_default_is_still_parsed(
        self, smoke_run, service_socket
    ):
        # 128 KiB sits between StreamReader's 64 KiB default limit and
        # the protocol's 1 MiB bound: the server must actually *parse*
        # it (here: reject the op by name), not choke inside readline.
        request = {"op": "juggle", "padding": "x" * (128 * 1024)}
        sock = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        sock.settimeout(10.0)
        try:
            sock.connect(service_socket)
            sock.sendall(encode_line(request))
            reply = json.loads(sock.makefile("rb").readline())
        finally:
            sock.close()
        assert reply["ok"] is False
        assert "juggle" in reply["error"]

    def test_oversize_line_gets_the_intended_diagnostic(
        self, smoke_run, service_socket
    ):
        request = {"op": "status", "padding": "x" * (MAX_LINE_BYTES + 4096)}
        sock = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        sock.settimeout(30.0)
        try:
            sock.connect(service_socket)
            # The server may give up (and reply) before the whole line
            # is even sent; a send-side reset is fine as long as the
            # diagnostic still comes back.
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                sock.sendall(encode_line(request))
            reply = json.loads(sock.makefile("rb").readline())
        finally:
            sock.close()
        assert reply["ok"] is False
        assert f"exceeds {MAX_LINE_BYTES}" in reply["error"]


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tcp_server():
    """A TCP-only server on an ephemeral port, in a background thread.

    Yields a holder with the bound ``port``, the server's ``loop`` and
    the underlying ``service`` (for interleaving assertions the wire
    protocol does not expose).
    """
    started = threading.Event()
    holder = {}

    def serve() -> None:
        async def main() -> None:
            service = SweepJobService()
            server = SweepJobServer(service, tcp="127.0.0.1:0")
            await server.start()
            holder["loop"] = asyncio.get_running_loop()
            holder["service"] = service
            holder["port"] = server.tcp_port
            started.set()
            try:
                await server.wait_shutdown()
            finally:
                await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(30), "TCP service never came up"
    yield holder
    try:
        ServiceClient(
            tcp=f"127.0.0.1:{holder['port']}", timeout_s=10.0
        ).shutdown()
    except ServiceError:
        pass  # a test already shut it down
    thread.join(timeout=60)
    assert not thread.is_alive(), "server thread failed to drain"


@pytest.fixture(scope="module")
def tcp_client(tcp_server):
    return ServiceClient(
        tcp=f"127.0.0.1:{tcp_server['port']}", timeout_s=120.0
    )


class TestTcpTransport:
    def test_smoke_streams_plan_order_and_identical_report(
        self, tcp_server, tcp_client
    ):
        # The same CI smoke as the unix-socket module fixture, over
        # TCP: tone events in plan order, report byte-identical to the
        # one-shot run — the transport changes nothing but the address.
        accepted = tcp_client.submit(
            SweepJobSpec(points=SMOKE_POINTS, label="tcp-smoke")
        )
        events = list(tcp_client.watch(accepted["job_id"]))
        tones = [e for e in events if e.get("event") == "tone"]
        assert [e["index"] for e in tones] == list(range(SMOKE_POINTS))
        assert events[-1]["event"] == "done"
        one_shot = TransferFunctionMonitor(
            paper_pll(), paper_stimulus("multitone"), paper_bist_config()
        ).run(paper_sweep(points=SMOKE_POINTS))
        assert tcp_client.report(accepted["job_id"]) == \
            device_report(paper_pll(), one_shot)

    def test_snapshot_carries_fair_queue_identity(
        self, tcp_server, tcp_client
    ):
        accepted = tcp_client.submit(SweepJobSpec(
            points=2, client_id="floor-7", priority=2, label="idcheck",
        ))
        assert accepted["client_id"] == "floor-7"
        assert accepted["priority"] == 2
        list(tcp_client.watch(accepted["job_id"]))  # drain

    def test_flooding_client_interleaves_over_the_wire(
        self, tcp_server, tcp_client
    ):
        # Client "flood" stuffs three jobs down the TCP pipe before
        # "polite" submits one.  To make the dispatch order observable
        # (warm jobs finish in milliseconds), the single shard is first
        # pinned on a long cold job; everything submitted while it runs
        # queues up, and cancelling it releases the fair ring in one
        # deterministic burst: flood[0], polite, flood[1], flood[2].
        blocker = tcp_client.submit(SweepJobSpec(
            points=12, nonlinear=True, client_id="blocker",
        ))["job_id"]
        for event in tcp_client.watch(blocker):
            if event.get("event") == "started":
                break
        flood = [
            tcp_client.submit(
                SweepJobSpec(points=2, client_id="flood")
            )["job_id"]
            for _ in range(3)
        ]
        polite = tcp_client.submit(
            SweepJobSpec(points=2, client_id="polite")
        )["job_id"]
        tcp_client.cancel(blocker)
        for job_id in flood + [polite]:
            events = list(tcp_client.watch(job_id))
            assert events[-1]["event"] == "done"
        service = tcp_server["service"]
        started = {
            job_id: service.get(job_id).started_at
            for job_id in flood + [polite]
        }
        assert started[flood[0]] < started[polite]
        assert started[polite] < started[flood[1]] < started[flood[2]]


class TestClientTransportChoice:
    def test_no_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            ServiceClient()

    def test_both_transports_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="exactly one"):
            ServiceClient(tmp_path / "svc.sock", tcp="127.0.0.1:7433")

    def test_server_requires_some_transport(self):
        with pytest.raises(ConfigurationError, match="transport"):
            SweepJobServer(SweepJobService())


@contextlib.contextmanager
def _live_service():
    """A server on a fresh unix socket in a background thread.

    Yields the socket path and ``call(fn)``, which runs ``fn(service)``
    on the server's event loop and returns its result.  The server is
    shut down on exit and must drain.
    """
    tmp = tempfile.mkdtemp(prefix="repro-svc-")
    sock_path = os.path.join(tmp, "svc.sock")
    started = threading.Event()
    holder = {}

    def serve() -> None:
        async def main() -> None:
            service = SweepJobService()
            server = SweepJobServer(service, sock_path)
            await server.start()
            holder["loop"] = asyncio.get_running_loop()
            holder["service"] = service
            started.set()
            try:
                await server.wait_shutdown()
            finally:
                await server.stop()

        asyncio.run(main())

    def call(fn):
        result: "concurrent.futures.Future" = concurrent.futures.Future()

        def run() -> None:
            try:
                result.set_result(fn(holder["service"]))
            except BaseException as exc:  # noqa: BLE001
                result.set_exception(exc)

        holder["loop"].call_soon_threadsafe(run)
        return result.result(timeout=30)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        assert started.wait(30), "service socket never appeared"
        yield sock_path, call
    finally:
        # A server that misses this request fails the drain check below.
        with contextlib.suppress(ServiceError, OSError):
            ServiceClient(sock_path, timeout_s=10.0).shutdown()
        thread.join(timeout=60)
        shutil.rmtree(tmp, ignore_errors=True)
    assert not thread.is_alive(), "server thread failed to drain"


class TestFailedToneOverTheWire:
    def test_failed_tone_event_streams_instead_of_raising(
        self, fast_bist_config
    ):
        # A starving non-reference tone streams as an event line with
        # ok=false (failure-as-data); the client must yield it — CLI
        # watchers render the FAILED line — and still reach the
        # terminal `done` event, not die on a spurious ServiceError.
        # The preset vocabulary can't express a failing tone, so the
        # job is injected into the service directly and only *watched*
        # over the wire.
        request = SweepJobRequest(
            pll=paper_pll(),
            stimulus=paper_stimulus("multitone"),
            plan=SweepPlan((5.0, 10.0, 2000.0)),  # 2 kHz starves
            config=fast_bist_config,
        )
        with _live_service() as (sock_path, call):
            job_id = call(lambda service: service.submit(request).job_id)
            client = ServiceClient(sock_path, timeout_s=120.0)
            events = list(client.watch(job_id))
        tones = [e for e in events if e.get("event") == "tone"]
        dead = [e for e in tones if e.get("ok") is False]
        assert [e["f_mod_hz"] for e in dead] == [2000.0]
        assert dead[0]["error"]
        assert events[-1]["event"] == "done"
        assert events[-1]["failed_tones"] == 1


class TestWatcherDisconnect:
    def test_client_gone_mid_watch_leaves_job_and_server_whole(self):
        # A watcher that reads one event and hangs up must neither stop
        # the job nor stay subscribed: once the terminal event has gone
        # out, the job's subscriber list is empty again, so a finished
        # job can still age out of the retention bound.
        one_shot = device_report(paper_pll(), TransferFunctionMonitor(
            paper_pll(), paper_stimulus("multitone"), paper_bist_config()
        ).run(paper_sweep(points=SMOKE_POINTS)))
        with _live_service() as (sock_path, call):
            client = ServiceClient(sock_path, timeout_s=120.0)
            job_id = client.submit(SweepJobSpec(
                points=SMOKE_POINTS, engine="scalar", label="gone",
            ))["job_id"]
            sock = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            sock.settimeout(30.0)
            try:
                sock.connect(sock_path)
                sock.sendall(encode_line({"op": "watch", "job_id": job_id}))
                first = json.loads(sock.makefile("rb").readline())
            finally:
                sock.close()
            events = list(client.watch(job_id))
            report = client.report(job_id)
            stats = client.status()
            subscribers = call(
                lambda service: list(service._subscribers[job_id]))
        assert first["event"] == "accepted"
        assert first["job_id"] == job_id
        assert events[-1]["event"] == "done"
        assert events[-1]["state"] == "done"
        assert report == one_shot
        assert stats["jobs_by_state"]["done"] == 1
        assert subscribers == []


class TestClientWithoutServer:
    def test_dead_socket_raises_service_error(self, tmp_path):
        client = ServiceClient(tmp_path / "nobody-home.sock", timeout_s=1.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status()
