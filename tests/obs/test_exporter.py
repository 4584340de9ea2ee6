"""Telemetry endpoint and `repro obs` CLI tests: route contracts of
the threaded HTTP server, its lifetime, and the CLI's dump/endpoint
rendering."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import AuditLog, Observability
from repro.obs.cli import main as obs_cli
from repro.obs.exporter import TelemetryServer

JSON_ROUTES = ("/healthz", "/metrics.json", "/traces", "/trace/req-1")


def _obs_with_data():
    obs = Observability()
    obs.registry.counter("demo_total", "demo").inc(kind="x")
    root = obs.tracer.begin("req-1", "request", 0.0)
    obs.tracer.end(root, 1.0, status="served")
    return obs


def _audited_obs(n_records=3):
    obs = _obs_with_data()
    obs.audit = AuditLog()
    for i in range(n_records):
        obs.audit.commit(
            family="fwd",
            scheme=(6, 3, 1, 1),
            operand_digest=f"op{i}",
            output_digest=f"out{i}",
            workers=(0, 1, 2),
            worker_digests=((0, f"d0-{i}"),),
            attested=(),
            accepted=(0, 1, 2),
            rejected=(),
            verify_ok=True,
            t_end=float(i),
        )
    return obs


def _fetch(url, method="GET"):
    req = urllib.request.Request(url, method=method)
    with urllib.request.urlopen(req, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def _raw(port, request: bytes) -> bytes:
    """One request over a bare socket; everything the server sent
    before closing the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture
def server():
    with TelemetryServer(_obs_with_data(), port=0) as server:
        yield server


@pytest.fixture
def url(server):
    return server.url


class TestTelemetryServer:
    def test_healthz(self, url):
        status, ctype, body = _fetch(url + "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_metrics_prometheus_text(self, url):
        status, ctype, body = _fetch(url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert 'demo_total{kind="x"} 1' in body.decode()

    def test_metrics_json(self, url):
        status, _, body = _fetch(url + "/metrics.json")
        assert status == 200
        doc = json.loads(body)
        assert "demo_total" in doc

    def test_trace_by_id_and_listing(self, url):
        status, _, body = _fetch(url + "/traces")
        assert status == 200
        assert "req-1" in json.loads(body)["traces"]
        status, _, body = _fetch(url + "/trace/req-1")
        doc = json.loads(body)
        assert doc["trace_id"] == "req-1"
        assert doc["spans"][0]["name"] == "request"
        assert doc["spans"][0]["attrs"]["status"] == "served"

    def test_unknown_trace_404(self, url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _fetch(url + "/trace/nope")
        assert err.value.code == 404

    def test_unknown_path_404_and_post_405(self, url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _fetch(url + "/whatever")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _fetch(url + "/metrics", method="POST")
        assert err.value.code == 405

    def test_stop_leaves_no_thread_and_is_idempotent(self):
        threads_before = threading.active_count()
        server = TelemetryServer(_obs_with_data(), port=0).start()
        for _ in range(3):
            assert _fetch(server.url + "/healthz")[0] == 200
        server.stop()
        assert threading.active_count() == threads_before
        server.stop()
        with pytest.raises(urllib.error.URLError):
            _fetch(server.url + "/healthz")

    def test_refuses_a_session_without_observability(self):
        with pytest.raises(RuntimeError, match="observability"):
            TelemetryServer(None)

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_every_non_read_method_is_405(self, url, method):
        with pytest.raises(urllib.error.HTTPError) as err:
            _fetch(url + "/healthz", method=method)
        assert err.value.code == 405
        assert json.loads(err.value.read()) == {"error": "GET only"}

    @pytest.mark.parametrize("path", JSON_ROUTES)
    def test_json_routes_declare_type_length_and_close(self, url, path):
        req = urllib.request.Request(url + path)
        with urllib.request.urlopen(req, timeout=5) as resp:
            body = resp.read()
            assert resp.headers["Content-Type"] == "application/json; charset=utf-8"
            assert int(resp.headers["Content-Length"]) == len(body)
            assert resp.headers["Connection"] == "close"
        json.loads(body)

    def test_head_sends_headers_without_a_body(self, server):
        _, _, get_body = _fetch(server.url + "/healthz")
        raw = _raw(server.port, b"HEAD /healthz HTTP/1.0\r\n\r\n")
        head, sep, body = raw.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.0 200 OK")
        assert f"Content-Length: {len(get_body)}".encode() in head
        assert body == b""

    def test_query_string_is_ignored(self, url):
        assert _fetch(url + "/metrics?name=demo_total") == _fetch(url + "/metrics")
        status, _, body = _fetch(url + "/trace/req-1?fmt=json")
        assert status == 200 and json.loads(body)["trace_id"] == "req-1"

    def test_reads_the_live_registry_and_tracer_not_a_start_time_copy(self, server):
        server.obs.registry.counter("demo_total", "demo").inc(kind="x")
        span = server.obs.tracer.begin("req-2", "request", 2.0)
        server.obs.tracer.end(span, 3.0, status="served")
        _, _, body = _fetch(server.url + "/metrics")
        assert 'demo_total{kind="x"} 2' in body.decode()
        _, _, body = _fetch(server.url + "/traces")
        assert {"req-1", "req-2"} <= set(json.loads(body)["traces"])

    def test_concurrent_clients_are_all_served(self, url):
        expected = _fetch(url + "/metrics")
        got: list = []
        errors: list = []

        def client():
            try:
                for _ in range(5):
                    got.append(_fetch(url + "/metrics"))
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        clients = [threading.Thread(target=client) for _ in range(12)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=30.0)
        assert errors == []
        assert got == [expected] * 60

    def test_stalled_client_does_not_block_others(self, server):
        # a peer that connects and never sends its request line holds
        # one handler thread, not the listener
        with socket.create_connection(("127.0.0.1", server.port), timeout=5):
            t0 = time.perf_counter()
            assert _fetch(server.url + "/healthz")[0] == 200
            assert time.perf_counter() - t0 < 2.0

    def test_port_zero_binds_an_ephemeral_port(self):
        server = TelemetryServer(_obs_with_data(), port=0)
        assert server.port == 0
        with server:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
            assert _fetch(server.url + "/healthz")[0] == 200

    def test_restart_after_stop_serves_again(self):
        server = TelemetryServer(_obs_with_data(), port=0)
        for _ in range(2):
            with server:
                assert _fetch(server.url + "/healthz")[0] == 200
            with pytest.raises(urllib.error.URLError):
                _fetch(server.url + "/healthz")

    def test_taken_port_raises_at_start_and_leaves_no_thread(self, server):
        threads_before = threading.active_count()
        clash = TelemetryServer(_obs_with_data(), port=server.port)
        with pytest.raises(OSError):
            clash.start()
        assert threading.active_count() == threads_before
        clash.stop()  # a server that never started stops as a no-op
        assert _fetch(server.url + "/healthz")[0] == 200

    def test_with_block_stops_the_server_when_the_body_raises(self):
        threads_before = threading.active_count()
        with pytest.raises(KeyError):
            with TelemetryServer(_obs_with_data(), port=0) as server:
                assert _fetch(server.url + "/healthz")[0] == 200
                raise KeyError("caller failure")
        assert threading.active_count() == threads_before
        with pytest.raises(urllib.error.URLError):
            _fetch(server.url + "/healthz")

    def test_two_servers_over_one_bundle_serve_the_same_state(self):
        obs = _obs_with_data()
        with TelemetryServer(obs) as a, TelemetryServer(obs) as b:
            assert a.port != b.port
            assert _fetch(a.url + "/metrics") == _fetch(b.url + "/metrics")
            assert _fetch(a.url + "/trace/req-1") == _fetch(b.url + "/trace/req-1")


class TestAuditRoutes:
    @pytest.mark.parametrize("path", ["/audit", "/audit/0"])
    def test_404_when_auditing_is_not_armed(self, url, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            _fetch(url + path)
        assert err.value.code == 404
        assert "auditing is not armed" in json.loads(err.value.read())["error"]

    def test_head_hash_and_length(self):
        obs = _audited_obs(3)
        with TelemetryServer(obs) as tel:
            status, _, body = _fetch(tel.url + "/audit")
        assert status == 200
        assert json.loads(body) == {"head": obs.audit.head, "length": 3}

    def test_record_by_seq(self):
        obs = _audited_obs(3)
        with TelemetryServer(obs) as tel:
            for seq in range(3):
                status, _, body = _fetch(f"{tel.url}/audit/{seq}")
                assert status == 200
                expected = json.loads(json.dumps(obs.audit.records[seq].to_dict()))
                assert json.loads(body) == expected

    @pytest.mark.parametrize(
        "seq, reason", [("3", "out of range"), ("-1", "out of range"), ("x", "bad audit seq")]
    )
    def test_bad_seq_is_404_with_a_reason(self, seq, reason):
        with TelemetryServer(_audited_obs(3)) as tel:
            with pytest.raises(urllib.error.HTTPError) as err:
                _fetch(f"{tel.url}/audit/{seq}")
        assert err.value.code == 404
        assert reason in json.loads(err.value.read())["error"]


class TestObsCli:
    def _dump(self, tmp_path):
        obs = _obs_with_data()
        path = tmp_path / "snap.json"
        obs.dump_path(str(path))
        return path

    def test_dump_mode_renders_metrics_and_timeline(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        assert obs_cli([str(path)]) == 0
        out = capsys.readouterr().out
        assert "demo_total" in out
        assert "req-1" in out
        assert "request" in out

    def test_dump_mode_specific_trace(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        assert obs_cli([str(path), "--trace", "req-1"]) == 0
        assert "request" in capsys.readouterr().out

    def test_requires_dump_xor_endpoint(self, capsys):
        with pytest.raises(SystemExit):
            obs_cli([])

    def test_endpoint_mode_polls_live_server(self, url, capsys):
        assert obs_cli(["--endpoint", url]) == 0
        out = capsys.readouterr().out
        assert "demo_total" in out

    def test_endpoint_mode_specific_trace(self, url, capsys):
        assert obs_cli(["--endpoint", url + "/", "--trace", "req-1"]) == 0
        out = capsys.readouterr().out
        assert "== req-1 ==" in out
        assert "request" in out
