from __future__ import annotations

import contextlib
import http.client
import json
import socket
import socketserver
import threading
import time
import wsgiref.simple_server

import pytest

import carbondate.cli as cli
import carbondate.replay as replay
import carbondate.service as service
from carbondate.cli import eval_main, main
from carbondate.core import parse_iso_timestamp
from carbondate.replay import Cassette, ReplayTransport
from carbondate.service import ServiceConfig, build_context, make_app, serve
from carbondate.sources import Endpoints
from carbondate.synth import generate_world

NOW = "2013-03-01T00:00:00"
RESOURCE = {"uri": "http://a.example/", "true_creation": "2010-01-01T00:00:00"}
FTP_RESOURCE = {**RESOURCE, "uri": "ftp://a.example/", "lags": {}}


def call(app, path, query=""):
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    environ = {"PATH_INFO": path, "QUERY_STRING": query, "REQUEST_METHOD": "GET"}
    body = b"".join(app(environ, start_response)).decode("utf-8")
    return captured["status"], captured["headers"], body


@pytest.fixture
def replay_app(mementoweb_cassette_path):
    config = ServiceConfig(mode="replay", cassette_path=mementoweb_cassette_path)
    return make_app(config)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(timeout_ms=0)
        with pytest.raises(ValueError):
            ServiceConfig(mode="replay")
        with pytest.raises(ValueError):
            ServiceConfig(enabled_methods=frozenset())
        with pytest.raises(ValueError):
            ServiceConfig(enabled_methods=frozenset({"archives", "astrology"}))
        with pytest.raises(ValueError):
            ServiceConfig(report_style="xml")
        with pytest.raises(ValueError):
            ServiceConfig(mode="bogus")

    @pytest.mark.parametrize("listen, address", [
        ("h:0", ("h", 0)),
        ("h", ("h", 8000)),
        (":9", ("127.0.0.1", 9)),
        ("h:65535", ("h", 65535)),
        ("127.0.0.1:8000", ("127.0.0.1", 8000)),
    ])
    def test_listen_address(self, listen, address):
        assert ServiceConfig(listen=listen).address == address

    @pytest.mark.parametrize(
        "listen", ["h:x", "h:65536", "h:-1", "h: 80", "h:\u0668\u0660", 8000]
    )
    def test_bad_listen(self, listen):
        with pytest.raises(ValueError):
            ServiceConfig(listen=listen)

    def test_json_values_become_the_field_types(self):
        config = ServiceConfig(
            enabled_methods=["social", "archives"],
            endpoints={"timemap_base": "http://tm.example/"},
        )
        assert config.enabled_methods == frozenset({"social", "archives"})
        assert config.endpoints == Endpoints(timemap_base="http://tm.example/")


class TestEndpoint:
    def test_healthz(self, replay_app):
        status, _, body = call(replay_app, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_estimate_mementoweb(self, replay_app):
        status, headers, body = call(replay_app, "/cd/http://www.mementoweb.org")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        report = json.loads(body)
        assert report["Estimated Creation Date"] == "2009-09-30T11:58:25"

    def test_malformed_uri_is_400(self, replay_app):
        status, _, body = call(replay_app, "/cd/not%20a%20uri")
        assert status == 400
        assert "error" in json.loads(body)

    def test_unknown_path_is_404(self, replay_app):
        status, _, _ = call(replay_app, "/elsewhere")
        assert status == 404

    def test_all_sources_failing_still_200(self, tmp_path):
        empty = Cassette(recorded_at=parse_iso_timestamp("2013-03-01T00:00:00"))
        path = tmp_path / "empty.jsonl"
        empty.save(str(path))
        app = make_app(ServiceConfig(mode="replay", cassette_path=str(path)))
        status, _, body = call(app, "/cd/http://nothing.example.com/")
        assert status == 200
        assert json.loads(body)["Estimated Creation Date"] == ""

    def test_unexpected_error_is_json_500(self, replay_app, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("probe wiring broke")

        monkeypatch.setattr("carbondate.service.gather_evidence", broken)
        status, headers, body = call(replay_app, "/cd/http://www.mementoweb.org")
        assert status == 500
        assert headers["Content-Type"].startswith("application/json")
        assert "probe wiring broke" in json.loads(body)["error"]

    @pytest.mark.parametrize("status, line", [
        (200, "200 OK"),
        (400, "400 Bad Request"),
        (404, "404 Not Found"),
        (500, "500 Internal Server Error"),
    ])
    def test_status_line(self, status, line):
        seen = []
        service._respond(lambda status_line, headers: seen.append(status_line), status, {})
        assert seen == [line]

    def test_replay_deterministic_byte_identical(self, replay_app):
        first = call(replay_app, "/cd/http://www.mementoweb.org")
        second = call(replay_app, "/cd/http://www.mementoweb.org")
        assert first == second

    def test_generic_format(self, mementoweb_cassette_path):
        app = make_app(
            ServiceConfig(
                mode="replay",
                cassette_path=mementoweb_cassette_path,
                report_style="generic",
            )
        )
        _, _, body = call(app, "/cd/http://www.mementoweb.org")
        report = json.loads(body)
        assert report["winning_method"] == "archives"


class TestServeRecord:
    @pytest.mark.parametrize("stop", [None, KeyboardInterrupt])
    def test_capture_saved_when_serving_ends(
        self, tmp_path, monkeypatch, mementoweb_cassette_path, stop
    ):
        path = tmp_path / "recorded.jsonl"
        config = ServiceConfig(mode="record", cassette_path=str(path))
        ctx = build_context(config)
        # The fixture stands in for the live web.
        ctx.transport.inner = ReplayTransport(Cassette.load(mementoweb_cassette_path))

        events = []

        class StubServer:
            def __init__(self, app, server_class, handler_class):
                self.app = app
                self.server_class = server_class
                self.handler_class = handler_class

            def serve_forever(self):
                status, _, _ = call(self.app, "/cd/http://www.mementoweb.org")
                assert status == 200
                if stop is not None:
                    raise stop

            def server_close(self):
                events.append(("close", path.exists()))

        servers = []

        def make_server(host, port, app, server_class, handler_class):
            servers.append(StubServer(app, server_class, handler_class))
            return servers[-1]

        monkeypatch.setattr(wsgiref.simple_server, "make_server", make_server)
        if stop is None:
            serve(config, ctx)
        else:
            with pytest.raises(stop):
                serve(config, ctx)
        # Closed (joining request threads) before the cassette is written.
        assert events == [("close", False)]
        assert issubclass(servers[0].server_class, socketserver.ThreadingMixIn)
        assert not servers[0].server_class.daemon_threads
        assert servers[0].handler_class.timeout == 10.0 + service.IDLE_MARGIN_S
        recorded = ctx.transport.sink.entries
        assert len(recorded) > 5
        assert Cassette.load(str(path)).entries == recorded


class BlockingTransport:
    """Holds every request until released; declares nothing about blocking."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def request(self, method, url):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return self.inner.request(method, url)


def http_get(port, path):
    """GET over loopback with no proxy involved: (status, decoded JSON)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@contextlib.contextmanager
def serving(monkeypatch, config, ctx):
    """Run serve(config, ctx) on a thread; yield (server, thread). On exit
    shut the server down and join the thread."""
    servers = []
    real_make_server = wsgiref.simple_server.make_server

    def make_server(*args, **kwargs):
        servers.append(real_make_server(*args, **kwargs))
        return servers[-1]

    monkeypatch.setattr(wsgiref.simple_server, "make_server", make_server)
    monkeypatch.setattr(
        wsgiref.simple_server.WSGIRequestHandler, "log_message", lambda *a: None
    )
    thread = threading.Thread(target=serve, args=(config, ctx))
    thread.start()
    try:
        deadline = time.monotonic() + 10
        while not servers and time.monotonic() < deadline:
            time.sleep(0.01)
        yield servers[0], thread
    finally:
        if servers:
            servers[0].shutdown()
        thread.join(timeout=30)
    assert not thread.is_alive()


class TestThreadedServer:
    def blocking_config(self, cassette_path):
        config = ServiceConfig(
            mode="replay", cassette_path=cassette_path, listen="127.0.0.1:0"
        )
        ctx = build_context(config)
        ctx.transport = BlockingTransport(ctx.transport)
        return config, ctx

    def test_healthz_answers_while_an_estimate_waits(
        self, monkeypatch, mementoweb_cassette_path
    ):
        config, ctx = self.blocking_config(mementoweb_cassette_path)
        blocking = ctx.transport
        estimate = {}
        with serving(monkeypatch, config, ctx) as (server, _):
            port = server.server_port

            def get_estimate():
                estimate["status"], estimate["body"] = http_get(
                    port, "/cd/http://www.mementoweb.org"
                )

            client = threading.Thread(target=get_estimate)
            client.start()
            try:
                assert blocking.entered.wait(timeout=10)
                assert http_get(port, "/healthz") == (200, {"status": "ok"})
                assert client.is_alive()  # the estimate is still waiting
            finally:
                blocking.release.set()
                client.join(timeout=30)
        assert estimate["status"] == 200
        assert estimate["body"]["Estimated Creation Date"] == "2009-09-30T11:58:25"

    def test_requests_past_the_cap_wait(self, monkeypatch, mementoweb_cassette_path):
        monkeypatch.setattr(service, "MAX_REQUESTS", 1)
        config, ctx = self.blocking_config(mementoweb_cassette_path)
        blocking = ctx.transport
        answers = {}
        with serving(monkeypatch, config, ctx) as (server, _):
            port = server.server_port

            def get(path):
                answers[path] = http_get(port, path)

            client = threading.Thread(target=get, args=("/cd/http://www.mementoweb.org",))
            health = threading.Thread(target=get, args=("/healthz",))
            client.start()
            try:
                assert blocking.entered.wait(timeout=10)
                health.start()
                health.join(timeout=0.5)
                assert health.is_alive()  # queued behind the one request slot
            finally:
                blocking.release.set()
                client.join(timeout=30)
                if health.ident is not None:
                    health.join(timeout=30)
        assert answers["/healthz"] == (200, {"status": "ok"})
        assert answers["/cd/http://www.mementoweb.org"][0] == 200

    def test_idle_connection_does_not_hold_up_the_save(
        self, tmp_path, monkeypatch, mementoweb_cassette_path
    ):
        path = tmp_path / "recorded.jsonl"
        config = ServiceConfig(
            mode="record", cassette_path=str(path), listen="127.0.0.1:0", timeout_ms=200
        )
        ctx = build_context(config)
        ctx.transport.inner = ReplayTransport(Cassette.load(mementoweb_cassette_path))
        with serving(monkeypatch, config, ctx) as (server, thread):
            port = server.server_port
            idle = socket.create_connection(("127.0.0.1", port), timeout=30)
            try:
                # Connections are accepted in order, so by the time this
                # answers, the idle one has a request thread reading from it.
                status, _ = http_get(port, "/cd/http://www.mementoweb.org")
                assert status == 200
                server.shutdown()
                thread.join(timeout=10)
                assert not thread.is_alive()  # serve returned
                assert idle.recv(1) == b""  # the server dropped the connection
            finally:
                idle.close()
        recorded = ctx.transport.sink.entries
        assert len(recorded) > 5
        assert Cassette.load(str(path)).entries == recorded


class TestBatchCli:
    def test_batch_over_world(self, tmp_path, capsys):
        world, cassette = generate_world(seed=21, n=3)
        cassette_path = tmp_path / "c.jsonl"
        cassette.save(str(cassette_path))
        uris = tmp_path / "uris.txt"
        uris.write_text("\n".join(r.uri for r in world.resources) + "\n")
        out = tmp_path / "out.jsonl"
        rc = main([
            "batch", str(uris), "--replay", str(cassette_path), "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        for line, resource in zip(lines, world.resources):
            report = json.loads(line)
            assert report["URI"].rstrip("/") == resource.uri.rstrip("/")

    def test_batch_isolates_malformed_lines(self, tmp_path):
        world, cassette = generate_world(seed=22, n=1)
        cassette_path = tmp_path / "c.jsonl"
        cassette.save(str(cassette_path))
        uris = tmp_path / "uris.txt"
        uris.write_text(f"{world.resources[0].uri}\nnot a uri\n")
        out = tmp_path / "out.jsonl"
        rc = main([
            "batch", str(uris), "--replay", str(cassette_path), "--out", str(out),
        ])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert len(lines) == 2
        assert "error" not in lines[0]
        assert lines[1]["input"] == "not a uri"

    def test_record_keeps_capture_when_interrupted(
        self, tmp_path, monkeypatch, mementoweb_cassette_path
    ):
        # The fixture stands in for the live web for the first two requests,
        # whichever probes make them. Every later one is interrupted as by
        # Ctrl-C once both answers are recorded.
        web = ReplayTransport(Cassette.load(mementoweb_cassette_path))
        lock = threading.Lock()
        asked = []
        both_recorded = threading.Event()
        add = Cassette.add

        def request(self, method, url):
            with lock:
                asked.append((method.upper(), url))
                answer = len(asked) <= 2
            if answer:
                return web.request(method, url)
            both_recorded.wait(5)
            raise KeyboardInterrupt

        def counted_add(self, interaction):
            add(self, interaction)
            if len(self.entries) == 2:
                both_recorded.set()

        monkeypatch.setattr(replay.LiveTransport, "request", request)
        monkeypatch.setattr(Cassette, "add", counted_add)
        uris = tmp_path / "uris.txt"
        uris.write_text("http://www.mementoweb.org\nhttp://example.com/\n")
        path = tmp_path / "recorded.jsonl"
        argv = ["batch", str(uris), "--record", str(path), "--out", str(tmp_path / "out.jsonl")]
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        saved = Cassette.load(str(path))
        assert len(asked) >= 3
        assert {(e.method, e.url) for e in saved.entries.values()} == set(asked[:2])
        for method, url in asked[:2]:
            assert saved.lookup(method, url).response == web.request(method, url)

    def test_record_interrupted_while_pooled_probes_still_record(
        self, tmp_path, monkeypatch, mementoweb_cassette_path
    ):
        # Ctrl-C reaches only the main thread. The probes of the interrupted
        # URI that run on the executor keep fetching, and they answer while
        # the cassette is being written.
        web = ReplayTransport(Cassette.load(mementoweb_cassette_path))
        second_uri = threading.Event()
        saving = threading.Event()
        added_while_saving = threading.Event()
        answered = []
        before_interrupt = []
        gather, add, to_json = cli.gather_evidence, Cassette.add, replay.Interaction.to_json

        def gather_evidence(*args, **kwargs):
            if gather_evidence.calls == 1:
                second_uri.set()
            gather_evidence.calls += 1
            return gather(*args, **kwargs)

        gather_evidence.calls = 0

        def request(self, method, url):
            if not second_uri.is_set():
                response = web.request(method, url)
                answered.append((method.upper(), url))
                return response
            if threading.current_thread() is threading.main_thread():
                before_interrupt.extend(answered)
                raise KeyboardInterrupt
            saving.wait(5)
            return replay.HttpResponse(200, {}, "")

        def watched_add(self, interaction):
            add(self, interaction)
            if saving.is_set():
                added_while_saving.set()

        def waiting_to_json(self):
            # The first entry written waits for a pooled probe to record.
            if not saving.is_set():
                saving.set()
                added_while_saving.wait(1)
            return to_json(self)

        monkeypatch.setattr(cli, "gather_evidence", gather_evidence)
        monkeypatch.setattr(replay.LiveTransport, "request", request)
        monkeypatch.setattr(Cassette, "add", watched_add)
        monkeypatch.setattr(replay.Interaction, "to_json", waiting_to_json)
        uris = tmp_path / "uris.txt"
        uris.write_text("http://www.mementoweb.org\nhttp://example.com/\n")
        path = tmp_path / "recorded.jsonl"
        argv = ["batch", str(uris), "--record", str(path), "--out", str(tmp_path / "o")]
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert added_while_saving.wait(5), "no pooled probe recorded after the interrupt"
        saved = Cassette.load(str(path))
        assert before_interrupt
        assert {(e.method, e.url) for e in saved.entries.values()} == set(before_interrupt)

    def test_unreadable_input_is_nonzero(self, tmp_path, capsys):
        rc = main(["batch", str(tmp_path / "missing.txt")])
        assert rc == 1

    def test_config_file_endpoints(
        self, tmp_path, monkeypatch, capsys, mementoweb_cassette_path
    ):
        # The fixture's upstreams sit at the default endpoints; pointing the
        # timemap elsewhere must turn archives off, so social wins instead.
        uris = tmp_path / "uris.txt"
        uris.write_text("http://www.mementoweb.org\n")
        config = tmp_path / "config.json"
        monkeypatch.setenv("CARBONDATE_CONFIG", str(config))
        out = tmp_path / "out.jsonl"
        argv = [
            "batch", str(uris), "--replay", mementoweb_cassette_path, "--out", str(out),
        ]

        endpoints = {"timemap_base": "http://tm.invalid/"}
        config.write_text(json.dumps({"endpoints": endpoints}))
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["Archives"] == {"Earliest": "", "By Archive": {}}
        assert report["Estimated Creation Date"] == "2009-11-09T20:53:20"

        misspelled = {"timemap": "http://tm.invalid/"}
        config.write_text(json.dumps({"endpoints": misspelled}))
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


def no_serving(*args, **kwargs):
    raise AssertionError("started serving on input that should have been refused")


def no_request(*args, **kwargs):
    raise AssertionError("made a live request on input that should have been refused")


class TestCliInputErrors:
    @pytest.fixture
    def batch_argv(self, tmp_path):
        _, cassette = generate_world(seed=25, n=1)
        cassette.save(str(tmp_path / "c.jsonl"))
        (tmp_path / "uris.txt").write_text("http://a.example/\n")
        return ["batch", str(tmp_path / "uris.txt"), "--replay", str(tmp_path / "c.jsonl")]

    def test_zero_reaches_validation(self, batch_argv, capsys):
        assert main(batch_argv + ["--timeout-ms", "0"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, flag", [
        ("batch", "--sources"), ("batch", "--now"), ("batch", "--replay"),
        ("batch", "--record"), ("serve", "--listen"),
    ])
    def test_empty_value_reaches_validation(self, batch_argv, capsys, monkeypatch, command, flag):
        monkeypatch.setattr(cli, "serve", no_serving)
        monkeypatch.setattr(replay.LiveTransport, "request", no_request)
        uris, cassette = batch_argv[1], batch_argv[3]
        argv = [command] + ([uris] if command == "batch" else [])
        if flag not in ("--replay", "--record"):
            argv += ["--replay", cassette]
        assert main(argv + [flag, ""]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["batch", "serve"])
    @pytest.mark.parametrize("bad", [
        {"timeout_ms": True},
        {"timeout_ms": 2.5},
        {"timeout_ms": "100"},
        {"now_override": 1.5e9},
        {"now_override": True},
        {"cassette_path": 3},
        {"parallelism": 6},
        {"endpoints": {"timemap_base": 5}},
        {"endpoints": "x"},
        {"endpoints": ["x"]},
    ], ids=str)
    def test_bad_config_file_is_error_line(self, tmp_path, capsys, monkeypatch, command, bad):
        def no_loading(*args, **kwargs):
            raise AssertionError("loaded a cassette for a config that should have been refused")

        monkeypatch.setattr(cli, "serve", no_serving)
        monkeypatch.setattr(Cassette, "load", no_loading)
        config = {"mode": "replay", "cassette_path": str(tmp_path / "c.jsonl"), **bad}
        (tmp_path / "config.json").write_text(json.dumps(config))
        monkeypatch.setenv("CARBONDATE_CONFIG", str(tmp_path / "config.json"))
        (tmp_path / "uris.txt").write_text("http://a.example/\n")
        argv = [command] + ([str(tmp_path / "uris.txt")] if command == "batch" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_batch_out_to_missing_directory_is_error_line(self, tmp_path, batch_argv, capsys):
        out = tmp_path / "missing" / "out.jsonl"
        assert main(batch_argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.parent.exists()

    def test_eval_out_under_a_file_is_error_line(self, tmp_path, capsys, monkeypatch):
        world, cassette = generate_world(seed=29, n=2)
        cassette.save(str(tmp_path / "c.jsonl"))
        world.save(str(tmp_path / "world.json"))
        (tmp_path / "file").write_text("")

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored a URI before creating --out")

        monkeypatch.setattr(cli, "gather_evidence", no_scoring)
        rc = eval_main([
            "--world", str(tmp_path / "world.json"),
            "--replay", str(tmp_path / "c.jsonl"),
            "--out", str(tmp_path / "file" / "sub"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["batch", "serve"])
    @pytest.mark.parametrize("header", [
        None,
        {"version": 1, "recorded_at": "garbage"},
        {"version": 2, "recorded_at": "2013-03-01T00:00:00"},
    ])
    def test_bad_cassette_is_error_line(self, tmp_path, capsys, monkeypatch, command, header):
        monkeypatch.setattr(cli, "serve", no_serving)
        cassette = tmp_path / "c.jsonl"
        if header is not None:
            cassette.write_text(json.dumps(header) + "\n")
        uris = tmp_path / "uris.txt"
        uris.write_text("http://a.example/\n")
        argv = [command, "--replay", str(cassette)]
        if command == "batch":
            argv.append(str(uris))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["batch", "serve"])
    def test_replay_and_record_exclude_each_other(
        self, tmp_path, batch_argv, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(cli, "serve", no_serving)
        argv = batch_argv if command == "batch" else ["serve", *batch_argv[2:]]
        record = tmp_path / "recorded.jsonl"
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--record", str(record)])
        assert raised.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not record.exists()

    @pytest.mark.parametrize("listen", ["127.0.0.1:notaport", ":99999"])
    def test_bad_listen_is_error_line(
        self, capsys, monkeypatch, mementoweb_cassette_path, listen
    ):
        monkeypatch.setattr(cli, "serve", no_serving)
        assert main(["serve", "--replay", mementoweb_cassette_path, "--listen", listen]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("mode", ["replay", "record"])
    def test_port_in_use_is_error_line(
        self, tmp_path, capsys, monkeypatch, mementoweb_cassette_path, mode
    ):
        def no_serving_forever(self, *args, **kwargs):
            raise AssertionError("bound a port already in use")

        monkeypatch.setattr(socketserver.BaseServer, "serve_forever", no_serving_forever)
        cassette = mementoweb_cassette_path if mode == "replay" else str(tmp_path / "r.jsonl")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            listen = f"127.0.0.1:{taken.getsockname()[1]}"
            assert main(["serve", f"--{mode}", cassette, "--listen", listen]) == 1
        assert capsys.readouterr().err.startswith("error:")
        # A server that never started recorded nothing, so saves nothing.
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("n, out", [("0", "world"), ("1", "file/world")])
    def test_make_world_bad_input_is_error_line(self, tmp_path, capsys, n, out):
        (tmp_path / "file").write_text("")
        assert main(["make-world", "--n", n, "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "world").exists()


class TestEvalCli:
    def test_world_evaluation(self, tmp_path, capsys):
        world, cassette = generate_world(seed=23, n=10)
        cassette_path = tmp_path / "c.jsonl"
        world_path = tmp_path / "world.json"
        cassette.save(str(cassette_path))
        world.save(str(world_path))
        out_dir = tmp_path / "report"
        rc = eval_main([
            "--world", str(world_path),
            "--replay", str(cassette_path),
            "--ablate", "social",
            "--out", str(out_dir),
        ])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n"] == 10
        assert "social" in summary["ablations"]
        assert (out_dir / "records.jsonl").exists()
        assert (out_dir / "deltas.csv").exists()

    def test_gold_evaluation(self, tmp_path, capsys):
        world, cassette = generate_world(seed=24, n=4)
        cassette_path = tmp_path / "c.jsonl"
        cassette.save(str(cassette_path))
        gold = tmp_path / "gold.csv"
        from carbondate.core import truncate_to_day

        rows = ["uri,real_date,category"]
        for r in world.resources:
            rows.append(f"{r.uri},{truncate_to_day(r.true_creation).isoformat()},news")
        gold.write_text("\n".join(rows) + "\n")
        rc = eval_main([
            "--gold", str(gold),
            "--replay", str(cassette_path),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n"] == 4

    def test_status_counts_per_method(self, tmp_path, capsys):
        world, cassette = generate_world(seed=7, n=60)
        cassette.save(str(tmp_path / "c.jsonl"))
        world.save(str(tmp_path / "world.json"))
        rc = eval_main([
            "--world", str(tmp_path / "world.json"),
            "--replay", str(tmp_path / "c.jsonl"),
            "--out", str(tmp_path / "report"),
        ])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((tmp_path / "report" / "summary.json").read_text())
        # (ok, empty, error) per method.
        expected = {
            "archives": (42, 0, 18),
            "backlinks": (14, 0, 46),
            "last_modified": (26, 0, 34),
            "search_index": (32, 0, 28),
            "shortener": (36, 0, 24),
            "social": (47, 0, 13),
        }
        for summary in (printed, saved):
            assert {
                m: (c["ok"], c["empty"], c["error"]) for m, c in summary["statuses"].items()
            } == expected
            assert all(list(c) == ["ok", "empty", "error"] for c in summary["statuses"].values())

    def test_unknown_ablation_rejected_before_scoring(self, tmp_path, capsys, monkeypatch):
        world, cassette = generate_world(seed=26, n=2)
        cassette.save(str(tmp_path / "c.jsonl"))
        world.save(str(tmp_path / "world.json"))

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored a URI before validating --ablate")

        monkeypatch.setattr(cli, "gather_evidence", no_scoring)
        rc = eval_main([
            "--world", str(tmp_path / "world.json"),
            "--replay", str(tmp_path / "c.jsonl"),
            "--ablate", "social",
            "--ablate", "astrology",
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_gold_row_is_error_line(self, tmp_path, capsys):
        _, cassette = generate_world(seed=27, n=1)
        cassette.save(str(tmp_path / "c.jsonl"))
        gold = tmp_path / "gold.csv"
        gold.write_text("uri,real_date,category\nhttp://a.example/,1990-01-01,news\n")
        rc = eval_main(["--gold", str(gold), "--replay", str(tmp_path / "c.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_short_gold_row_is_error_line(self, tmp_path, capsys):
        _, cassette = generate_world(seed=27, n=1)
        cassette.save(str(tmp_path / "c.jsonl"))
        gold = tmp_path / "gold.csv"
        gold.write_text("uri,real_date,category\nhttp://b.example.com/,2011-02-02\n")
        rc = eval_main(["--gold", str(gold), "--replay", str(tmp_path / "c.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 2: short row, expected uri,real_date,category\n"

    @pytest.mark.parametrize("world", [
        {"now": NOW, "resources": []},
        [],
        {"seed": 1, "now": NOW, "resources": [RESOURCE]},
        {"seed": 1, "now": NOW, "resources": [FTP_RESOURCE]},
    ], ids=["no-seed", "list", "no-lags", "ftp-uri"])
    def test_malformed_world_is_error_line(self, tmp_path, capsys, world):
        _, cassette = generate_world(seed=28, n=1)
        cassette.save(str(tmp_path / "c.jsonl"))
        (tmp_path / "world.json").write_text(json.dumps(world))
        rc = eval_main([
            "--world", str(tmp_path / "world.json"), "--replay", str(tmp_path / "c.jsonl"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
