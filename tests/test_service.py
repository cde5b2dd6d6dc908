from __future__ import annotations

import json
import wsgiref.simple_server

import pytest

import carbondate.cli as cli
from carbondate.cli import eval_main, main
from carbondate.core import parse_iso_timestamp
from carbondate.replay import Cassette, ReplayTransport
from carbondate.service import ServiceConfig, build_context, make_app, serve
from carbondate.synth import generate_world


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
            ServiceConfig(parallelism=0)
        with pytest.raises(ValueError):
            ServiceConfig(mode="replay")
        with pytest.raises(ValueError):
            ServiceConfig(enabled_methods=frozenset())
        with pytest.raises(ValueError):
            ServiceConfig(enabled_methods=frozenset({"archives", "astrology"}))
        with pytest.raises(ValueError):
            ServiceConfig(report_style="xml")


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

        class StubServer:
            def __init__(self, app):
                self.app = app

            def serve_forever(self):
                status, _, _ = call(self.app, "/cd/http://www.mementoweb.org")
                assert status == 200
                if stop is not None:
                    raise stop

        monkeypatch.setattr(
            wsgiref.simple_server, "make_server", lambda host, port, app: StubServer(app)
        )
        if stop is None:
            serve(config, ctx)
        else:
            with pytest.raises(stop):
                serve(config, ctx)
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


class TestCliInputErrors:
    @pytest.fixture
    def batch_argv(self, tmp_path):
        _, cassette = generate_world(seed=25, n=1)
        cassette.save(str(tmp_path / "c.jsonl"))
        (tmp_path / "uris.txt").write_text("http://a.example/\n")
        return ["batch", str(tmp_path / "uris.txt"), "--replay", str(tmp_path / "c.jsonl")]

    @pytest.mark.parametrize("flag", ["--timeout-ms", "--parallelism"])
    def test_zero_reaches_validation(self, batch_argv, flag, capsys):
        assert main(batch_argv + [flag, "0"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["batch", "serve"])
    @pytest.mark.parametrize("header", [
        None,
        {"version": 1, "recorded_at": "garbage"},
        {"version": 2, "recorded_at": "2013-03-01T00:00:00"},
    ])
    def test_bad_cassette_is_error_line(self, tmp_path, capsys, monkeypatch, command, header):
        def no_serving(*args, **kwargs):
            raise AssertionError("started serving a cassette that did not load")

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
