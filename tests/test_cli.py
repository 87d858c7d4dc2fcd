"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_experiments_have_subcommands(self):
        from repro.experiments import EXPERIMENTS

        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_query_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["query", "football", "1", "2", "3"])
        assert args.dataset == "football"
        assert args.vertices == [1, 2, 3]
        assert args.method == "ws-q"

    def test_serve_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "football", "--port", "0", "--shards", "2"]
        )
        assert args.command == "serve"
        assert args.dataset == "football"
        assert args.port == 0
        assert args.shards == "2"  # parsed later: a count or a spec list
        assert args.max_batch == 32
        assert args.max_wait_ms == 2.0
        assert args.max_queue == 1024

    def test_shard_host_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["shard-host", "football", "--port", "0"])
        assert args.command == "shard-host"
        assert args.dataset == "football"
        assert args.host == "127.0.0.1"
        assert args.port == 0

    def test_parse_shards_counts_and_specs(self):
        from repro.cli import _parse_shards

        assert _parse_shards("0") == ("count", 0)
        assert _parse_shards(" 4 ") == ("count", 4)
        assert _parse_shards("10.0.0.5:8766,local") == (
            "specs", ["10.0.0.5:8766", "local"]
        )
        for bad in ("-2", "host:", "host:0", ","):
            with pytest.raises(ValueError):
                _parse_shards(bad)


class TestMain:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "experiments" in capsys.readouterr().out.lower()

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out
        assert "football" in out

    def test_figure2_runs(self, capsys):
        assert main(["figure2"]) == 0
        assert "165" in capsys.readouterr().out

    def test_query_ws(self, capsys):
        assert main(["query", "football", "0", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "ws-q" in out

    def test_query_st(self, capsys):
        assert main(["query", "football", "0", "5", "--method", "st"]) == 0
        assert "st" in capsys.readouterr().out

    def test_query_bad_method(self, capsys):
        assert main(["query", "football", "0", "--method", "nope"]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_query_bad_vertex(self, capsys):
        assert main(["query", "football", "999999"]) == 2
        err = capsys.readouterr().err
        assert "not in graph" in err
        assert "115 vertices" in err  # the actual labels, not an assumed range

    def test_query_bad_vertices_sorted_numerically(self, capsys):
        # repr-sorting would rank 1000 before 200; the canonical sort must not.
        assert main(["query", "football", "1000", "200"]) == 2
        assert "[200, 1000]" in capsys.readouterr().err

    def test_query_no_vertices(self, capsys):
        assert main(["query", "football"]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_query_batch_file(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("0 1 2\n# a comment\n3 4\n")
        assert main(["query", "football", "--batch", str(batch)]) == 0
        out = capsys.readouterr().out
        assert out.count("ws-q:") == 2
        assert "query [0, 1, 2]" in out

    def test_query_batch_prints_serving_footer(self, tmp_path, capsys):
        """Human-readable batch output must surface timing + warm hits."""
        import re

        batch = tmp_path / "queries.txt"
        batch.write_text("0 1 2\n3 4\n0 1 2\n")
        assert main(["query", "football", "--batch", str(batch)]) == 0
        out = capsys.readouterr().out
        footer = re.search(
            r"batch: 3 queries in \d+\.\d+s \(\d+\.\d+ ms/query, "
            r"(\d+) served warm, (\d+)% of batch\)",
            out,
        )
        assert footer, out
        assert int(footer.group(1)) >= 1  # the repeated query hit cache

    def test_query_batch_footer_with_shards(self, tmp_path, capsys):
        """The warm count folds in router dedup, so the same batch reports
        the same number sharded and unsharded."""
        import re

        batch = tmp_path / "queries.txt"
        batch.write_text("0 1 2\n3 4\n0 1 2\n")
        assert main(
            ["query", "football", "--batch", str(batch), "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        footer = re.search(r"(\d+) served warm", out)
        assert footer, out
        assert int(footer.group(1)) >= 1  # the duplicate, deduped in-flight

    def test_query_batch_footer_sharded_baseline_method(self, tmp_path, capsys):
        """Baseline methods route through the router's local fallback; its
        cache hits must still show up in the sharded footer."""
        import re

        batch = tmp_path / "queries.txt"
        batch.write_text("0 1\n3 4\n0 1\n")
        assert main(
            ["query", "football", "--batch", str(batch), "--method", "st",
             "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        footer = re.search(r"(\d+) served warm", out)
        assert footer, out
        assert int(footer.group(1)) >= 1  # local result-cache hit counted

    def test_query_single_has_no_footer(self, capsys):
        assert main(["query", "football", "0", "1", "2"]) == 0
        assert "batch:" not in capsys.readouterr().out

    def test_query_empty_batch_file_exits_zero(self, tmp_path, capsys):
        """An explicitly empty --batch file is an empty workload, not a
        usage error: clean `0 queries` footer, exit 0, and no
        division-by-zero in the timing averages."""
        batch = tmp_path / "empty.txt"
        batch.write_text("")
        assert main(["query", "football", "--batch", str(batch)]) == 0
        captured = capsys.readouterr()
        assert "batch: 0 queries" in captured.out
        assert "ms/query" not in captured.out  # no averages over nothing
        assert captured.err == ""

    def test_query_comments_only_batch_file_exits_zero(self, tmp_path, capsys):
        batch = tmp_path / "comments.txt"
        batch.write_text("# staging queries\n\n# none yet\n")
        assert main(["query", "football", "--batch", str(batch)]) == 0
        assert "batch: 0 queries" in capsys.readouterr().out

    def test_query_empty_batch_sharded_and_json(self, tmp_path, capsys):
        """The empty workload stays clean across the deployment knobs:
        sharded (no stats scatter to dead ends) and --json (empty results
        array, no footer)."""
        import json

        batch = tmp_path / "empty.json"
        batch.write_text("[]")
        assert main(
            ["query", "football", "--batch", str(batch), "--shards", "2"]
        ) == 0
        assert "batch: 0 queries" in capsys.readouterr().out
        assert main(
            ["query", "football", "--batch", str(batch), "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["results"] == []

    def test_query_empty_batch_still_validates_dataset(self, capsys, tmp_path):
        """Empty workload or not, a bad dataset name must still fail."""
        batch = tmp_path / "empty.txt"
        batch.write_text("")
        with pytest.raises(KeyError):
            main(["query", "mystery-dataset", "--batch", str(batch)])

    def test_query_shards_specs_rejected_cleanly_when_unreachable(
        self, tmp_path, capsys
    ):
        """--shards host:port with nobody listening is a topology error
        reported on stderr with exit 2, not a traceback."""
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        blocker.close()  # freed: connecting now gets ECONNREFUSED
        assert main(
            ["query", "football", "0", "1",
             "--shards", f"127.0.0.1:{port}"]
        ) == 2
        assert "cannot build the shard topology" in capsys.readouterr().err

    def test_query_malformed_shards_spec_rejected(self, capsys):
        assert main(
            ["query", "football", "0", "1", "--shards", "nonsense:"]
        ) == 2
        assert "shard spec" in capsys.readouterr().err

    def test_query_batch_json_file(self, tmp_path, capsys):
        batch = tmp_path / "queries.json"
        batch.write_text('[[0, 1], [2, 3]]')
        assert main(["query", "football", "--batch", str(batch)]) == 0
        assert capsys.readouterr().out.count("ws-q:") == 2

    def test_query_batch_flat_json_list_is_one_query(self, tmp_path, capsys):
        """`[1, 2]` is the obvious way to write one query; it must parse as
        one query, not crash with a TypeError."""
        batch = tmp_path / "flat.json"
        batch.write_text("[0, 1, 2]")
        assert main(["query", "football", "--batch", str(batch)]) == 0
        assert capsys.readouterr().out.count("ws-q:") == 1

    def test_query_batch_malformed_json_reports_cleanly(self, tmp_path, capsys):
        batch = tmp_path / "bad.json"
        batch.write_text('{"queries": 7}')
        assert main(["query", "football", "--batch", str(batch)]) == 2
        assert "cannot read batch file" in capsys.readouterr().err

    def test_query_batch_missing_file(self, tmp_path, capsys):
        assert main(
            ["query", "football", "--batch", str(tmp_path / "nope.txt")]
        ) == 2
        assert "cannot read batch file" in capsys.readouterr().err

    def test_query_json_output(self, capsys):
        import json

        assert main(["query", "football", "0", "1", "2", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["dataset"] == "football"
        assert document["method"] == "ws-q"
        [entry] = document["results"]
        assert entry["query"] == [0, 1, 2]
        assert set(entry["query"]) <= set(entry["nodes"])
        assert entry["wiener_index"] == pytest.approx(entry["wiener_index"])
        assert "backend" not in entry["metadata"]

    def test_query_batch_matches_one_shot(self, tmp_path, capsys):
        """The served batch must return exactly the one-shot connectors."""
        import json

        from repro.core.wiener_steiner import wiener_steiner
        from repro.datasets import load_dataset

        batch = tmp_path / "queries.json"
        queries = [[0, 5, 9], [1, 2], [0, 5, 9]]
        batch.write_text(json.dumps(queries))
        assert main(
            ["query", "football", "--batch", str(batch), "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        graph = load_dataset("football")
        for query, entry in zip(queries, document["results"]):
            expected = wiener_steiner(graph, query)
            assert entry["nodes"] == sorted(expected.nodes)

    def test_query_sharded_batch_matches_unsharded(self, tmp_path, capsys):
        """--shards N must be an invisible deployment knob: same JSON
        connectors, shard-routing metadata aside."""
        import json

        batch = tmp_path / "queries.json"
        batch.write_text(json.dumps([[0, 5, 9], [1, 2], [0, 5, 9]]))
        assert main(["query", "football", "--batch", str(batch), "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(
            ["query", "football", "--batch", str(batch), "--json",
             "--shards", "2"]
        ) == 0
        sharded = json.loads(capsys.readouterr().out)
        for a, b in zip(plain["results"], sharded["results"]):
            assert a["nodes"] == b["nodes"]
            assert a["metadata"]["root"] == b["metadata"]["root"]
        assert all(e["metadata"]["sharded"] for e in sharded["results"])
        assert all(e["metadata"]["shards"] == 2 for e in sharded["results"])

    def test_query_negative_shards_rejected(self, capsys):
        assert main(["query", "football", "0", "1", "--shards", "-2"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_rejects_bad_tunables(self, capsys):
        assert main(["serve", "football", "--shards", "-1"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(["serve", "football", "--port", "-5"]) == 2
        assert "--port" in capsys.readouterr().err
        assert main(["serve", "football", "--port", "70000"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_serve_reports_bind_failure_cleanly(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            assert main(["serve", "football", "--port", str(port)]) == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()
        # Tunable rules live in the AsyncGateway constructor (one source
        # of truth); the CLI relays its message with exit 2.
        assert main(["serve", "football", "--max-batch", "0"]) == 2
        assert "max_batch" in capsys.readouterr().err
        assert main(["serve", "football", "--max-wait-ms", "-1"]) == 2
        assert "max_wait_ms" in capsys.readouterr().err
        assert main(["serve", "football", "--max-queue", "0"]) == 2
        assert "max_queue" in capsys.readouterr().err

    def test_query_json_matches_server_document_shape(self, capsys):
        """The CLI --json per-result documents are the server's payloads."""
        import json

        from repro.core.wiener_steiner import wiener_steiner
        from repro.datasets import load_dataset
        from repro.serving.protocol import result_to_payload

        assert main(["query", "football", "0", "1", "2", "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)["results"]
        reference = result_to_payload(
            wiener_steiner(load_dataset("football"), [0, 1, 2])
        )
        reference["metadata"].pop("runtime_seconds", None)
        entry["metadata"].pop("runtime_seconds", None)
        assert entry == reference

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
