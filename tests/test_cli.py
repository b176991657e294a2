"""Tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import argparse
import json
import os

import pytest

from repro.cli import main, parse_matrix_text, trace_main
from repro.errors import InvalidEnsembleError
from repro.obs.export import read_trace_jsonl


class TestParsing:
    def test_parse_whitespace_and_commas(self):
        text = "1 0 1\n0,1,0\n"
        assert parse_matrix_text(text) == [[1, 0, 1], [0, 1, 0]]

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n1 0  # trailing\n0 1\n"
        assert parse_matrix_text(text) == [[1, 0], [0, 1]]

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidEnsembleError):
            parse_matrix_text("1 2\n")

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidEnsembleError):
            parse_matrix_text("1 0\n1\n")

    def test_rejects_empty_input(self):
        with pytest.raises(InvalidEnsembleError):
            parse_matrix_text("# nothing\n")


class TestBadInput:
    """Unusable input exits 2 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "mode", [[], ["batch"], ["certify"], ["serve"], ["trace"]]
    )
    def test_missing_file_exits_2(self, tmp_path, capsys, mode):
        missing = str(tmp_path / "absent.csv")
        assert main(mode + [missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("repro: error: ") and "absent.csv" in line

    @pytest.mark.parametrize("mode", [[], ["batch"], ["certify"], ["trace"]])
    def test_malformed_matrix_exits_2(self, tmp_path, capsys, mode):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n")
        assert main(mode + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "0 or 1" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[[true, false], [1, 0]]", "0 or 1"),
            ("[[1.0, 0], [1, 1]]", "0 or 1"),
        ],
    )
    def test_serve_rejects_non_int_entries(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        assert main(["serve", str(path), "--processes", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (error,) = captured.err.strip().splitlines()
        assert error.startswith("repro: error: line 1") and message in error

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--demo", "--parallel", "0"], "--parallel must be >= 1"),
            (["serve", "-", "--max-inflight", "0"], "--max-inflight must be >= 1"),
        ],
    )
    def test_worker_counts_below_one_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_lint_unwritable_baseline_exits_2(self, tmp_path, capsys):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        baseline = tmp_path / "absent" / "b.json"
        argv = ["lint", "--update-baseline", "--baseline", str(baseline)]
        assert main(argv + [str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("repro: error: ") and "b.json" in line

    @pytest.mark.parametrize(
        "line",
        ['{"op": "open", "n": true}', '{"op": "add", "column": [0, true]}'],
    )
    def test_delta_parser_rejects_non_int_values(self, line):
        from repro.cli import parse_delta_line

        with pytest.raises(InvalidEnsembleError, match="line 4"):
            parse_delta_line(line, 4)


STORE, TRUE = "_StoreAction", "_StoreTrueAction"
DEMO = (("--demo",), "demo", False, None, None, 0, None, TRUE)
COLUMNS = (("--columns",), "columns", False, None, None, 0, None, TRUE)
CIRCULAR = (("--circular",), "circular", False, None, None, 0, None, TRUE)
ENGINE = (("--engine",), "engine", None, None, ("spqr", "splitpair"), None, None, STORE)
CERTIFY = (("--certify",), "certify", False, None, None, 0, None, TRUE)
TRACE = (("--trace",), "trace", None, None, None, None, "FILE", STORE)
JSON = (("--json",), "json", None, None, None, None, "PATH", STORE)
QUIET = (("--quiet",), "quiet", False, None, None, 0, None, TRUE)

#: every mode's arguments in parser order, ``--help`` aside: (option
#: strings, dest, default, type, choices, nargs, metavar, action class).
MODE_FLAGS = {
    "": [
        ((), "matrix", None, None, None, "?", None, STORE),
        DEMO, COLUMNS, CIRCULAR, ENGINE, CERTIFY,
        (("--parallel",), "parallel", None, int, None, None, "N", STORE),
        TRACE, QUIET,
    ],
    "batch": [
        ((), "matrices", None, None, None, "+", None, STORE),
        (("--processes",), "processes", None, int, None, None, "N", STORE),
        COLUMNS, CIRCULAR, ENGINE, CERTIFY, QUIET, JSON, TRACE,
    ],
    "certify": [
        ((), "matrix", None, None, None, None, None, STORE),
        COLUMNS, CIRCULAR, ENGINE, JSON, QUIET,
    ],
    "serve": [
        ((), "input", None, None, None, None, None, STORE),
        (("--processes",), "processes", 0, int, None, None, "N", STORE),
        COLUMNS, CIRCULAR,
        (("--kernel",), "kernel", "indexed", None, ("indexed", "reference"),
         None, None, STORE),
        ENGINE, CERTIFY,
        (("--unordered",), "unordered", False, None, None, 0, None, TRUE),
        (("--max-inflight",), "max_inflight", None, int, None, None, "N", STORE),
        QUIET, TRACE,
        (("--cache",), "cache", 0, int, None, None, "N", STORE),
        (("--incremental",), "incremental", False, None, None, 0, None, TRUE),
    ],
    "trace": [
        ((), "matrix", None, None, None, "?", None, STORE),
        DEMO, CIRCULAR, ENGINE,
        (("--parallel",), "parallel", 2, int, None, None, "N", STORE),
        (("--pool",), "pool", 2, int, None, None, "N", STORE),
        (("--out",), "out", "trace.jsonl", None, None, None, "FILE", STORE),
        (("--chrome",), "chrome", None, None, None, None, "FILE", STORE),
        (("--metrics",), "metrics", None, None, None, None, "FILE", STORE),
        (("--calibration",), "calibration", None, None, None, None, "FILE", STORE),
        QUIET,
    ],
    "lint": [
        ((), "root", ".", None, None, "?", None, STORE),
        (("--rules",), "rules", None, None, None, None, "RULE[,RULE...]", STORE),
        (("--baseline",), "baseline", None, None, None, None, "PATH", STORE),
        (("--update-baseline",), "update_baseline", False, None, None, 0, None, TRUE),
        (("--format",), "format", "text", None, ("text", "json", "github"),
         None, None, STORE),
        (("--strict",), "strict", False, None, None, 0, None, TRUE),
    ],
}


class TestFlagSurface:
    """Each mode's parser takes exactly its own flags, no more, no fewer."""

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_mode_flag_set(self, monkeypatch, mode):
        class Parsed(Exception):
            pass

        def capture(parser, args=None, namespace=None):
            raise Parsed(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(Parsed) as excinfo:
            main([mode] if mode else [])
        parser = excinfo.value.args[0]
        assert [
            (
                tuple(action.option_strings), action.dest, action.default,
                action.type, action.choices, action.nargs, action.metavar,
                type(action).__name__,
            )
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ] == MODE_FLAGS[mode]


class TestTrace:
    def test_demo_writes_artifacts_with_worker_spans(self, tmp_path, capsys):
        paths = {flag: tmp_path / f"{flag}.json" for flag in (
            "out", "chrome", "metrics", "calibration")}
        argv = ["--demo", "--quiet"]
        for flag, path in paths.items():
            argv += [f"--{flag}", str(path)]
        assert trace_main(argv) == 0
        assert capsys.readouterr().out.split() == [str(p) for p in paths.values()]
        assert all(path.stat().st_size > 0 for path in paths.values())
        worker_spans = [
            record
            for record in read_trace_jsonl(str(paths["out"]))
            if record["name"] == "worker.serve.task"
        ]
        assert {r["name"] for r in worker_spans} == {"worker.serve.task"}
        pids = {r["pid"] for r in worker_spans}
        assert os.getpid() not in pids and len(pids) >= 2
        # both legs spawn a pool, and each spawn is one pool.spawn span
        rows = json.loads(paths["calibration"].read_text())["rows"]
        assert {r["term"]: r["spans"] for r in rows}["pool_startup_work"] == 2


class TestServeIncremental:
    """``repro serve --incremental``: JSON-line deltas through one session."""

    def _run(self, tmp_path, deltas):
        import json

        path = tmp_path / "deltas.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in deltas))
        return main(["serve", str(path), "--incremental", "--processes", "1", "--quiet"])

    def test_valid_session(self, tmp_path, capsys):
        import json

        deltas = [
            {"op": "open", "n": 3},
            {"op": "add", "column": [0, 1]},
            {"op": "add", "column": [1, 2]},
            {"op": "remove", "column": [0, 1]},
        ]
        assert self._run(tmp_path, deltas) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["split"] for r in records] == ["delta"] * 4
        assert [r["num_columns"] for r in records] == [0, 1, 2, 1]
        assert all(r["ok"] for r in records)
        order = records[2]["order"]
        assert abs(order.index(0) - order.index(1)) == 1
        assert abs(order.index(1) - order.index(2)) == 1
        assert captured.err == ""

    @pytest.mark.parametrize(
        "deltas, message",
        [
            ([{"op": "add", "column": [0, 1]}], "must start with"),
            ([{"op": "open", "n": 3}, {"op": "open", "n": 3}], "exactly one session"),
            (
                [{"op": "open", "n": 3}, {"op": "add", "column": [0, 7]}],
                "outside the session",
            ),
        ],
    )
    def test_malformed_stream_exits_2(self, tmp_path, capsys, deltas, message):
        assert self._run(tmp_path, deltas) == 2
        (error,) = capsys.readouterr().err.strip().splitlines()
        assert error.startswith("repro: error: ") and message in error


class TestMain:
    def test_demo_runs_and_reports_an_order(self, capsys):
        assert main(["--demo"]) == 0
        out = capsys.readouterr().out
        assert "consecutive-ones property" in out
        assert "row order:" in out

    def test_quiet_mode_prints_only_the_order(self, capsys):
        assert main(["--demo", "--quiet"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert len(out[0].split()) == 5

    def test_file_input_and_column_mode(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1 0\n0 1 1\n")
        assert main([str(path), "--columns"]) == 0
        assert "column order" in capsys.readouterr().out

    def test_negative_instance_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        # the triangle configuration: pairwise adjacency is impossible on a path
        path.write_text("1 1 0\n0 1 1\n1 0 1\n")
        assert main([str(path), "--columns"]) == 1
        assert "NOT" in capsys.readouterr().out

    def test_circular_mode_accepts_the_triangle(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1 0\n0 1 1\n1 0 1\n")
        assert main([str(path), "--columns", "--circular"]) == 0
        assert "circular-ones" in capsys.readouterr().out

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n1 1\n"))
        assert main(["-", "--quiet"]) == 0
        assert capsys.readouterr().out.strip()


class TestBatchSubcommand:
    GOOD = "0 1 1 0 0\n1 1 0 0 0\n0 0 1 1 0\n1 0 0 0 0\n0 0 0 1 1\n"
    BAD = "1 1 0\n0 1 1\n1 0 1\n"

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_batch_solves_multiple_files(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.txt", self.GOOD)
        b = self._write(tmp_path, "b.txt", self.GOOD)
        assert main(["batch", a, b]) == 0
        out = capsys.readouterr().out
        assert out.count("YES") == 2
        assert "instances/sec" in out

    def test_batch_reports_negative_instances(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.txt", self.GOOD)
        b = self._write(tmp_path, "b.txt", self.BAD)
        assert main(["batch", a, b]) == 1
        out = capsys.readouterr().out
        assert "YES" in out and "NO" in out
        assert "1 with the property" in out

    def test_batch_json_record(self, tmp_path, capsys):
        import json

        a = self._write(tmp_path, "a.txt", self.GOOD)
        report = tmp_path / "report.json"
        assert main(["batch", a, "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["instances"][0]["ok"] is True
        assert payload["instances"][0]["path"] == a
        assert payload["instances_per_second"] > 0

    def test_batch_quiet_omits_summary(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.txt", self.GOOD)
        assert main(["batch", a, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "instances/sec" not in out

    def test_batch_with_process_pool(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.txt", self.GOOD)
        b = self._write(tmp_path, "b.txt", self.GOOD)
        assert main(["batch", a, b, "--processes", "2"]) == 0
        assert capsys.readouterr().out.count("YES") == 2

    def test_batch_rejects_negative_processes(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.txt", self.GOOD)
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", a, "--processes", "-2"])
        assert excinfo.value.code == 2
        assert "--processes must be >= 0" in capsys.readouterr().err


class TestEngineFlag:
    def test_engine_flag_accepted(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1 0\n0 1 1\n")
        for engine in ("spqr", "splitpair"):
            assert main([str(path), "--quiet", "--engine", engine]) == 0
            assert capsys.readouterr().out.strip()

    def test_unknown_engine_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1 0\n0 1 1\n")
        with pytest.raises(SystemExit):
            main([str(path), "--engine", "hopcroft"])

    def test_batch_engine_flag_and_json(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("1 1 0\n0 1 1\n")
        record = tmp_path / "out.json"
        assert main(
            ["batch", str(path), "--engine", "splitpair", "--json", str(record)]
        ) == 0
        capsys.readouterr()
        import json

        payload = json.loads(record.read_text())
        assert payload["engine"] == "splitpair"


class TestServeSubcommand:
    GOOD = [[0, 1, 1, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 1]]
    BAD = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]

    def _write_jsonl(self, tmp_path, lines):
        import json

        path = tmp_path / "instances.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return str(path)

    def test_serve_emits_one_json_line_per_instance(self, tmp_path, capsys):
        import json

        path = self._write_jsonl(
            tmp_path, [self.GOOD, {"id": "bad-one", "matrix": self.BAD}]
        )
        assert main(["serve", path, "--processes", "1", "--quiet"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["index"] for r in records] == [0, 1]
        assert records[0]["ok"] is True and records[0]["id"] is None
        assert records[1]["ok"] is False and records[1]["id"] == "bad-one"

    def test_serve_matches_batch_results(self, tmp_path, capsys):
        import json

        from repro.batch import solve_many
        from repro.matrix import BinaryMatrix

        matrices = [self.GOOD, self.BAD, self.GOOD]
        path = self._write_jsonl(tmp_path, matrices)
        main(["serve", path, "--processes", "1", "--certify", "--quiet"])
        records = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        expected = solve_many(
            [BinaryMatrix(m).row_ensemble() for m in matrices], certify=True
        )
        for record, result in zip(records, expected):
            assert record["status"] == result.status
            assert record["certificate"] == json.loads(
                json.dumps(result.certificate.to_json(), default=str)
            )

    def test_serve_cache_matches_serial_cache(self, tmp_path, capsys):
        import json
        import random
        import re

        from repro.batch import solve_many
        from repro.incremental import ResultCache
        from repro.matrix import BinaryMatrix

        rng = random.Random(5)

        def relabeled(matrix):
            rows = rng.sample(matrix, len(matrix))
            perm = rng.sample(range(len(matrix[0])), len(matrix[0]))
            return [[row[j] for j in perm] for row in rows]

        matrices = []
        for base in (self.GOOD, self.BAD):
            matrices += [base, relabeled(base), relabeled(base)]
        duplicates = len(matrices) - 2
        lines = [{"id": f"m{i}", "matrix": m} for i, m in enumerate(matrices)]
        path = self._write_jsonl(tmp_path, lines)
        assert main(["serve", path, "--cache", "8", "--processes", "1", "--certify"]) == 1
        captured = capsys.readouterr()
        expected = solve_many(
            [BinaryMatrix(m).row_ensemble() for m in matrices],
            certify=True,
            cache=ResultCache(8),
        )
        assert captured.out.splitlines() == [
            json.dumps(dict(r.summary(), id=f"m{r.index}"), default=str)
            for r in expected
        ]
        stats = re.search(r"cache: (\d+) hits, \d+ misses \((\d+) coalesced", captured.err)
        assert int(stats.group(1)) + int(stats.group(2)) == duplicates

    def test_serve_stdin_and_unordered(self, monkeypatch, capsys):
        import io
        import json

        payload = "\n".join(json.dumps(self.GOOD) for _ in range(5))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["serve", "-", "--processes", "2", "--unordered", "--quiet"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert sorted(r["index"] for r in records) == list(range(5))

    def test_serve_reports_throughput_on_stderr(self, tmp_path, capsys):
        path = self._write_jsonl(tmp_path, [self.GOOD])
        assert main(["serve", path, "--processes", "1"]) == 0
        err = capsys.readouterr().err
        assert "instances/sec" in err

    def test_serve_rejects_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        for text, message in [
            ("not json at all\n", "line 1"),
            ('{"no_matrix": 1}\n', "matrix"),
            ("[[1, 2]]\n", "0 or 1"),
            ("[[1], [1, 0]]\n", "same length"),
        ]:
            path.write_text(text)
            assert main(["serve", str(path), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: error: ") and message in err

    def test_serve_comments_and_blank_lines_ignored(self, tmp_path, capsys):
        import json

        path = tmp_path / "instances.jsonl"
        path.write_text("# header\n\n" + json.dumps(self.GOOD) + "\n")
        assert main(["serve", str(path), "--processes", "1", "--quiet"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_serve_columns_flag(self, tmp_path, capsys):
        import json

        # The triangle is non-C1P on columns but its rows are fine.
        path = self._write_jsonl(tmp_path, [self.BAD])
        assert main(["serve", path, "--columns", "--quiet"]) == 1
        record = json.loads(capsys.readouterr().out.strip())
        assert record["ok"] is False
