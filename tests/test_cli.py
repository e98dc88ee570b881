"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.cli import build_parser, main
from repro.graph import Graph, write_edge_list


@pytest.fixture
def edge_list_file(tmp_path):
    path = tmp_path / "toy.edges"
    graph = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["graph.txt"])
        assert args.h == 2
        assert args.algorithm == "auto"
        assert not args.summary

    def test_algorithm_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph.txt", "--algorithm", "magic"])


class TestMain:
    def test_prints_core_indices(self, edge_list_file, capsys):
        exit_code = main([str(edge_list_file), "--h", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert len(lines) == 6  # one per vertex
        assert all(len(line.split()) == 2 for line in lines)

    def test_summary_mode(self, edge_list_file, capsys):
        exit_code = main([str(edge_list_file), "--h", "2", "--summary"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "core 0" in out or "core 1" in out or "core 2" in out

    def test_output_file(self, edge_list_file, tmp_path, capsys):
        target = tmp_path / "cores.txt"
        exit_code = main([str(edge_list_file), "--output", str(target)])
        assert exit_code == 0
        assert target.exists()
        assert len(target.read_text().strip().splitlines()) == 6

    def test_demo_mode(self, capsys):
        exit_code = main(["--demo", "--h", "2", "--summary"])
        assert exit_code == 0

    def test_explicit_algorithm(self, edge_list_file, capsys):
        exit_code = main([str(edge_list_file), "--algorithm", "h-LB+UB", "--h", "3"])
        assert exit_code == 0

    def test_missing_input_is_an_error(self, capsys):
        exit_code = main([])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_matches_library_result(self, edge_list_file, capsys):
        from repro.core import core_decomposition
        from repro.graph import read_edge_list
        main([str(edge_list_file), "--h", "2"])
        out = capsys.readouterr().out
        cli_cores = {}
        for line in out.strip().splitlines():
            vertex, core = line.split()
            cli_cores[int(vertex)] = int(core)
        expected = core_decomposition(read_edge_list(edge_list_file), 2).core_index
        assert cli_cores == expected


class TestExecutorFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["graph.txt"])
        assert args.executor == "thread"
        assert args.workers is None
        assert not hasattr(args, "threads")

    def test_executor_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph.txt", "--executor", "gpu"])

    def test_process_executor_matches_serial(self, edge_list_file, capsys):
        main([str(edge_list_file), "--h", "2"])
        serial_out = capsys.readouterr().out
        exit_code = main([str(edge_list_file), "--h", "2", "--workers", "2",
                          "--executor", "process"])
        assert exit_code == 0
        assert capsys.readouterr().out == serial_out

    def test_demo_process_smoke(self, capsys):
        exit_code = main(["--demo", "--h", "2", "--workers", "2",
                          "--executor", "process", "--summary"])
        assert exit_code == 0
        assert "core" in capsys.readouterr().out

    def test_verbose_reports_executor(self, edge_list_file, capsys):
        exit_code = main([str(edge_list_file), "--h", "2", "--verbose",
                          "--workers", "3", "--executor", "serial"])
        assert exit_code == 0
        assert "# executor: serial, workers: 3" in capsys.readouterr().err

    def test_workers_flag_sets_thread_worker_count(self, edge_list_file,
                                                   capsys):
        exit_code = main([str(edge_list_file), "--h", "2", "--verbose",
                          "--workers", "2"])
        assert exit_code == 0
        assert "# executor: thread, workers: 2" in capsys.readouterr().err


class TestVerboseBackend:
    def test_verbose_surfaces_resolved_backend(self, edge_list_file, capsys):
        exit_code = main([str(edge_list_file), "--h", "2", "--verbose"])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "# backend: csr (requested: auto)" in err

    def test_csr_threshold_flag_is_a_usage_error(self, capsys):
        # --csr-threshold was removed in 0.13.0: argparse rejects it.
        with pytest.raises(SystemExit) as excinfo:
            main(["--demo", "--h", "2", "--csr-threshold", "5"])
        assert excinfo.value.code == 2
        assert "--csr-threshold" in capsys.readouterr().err

    def test_h1_runs_classic_on_dict_without_an_engine(self, capsys,
                                                        monkeypatch):
        from repro.graph.csr import CSRGraph

        builds = []
        original = CSRGraph.from_graph.__func__
        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(
            lambda cls, *a, **k: builds.append(1) or original(cls, *a, **k)))
        assert main(["--demo", "--h", "1", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert "# algorithm: classic-BZ" in err
        assert "# backend: dict (requested: auto)" in err
        assert "# executor: serial, workers: 1" in err
        assert builds == []

    def test_quiet_by_default(self, edge_list_file, capsys):
        main([str(edge_list_file), "--h", "2"])
        assert "# backend" not in capsys.readouterr().err


class TestStreamSubcommand:
    @pytest.fixture
    def update_file(self, tmp_path):
        path = tmp_path / "updates.txt"
        path.write_text("# toy stream\n+ 0 3\n- 3 4\n+ 1 4\n")
        return path

    def test_replay_matches_from_scratch(self, edge_list_file, update_file,
                                         capsys):
        from repro.core import core_decomposition
        from repro.graph import read_edge_list

        exit_code = main(["stream", str(update_file),
                          "--graph", str(edge_list_file), "--h", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        got = {int(line.split()[0]): int(line.split()[1])
               for line in out.strip().splitlines()}
        graph = read_edge_list(edge_list_file)
        graph.add_edge(0, 3)
        graph.remove_edge(3, 4)
        graph.add_edge(1, 4)
        assert got == core_decomposition(graph, 2).core_index

    def test_summary_and_stats(self, edge_list_file, update_file, capsys):
        exit_code = main(["stream", str(update_file),
                          "--graph", str(edge_list_file), "--summary"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "replayed 3 updates" in captured.err
        assert "core" in captured.out

    def test_verbose_reports_batches_and_backend(self, edge_list_file,
                                                 update_file, capsys):
        exit_code = main(["stream", str(update_file),
                          "--graph", str(edge_list_file),
                          "--batch-size", "2", "--verbose"])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "# backend:" in err
        assert "# batch 0:" in err
        assert "# batch 1:" in err

    def test_output_file(self, edge_list_file, update_file, tmp_path, capsys):
        target = tmp_path / "cores.txt"
        exit_code = main(["stream", str(update_file),
                          "--graph", str(edge_list_file),
                          "--output", str(target)])
        assert exit_code == 0
        assert len(target.read_text().strip().splitlines()) == 6

    def test_empty_start_graph_delete_errors_cleanly(self, update_file,
                                                     capsys):
        exit_code = main(["stream", str(update_file)])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_update_file_errors_cleanly(self, tmp_path, capsys):
        exit_code = main(["stream", str(tmp_path / "nope.txt")])
        assert exit_code == 2

    def test_malformed_stream_errors_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("+ 1\n")
        exit_code = main(["stream", str(bad)])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_fallback_ratio_forwarded(self, edge_list_file, update_file,
                                      capsys):
        exit_code = main(["stream", str(update_file),
                          "--graph", str(edge_list_file),
                          "--fallback-ratio", "0.0", "--verbose"])
        assert exit_code == 0
        assert "mode=full" in capsys.readouterr().err


class TestNumpyBackendFlags:
    """--backend numpy and --relabel (PR 5)."""

    def test_relabel_choices(self):
        args = build_parser().parse_args(["g.txt", "--relabel", "degree"])
        assert args.relabel == "degree"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["g.txt", "--relabel", "random"])

    def test_backend_numpy_accepted_by_parser(self):
        args = build_parser().parse_args(["g.txt", "--backend", "numpy"])
        assert args.backend == "numpy"

    def test_relabel_does_not_change_output(self, edge_list_file, capsys):
        assert main([str(edge_list_file), "--h", "2"]) == 0
        plain = capsys.readouterr().out
        assert main([str(edge_list_file), "--h", "2",
                     "--relabel", "bfs"]) == 0
        assert capsys.readouterr().out == plain

    def test_numpy_backend_runs_or_fails_cleanly(self, edge_list_file,
                                                 capsys):
        from repro.core.backends import numpy_available

        exit_code = main([str(edge_list_file), "--h", "2", "--backend",
                          "numpy", "--verbose"])
        out = capsys.readouterr()
        if numpy_available():
            assert exit_code == 0
            assert "# backend: numpy (requested: numpy)" in out.err
        else:
            # A clear one-line error, not a traceback — naming either the
            # missing optional dependency or the kill switch, whichever is
            # the actual cause.
            assert exit_code == 2
            assert ("optional NumPy" in out.err
                    or "KH_CORE_DISABLE_NUMPY" in out.err)

    def test_auto_prefers_numpy_over_threshold(self, edge_list_file,
                                               capsys, monkeypatch):
        from repro.core.backends import numpy_available

        if not numpy_available():
            pytest.skip("NumPy not installed")
        from repro.core import backends

        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 0)
        assert main([str(edge_list_file), "--h", "2", "--verbose"]) == 0
        assert "# backend: numpy (requested: auto)" in capsys.readouterr().err

    def test_stream_accepts_relabel(self, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 1\n+ 1 2\n+ 2 0\n")
        from repro.cli import stream_main

        assert stream_main([str(updates), "--h", "2",
                            "--relabel", "degree", "--summary"]) == 0
        assert "core" in capsys.readouterr().out


class TestIndexSubcommand:
    @pytest.fixture
    def built_index(self, edge_list_file, tmp_path):
        db = tmp_path / "toy.khidx"
        assert main(["index", "build", str(edge_list_file),
                     "--db", str(db), "--h-values", "1,2"]) == 0
        return db

    def run_json(self, argv, capsys):
        import json

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_build_reports_and_creates_file(self, edge_list_file, tmp_path,
                                            capsys):
        db = tmp_path / "toy.khidx"
        report = self.run_json(["index", "build", str(edge_list_file),
                                "--db", str(db), "--h-values", "1,2"],
                               capsys)
        assert db.exists()
        assert report["h_values"] == [1, 2]
        assert report["num_vertices"] == 6
        assert report["epoch"] == 1

    def test_build_refuses_overwrite_without_force(self, built_index,
                                                   edge_list_file, capsys):
        assert main(["index", "build", str(edge_list_file),
                     "--db", str(built_index)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(["index", "build", str(edge_list_file),
                     "--db", str(built_index), "--force"]) == 0

    def test_query_core_number_matches_decompose(self, built_index,
                                                 edge_list_file, capsys):
        from repro.core import core_decomposition
        from repro.graph import read_edge_list

        expected = core_decomposition(read_edge_list(edge_list_file),
                                      2).core_index
        out = self.run_json(["index", "query", str(built_index),
                             "core-number", "--v", "2", "--h", "2"], capsys)
        assert out["core"] == expected[2]

    def test_query_spectrum_threshold_core_sizes(self, built_index, capsys):
        spectrum = self.run_json(["index", "query", str(built_index),
                                  "spectrum", "--v", "0"], capsys)
        assert set(spectrum["spectrum"]) == {"1", "2"}
        threshold = self.run_json(["index", "query", str(built_index),
                                   "threshold", "--v", "0", "--k", "1"],
                                  capsys)
        assert threshold["min_h"] == 1
        core = self.run_json(["index", "query", str(built_index), "core",
                              "--k", "1", "--h", "2"], capsys)
        assert core["size"] == len(core["members"]) > 0
        sizes = self.run_json(["index", "query", str(built_index), "sizes",
                               "--h", "1"], capsys)
        assert sizes["degeneracy"] >= 1

    def test_query_missing_required_flag_errors(self, built_index, capsys):
        assert main(["index", "query", str(built_index),
                     "core-number", "--v", "2"]) == 2
        assert "requires --h" in capsys.readouterr().err

    def test_refresh_then_query_and_stats(self, built_index, tmp_path,
                                          capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 4\n+ 1 5\n")
        # staleness-ratio 1.0 keeps the toy store on the incremental path,
        # so the delta log survives and the diff below can span all epochs.
        summaries = self.run_json(["index", "refresh", str(built_index),
                                   str(updates), "--batch-size", "1",
                                   "--staleness-ratio", "1.0"],
                                  capsys)
        assert len(summaries) == 2
        assert all(s["mode"] in ("incremental", "noop") for s in summaries)
        stats = self.run_json(["index", "stats", str(built_index),
                               "--verify"], capsys)
        assert stats["current_epoch"] == 3
        assert stats["status"] == "complete"
        diff = self.run_json(["index", "query", str(built_index), "diff",
                              "--from", "1"], capsys)
        assert diff["to"] == 3

    def test_stale_order_errors_cleanly(self, built_index, tmp_path,
                                        capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 4\n")
        assert main(["index", "refresh", str(built_index),
                     str(updates)]) == 0
        capsys.readouterr()
        assert main(["index", "query", str(built_index), "order",
                     "--h", "1"]) == 2
        assert "rebuild" in capsys.readouterr().err

    def test_corrupt_db_errors_cleanly(self, tmp_path, capsys):
        junk = tmp_path / "junk.khidx"
        junk.write_text("not a database")
        assert main(["index", "stats", str(junk)]) == 2
        assert "error:" in capsys.readouterr().err


class TestDatasetsSubcommand:
    def test_list_names(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("coli", "jazz", "lj"):
            assert name in out

    def test_export_roundtrip_and_determinism(self, tmp_path, capsys):
        from repro.graph import read_edge_list

        first = tmp_path / "a.edges"
        second = tmp_path / "b.edges"
        assert main(["datasets", "export", "jazz", str(first),
                     "--scale", "tiny"]) == 0
        assert main(["datasets", "export", "jazz", str(second),
                     "--scale", "tiny"]) == 0
        assert first.read_bytes() == second.read_bytes()
        graph = read_edge_list(first)
        assert "40 vertices" in capsys.readouterr().err
        assert graph.num_vertices == 40

    def test_export_unknown_dataset_errors(self, tmp_path, capsys):
        assert main(["datasets", "export", "wikipedia",
                     str(tmp_path / "x.edges")]) == 2
        assert "error:" in capsys.readouterr().err


class TestLoadCommand:
    def test_load_writes_block_file(self, edge_list_file, tmp_path, capsys):
        out = tmp_path / "toy.khcsr"
        assert main(["load", str(edge_list_file), "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().err

    def test_load_json_reports_stats_and_rss(self, edge_list_file, tmp_path,
                                             capsys):
        import json

        out = tmp_path / "toy.khcsr"
        assert main(["load", str(edge_list_file), "--out", str(out),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["vertices"] == 6
        assert stats["edges"] == 7
        assert stats["max_rss_kb"] > 0
        assert stats["out"] == str(out)

    def test_load_default_out_path(self, edge_list_file, capsys):
        assert main(["load", str(edge_list_file)]) == 0
        assert (edge_list_file.parent / "toy.edges.khcsr").exists()

    def test_load_missing_input_errors_cleanly(self, tmp_path, capsys):
        assert main(["load", str(tmp_path / "none.edges")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_load_external_relabel_flag(self, edge_list_file, tmp_path,
                                        capsys):
        import json

        out = tmp_path / "toy.khcsr"
        assert main(["load", str(edge_list_file), "--out", str(out),
                     "--json", "--external-relabel"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["external_relabel"] is True


class TestBlockFileInput:
    @pytest.fixture
    def block_file(self, edge_list_file, tmp_path):
        out = tmp_path / "toy.khcsr"
        assert main(["load", str(edge_list_file), "--out", str(out)]) == 0
        return out

    def test_decompose_block_file_matches_edge_list(self, edge_list_file,
                                                    block_file, capsys):
        assert main([str(edge_list_file), "--h", "2"]) == 0
        from_edges = capsys.readouterr().out
        assert main([str(block_file), "--h", "2"]) == 0
        assert capsys.readouterr().out == from_edges

    def test_storage_mmap_flag_matches_default(self, edge_list_file, capsys):
        assert main([str(edge_list_file), "--h", "2"]) == 0
        baseline = capsys.readouterr().out
        assert main([str(edge_list_file), "--h", "2", "--storage", "mmap",
                     "--backend", "csr"]) == 0
        assert capsys.readouterr().out == baseline

    def test_stream_rejects_block_file(self, block_file, tmp_path, capsys):
        updates = tmp_path / "u.txt"
        updates.write_text("+ 0 5\n")
        assert main(["stream", str(updates), "--graph",
                     str(block_file)]) == 2
        assert "read-only" in capsys.readouterr().err

    def test_serve_rejects_block_file(self, block_file, capsys):
        assert main(["serve", str(block_file)]) == 2
        assert "read-only" in capsys.readouterr().err

    def test_index_build_accepts_block_file(self, block_file, tmp_path,
                                            capsys):
        db = tmp_path / "toy.khidx"
        assert main(["index", "build", str(block_file), "--db", str(db),
                     "--h-values", "1,2"]) == 0
        assert db.exists()
        assert main(["index", "query", str(db), "sizes", "--h", "2"]) == 0


class TestDatasetsFetchCommand:
    def test_fetch_prints_cached_path(self, tmp_path, capsys, monkeypatch):
        from repro.datasets import fetch as fetch_mod

        payload = tmp_path / "up.txt"
        payload.write_text("1 2\n2 3\n")
        monkeypatch.setitem(
            fetch_mod._REAL, "clitest",
            fetch_mod.RealDatasetSpec("clitest", payload.as_uri(), "local",
                                      "cli fixture", archive="plain"))
        assert main(["datasets", "fetch", "clitest", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("clitest.txt")
        assert open(printed).read() == "1 2\n2 3\n"

    def test_fetch_unknown_dataset_errors(self, tmp_path, capsys):
        assert main(["datasets", "fetch", "not-a-dataset", "--cache-dir",
                     str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_marks_real_datasets(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        assert "[real]" in out
        # coli has no public mirror and must stay unmarked.
        coli_line = next(line for line in out.splitlines()
                         if line.startswith("coli"))
        assert "[real]" not in coli_line
