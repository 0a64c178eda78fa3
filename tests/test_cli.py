"""Tests for the command-line interface."""

import io

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import powerlaw_cluster_graph, write_edgelist
from repro.graphs.operations import permute_graph


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestAlgorithmsCommand:
    def test_lists_all_nine(self):
        code, text = _run(["algorithms"])
        assert code == 0
        for name in ("isorank", "graal", "nsd", "lrea", "regal",
                     "gwl", "s-gwl", "cone", "grasp"):
            assert name in text


class TestDatasetsCommand:
    def test_lists_registry(self):
        code, text = _run(["datasets"])
        assert code == 0
        assert "arenas" in text and "n=1133" in text

    def test_with_scale_generates(self):
        code, text = _run(["datasets", "--scale", "0.05"])
        assert code == 0
        assert "stand-in" in text


class TestAlignCommand:
    @pytest.fixture
    def edge_files(self, tmp_path):
        graph = powerlaw_cluster_graph(40, 3, 0.3, seed=0)
        permuted = permute_graph(
            graph, np.random.default_rng(1).permutation(40)
        )
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        write_edgelist(graph, a)
        write_edgelist(permuted, b)
        return str(a), str(b)

    def test_align_to_stdout(self, edge_files):
        a, b = edge_files
        code, text = _run(["align", a, b, "--method", "isorank"])
        assert code == 0
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 40
        assert any(line.startswith("# isorank") for line in text.splitlines())

    def test_align_to_file(self, edge_files, tmp_path):
        a, b = edge_files
        out_file = tmp_path / "mapping.txt"
        code, text = _run(["align", a, b, "--method", "nsd",
                           "--output", str(out_file)])
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 40

    def test_unknown_method_rejected(self, edge_files):
        a, b = edge_files
        with pytest.raises(SystemExit):
            _run(["align", a, b, "--method", "alphafold"])


class TestExperimentCommand:
    def test_sweep_and_csv(self, tmp_path):
        csv_path = tmp_path / "records.csv"
        code, text = _run([
            "experiment", "--dataset", "ca-netscience",
            "--algorithms", "isorank", "nsd",
            "--levels", "0", "0.02", "--reps", "1",
            "--scale", "0.3", "--csv", str(csv_path),
        ])
        assert code == 0
        assert "isorank" in text and "nsd" in text
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "accuracy" in header

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            _run(["experiment", "--dataset", "nope",
                  "--algorithms", "isorank"])

    def test_journal_flag_resumes(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        argv = [
            "experiment", "--dataset", "ca-netscience",
            "--algorithms", "isorank",
            "--levels", "0", "--reps", "1", "--scale", "0.3",
            "--journal", str(journal),
        ]
        code, text = _run(argv)
        assert code == 0
        assert journal.exists()
        assert "journal" in text
        size_after_first = journal.stat().st_size
        # Rerunning the identical command replays from the journal and
        # appends nothing new.
        code, text = _run(argv)
        assert code == 0
        assert "isorank" in text
        assert journal.stat().st_size == size_after_first

    def test_memory_limit_without_timeout_is_a_valid_budget(self):
        """--memory-limit-mb alone builds a memory-only CellBudget: the
        cell still runs in a capped child, it just has no deadline."""
        code, text = _run([
            "experiment", "--dataset", "ca-netscience",
            "--algorithms", "isorank",
            "--levels", "0", "--reps", "1", "--scale", "0.3",
            "--memory-limit-mb", "2048",
        ])
        assert code == 0
        assert "isorank" in text
        assert "failed" in text and "0 failed" in text

    def test_cache_flag_matches_uncached_grid(self):
        """--cache is an execution knob: the printed measure grid is
        identical with and without it."""
        base = [
            "experiment", "--dataset", "ca-netscience",
            "--algorithms", "isorank", "nsd",
            "--levels", "0", "0.02", "--reps", "1", "--scale", "0.3",
        ]
        code, plain_text = _run(base)
        assert code == 0
        code, cached_text = _run(base + ["--cache"])
        assert code == 0
        grid = lambda text: [line for line in text.splitlines()
                             if line.lstrip().startswith(("isorank", "nsd"))]
        assert grid(cached_text) == grid(plain_text)
        assert grid(cached_text)

    def test_timeout_flag_runs_cells_in_children(self):
        code, text = _run([
            "experiment", "--dataset", "ca-netscience",
            "--algorithms", "isorank",
            "--levels", "0", "--reps", "1", "--scale", "0.3",
            "--timeout", "120", "--retries", "2",
        ])
        assert code == 0
        assert "isorank" in text

    def test_workers_flag_matches_serial_grid(self, tmp_path):
        """--workers N prints the same grid as a serial run and leaves a
        journal a serial rerun replays without executing anything."""
        journal = tmp_path / "par.jsonl"
        base = [
            "experiment", "--dataset", "ca-netscience",
            "--algorithms", "isorank", "nsd",
            "--levels", "0", "0.02", "--reps", "1", "--scale", "0.3",
        ]
        code, serial_text = _run(base)
        assert code == 0
        code, parallel_text = _run(base + ["--workers", "2",
                                           "--journal", str(journal)])
        assert code == 0
        grid = lambda text: [l for l in text.splitlines()
                             if "|" in l or "---" in l]
        assert grid(parallel_text) == grid(serial_text)
        size_after = journal.stat().st_size
        code, _ = _run(base + ["--journal", str(journal)])  # serial resume
        assert code == 0
        assert journal.stat().st_size == size_after

    def test_workers_flag_reports_recovery(self, tmp_path):
        """A --workers sweep keeps its recovery log next to --journal: the
        summary counts this run's events and --report renders them."""
        from repro.faults import FaultSpec, inject_fault

        journal, report = tmp_path / "J", tmp_path / "R.md"
        spec = FaultSpec(mode="kill_worker", on_call=None,
                         trigger_file=str(tmp_path / "killed-once"))
        with inject_fault("isorank", spec):
            code, text = _run([
                "experiment", "--dataset", "ca-netscience",
                "--algorithms", "isorank", "nsd",
                "--levels", "0", "0.02", "--reps", "1", "--scale", "0.3",
                "--workers", "2", "--journal", str(journal),
                "--report", str(report)])
        assert code == 0
        assert "recovery: 1 leases reclaimed, 1 workers respawned" in text
        assert "## recovery events" in report.read_text()
        assert "lease_reclaimed" in report.read_text()
        # Replaying the finished journal without the fault reclaims
        # nothing, so the old run's events must not be counted again.
        code, text = _run([
            "experiment", "--dataset", "ca-netscience",
            "--algorithms", "isorank", "nsd",
            "--levels", "0", "0.02", "--reps", "1", "--scale", "0.3",
            "--workers", "2", "--journal", str(journal),
            "--report", str(report)])
        assert code == 0
        assert "recovery: 0 leases reclaimed, 0 workers respawned" in text
        assert "lease_reclaimed" not in report.read_text()


class TestTuneCommand:
    def test_single_param_sweep(self):
        code, text = _run([
            "tune", "--dataset", "ca-netscience", "--method", "isorank",
            "--param", "alpha", "--values", "0.5", "0.9",
            "--copies", "1", "--scale", "0.3",
        ])
        assert code == 0
        assert "grid search: isorank" in text
        assert "<- best" in text

    def test_string_values_parsed(self):
        code, text = _run([
            "tune", "--dataset", "ca-netscience", "--method", "isorank",
            "--param", "prior", "--values", "degree", "uniform",
            "--copies", "1", "--scale", "0.3",
        ])
        assert code == 0
        assert "prior=degree" in text


class TestAlignRefine:
    def test_refine_flag(self, tmp_path):
        graph = powerlaw_cluster_graph(40, 3, 0.3, seed=2)
        permuted = permute_graph(
            graph, np.random.default_rng(3).permutation(40)
        )
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        write_edgelist(graph, a)
        write_edgelist(permuted, b)
        code, text = _run(["align", str(a), str(b), "--method", "nsd",
                           "--refine"])
        assert code == 0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--service-dir", "/s"])
        assert args.workers == 2 and args.max_depth == 256
        assert args.max_attempts == 3
        assert not args.drain_when_idle and not args.status

    def test_drain_when_idle_completes_batch(self, tmp_path):
        from repro.graphs.generators import erdos_renyi_graph
        from repro.noise import make_pair
        from repro.service import AlignmentRequest, AlignmentService

        service_dir = tmp_path / "svc"
        svc = AlignmentService(service_dir)
        pair = make_pair(erdos_renyi_graph(14, 0.3, seed=1),
                         "one-way", 0.1, seed=1)
        ticket = svc.submit_sync(AlignmentRequest(
            source=pair.source, target=pair.target, algorithm="isorank",
            seed=1, ground_truth=pair.ground_truth))
        svc.close()
        code, text = _run(["serve", "--service-dir", str(service_dir),
                           "--drain-when-idle", "--workers", "1"])
        assert code == 0
        assert "drained" in text
        check = AlignmentService(service_dir)
        assert check.status_sync(ticket.key).state == "done"
        check.close()

    def test_status_reports_health_and_counts(self, tmp_path):
        from repro.service import AlignmentService

        service_dir = tmp_path / "svc"
        svc = AlignmentService(service_dir)
        svc.write_heartbeat()
        svc.close()
        code, text = _run(["serve", "--service-dir", str(service_dir),
                           "--status"])
        assert code == 0
        assert "backlog" in text and "pending" in text

    def test_status_of_a_missing_directory_creates_nothing(self, tmp_path):
        missing = tmp_path / "typo"
        code, text = _run(["serve", "--service-dir", str(missing),
                           "--status"])
        assert code == 2
        assert str(missing) in text
        assert not missing.exists()


class TestCacheCommand:
    def _seed_cache(self, tmp_path):
        from repro.cache_disk import DiskArtifactCache

        disk = DiskArtifactCache(tmp_path / "cache")
        graph = powerlaw_cluster_graph(20, 2, 0.3, seed=3)
        disk.store(graph, "basis", np.arange(6.0))
        return disk

    def test_requires_cache_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_prune_without_bounds_is_an_error(self, tmp_path):
        self._seed_cache(tmp_path)
        code, text = _run(["cache", "prune",
                           "--cache-dir", str(tmp_path / "cache")])
        assert code == 2

    def test_prune_dry_run_removes_nothing(self, tmp_path):
        disk = self._seed_cache(tmp_path)
        code, text = _run(["cache", "prune",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--max-mb", "0", "--dry-run"])
        assert code == 0
        assert "would remove" in text
        assert disk.stats()["entries"] == 1  # untouched

    def test_prune_evicts_over_budget(self, tmp_path):
        disk = self._seed_cache(tmp_path)
        code, text = _run(["cache", "prune",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--max-mb", "0"])
        assert code == 0
        assert "removed" in text
        assert disk.stats()["entries"] == 0

    @pytest.mark.parametrize("command", [["stats"],
                                         ["prune", "--max-mb", "0"]])
    def test_a_missing_cache_directory_is_an_error(self, tmp_path, command):
        missing = tmp_path / "typo"
        code, text = _run(["cache", command[0], "--cache-dir", str(missing),
                           *command[1:]])
        assert code == 2
        assert str(missing) in text
        assert not missing.exists()

    def test_stats_reports_entry_count(self, tmp_path):
        self._seed_cache(tmp_path)
        code, text = _run(["cache", "stats",
                           "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "entries" in text
