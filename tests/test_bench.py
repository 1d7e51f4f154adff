import statistics
from pathlib import Path

import pytest

from cue.bench import (
    BenchReport,
    StressSpec,
    Summary,
    bench_exec,
    bench_file_stress,
    bench_startup,
)
from cue.errors import CommandNotFound


class TestSummary:
    def test_single_sample(self):
        s = Summary.of([42])
        assert s.mean == s.median == s.p95 == 42

    def test_recompute_matches(self):
        samples = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10]
        s = Summary.of(samples)
        assert s.mean == pytest.approx(statistics.fmean(samples), rel=1e-9)
        assert s.median == pytest.approx(statistics.median(samples), rel=1e-9)
        assert s.p95 == 10  # nearest-rank on 10 samples

    def test_p95_nearest_rank(self):
        assert Summary.of(list(range(1, 101))).p95 == 95


class TestReport:
    def test_json_round_trip(self):
        report = BenchReport.build("demo", [10, 20, 30], [10, 10, 10], note="x")
        back = BenchReport.from_json(report.to_json())
        assert back == report

    def test_overhead_ratio(self):
        report = BenchReport.build("demo", [12, 12], [10, 10])
        assert report.overhead_ratio == pytest.approx(0.2)

    def test_no_baseline_no_ratio(self):
        report = BenchReport.build("demo", [12, 12])
        assert report.overhead_ratio is None
        assert report.baseline_summary is None

    def test_csv(self):
        report = BenchReport.build("demo", [10], [11])
        lines = report.to_csv().splitlines()
        assert lines[0] == "scenario,iteration,micros"
        assert "demo,0,10" in lines
        assert "demo-baseline,0,11" in lines


class TestStartup:
    def test_samples_and_space(self, tmp_path):
        host = tmp_path / "host"
        (host / "bin").mkdir(parents=True)
        (host / "bin" / "sh").write_bytes(b"#!")
        report = bench_startup(3, state_root=tmp_path / "state", host_root=str(host))
        assert report.scenario == "startup"
        assert report.n_iterations == 3
        assert len(report.samples) == 3
        assert all(s > 0 for s in report.samples)
        assert report.meta["max_space_overhead_bytes"] < 100 * 1024
        assert "incomplete" not in report.meta

    def test_n_one(self, tmp_path):
        host = tmp_path / "host"
        host.mkdir()
        report = bench_startup(1, state_root=tmp_path / "state", host_root=str(host))
        assert report.summary.mean == report.summary.median == report.samples[0]

    def test_n_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench_startup(0, state_root=tmp_path / "state")

    def test_executor_failure_flags_partial_report(self, tmp_path, monkeypatch):
        from cue import bench as bench_module
        from cue.errors import StepFailed

        host = tmp_path / "host"
        host.mkdir()
        calls = {"n": 0}
        real_execute = bench_module.execute

        def flaky(plan, backend, **kw):
            calls["n"] += 1
            if calls["n"] > 2:  # warm-up and first timed container succeed
                raise StepFailed(4, "injected executor failure")
            return real_execute(plan, backend, **kw)

        monkeypatch.setattr(bench_module, "execute", flaky)
        report = bench_startup(3, state_root=tmp_path / "state", host_root=str(host))
        assert report.meta["incomplete"] is True
        assert "injected executor failure" in report.meta["error"]
        assert len(report.samples) == 1


def small_spec(scenario, **kw) -> StressSpec:
    defaults = dict(small_count=60, small_size=16, big_bytes=1 << 20, iterations=2)
    defaults.update(kw)
    return StressSpec(scenario, **defaults)


class TestFileStress:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StressSpec("nope")
        with pytest.raises(ValueError):
            StressSpec("small-read", iterations=0)

    @pytest.mark.parametrize("scenario", ["small-read", "small-write", "big-read", "big-write"])
    def test_scenarios_produce_reports(self, tmp_path, scenario):
        report = bench_file_stress(small_spec(scenario), workdir=tmp_path / "w")
        assert report.scenario == scenario
        assert len(report.samples) == 2
        assert len(report.baseline_samples) == 2
        assert report.overhead_ratio is not None

    def test_degenerate_zero_byte_single_file(self, tmp_path):
        spec = StressSpec("small-write", small_count=1, small_size=0, iterations=1)
        report = bench_file_stress(spec, workdir=tmp_path / "w")
        assert report.overhead_ratio is not None

    def test_missing_workdir_parents_created(self, tmp_path):
        # the space probe must not need workdir's parent to exist
        workdir = tmp_path / "not" / "yet" / "there"
        report = bench_file_stress(small_spec("small-read"), workdir=workdir)
        assert report.overhead_ratio is not None

    def test_small_write_pairs_each_file_with_its_bare_twin(self, tmp_path, monkeypatch):
        from cue import bench as bench_module

        seen = {}
        real_rmtree = bench_module.shutil.rmtree

        def snapshot_then_rmtree(path, *args, **kw):
            path = Path(path)
            if path.name == "stress-run":
                for side in ("upper", "bare"):
                    stress = path / side / "stress"
                    seen[side] = {f.name: f.read_bytes() for f in stress.iterdir()}
            return real_rmtree(path, *args, **kw)

        monkeypatch.setattr(bench_module.shutil, "rmtree", snapshot_then_rmtree)
        spec = small_spec("small-write", small_count=60, iterations=3)
        report = bench_file_stress(spec, workdir=tmp_path / "w")
        # every file was copied up and flipped exactly as often as its twin
        assert len(seen["upper"]) == 60
        assert seen["upper"] == seen["bare"]
        assert len(report.samples) == len(report.baseline_samples) == 3

    def test_stream_flip_inverts_every_bit(self, tmp_path):
        from cue.bench import _dual_stream_flip

        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        original = bytes(range(256)) * 64
        first.write_bytes(original)
        second.write_bytes(original[:1000])
        _dual_stream_flip(first, second)
        assert first.read_bytes() == bytes(b ^ 0xFF for b in original)
        assert second.read_bytes() == bytes(b ^ 0xFF for b in original[:1000])
        _dual_stream_flip(first, second)
        assert first.read_bytes() == original
        assert second.read_bytes() == original[:1000]

    def test_seeded_generation_identical(self, tmp_path):
        from cue.bench import _generate_files

        spec = small_spec("small-read", small_count=10)
        a = tmp_path / "a"
        b = tmp_path / "b"
        _generate_files(a, spec)
        _generate_files(b, spec)
        for i in range(10):
            name = f"stress/f{i:06d}.dat"
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestBenchExec:
    def test_true_command(self, tmp_path):
        host = tmp_path / "host"
        host.mkdir()
        report = bench_exec(
            ["true"], repetitions=3, state_root=tmp_path / "state", host_root=str(host)
        )
        assert report.scenario == "exec"
        assert len(report.samples) == 3
        assert report.overhead_ratio is not None
        assert report.meta["exit_codes"] == [0, 0, 0]

    def test_missing_command(self, tmp_path):
        with pytest.raises(CommandNotFound):
            bench_exec(
                ["definitely-not-a-command-xyz"],
                repetitions=1,
                state_root=tmp_path / "state",
            )

    def test_nonzero_exit_recorded(self, tmp_path):
        host = tmp_path / "host"
        host.mkdir()
        report = bench_exec(
            ["false"], repetitions=2, state_root=tmp_path / "state", host_root=str(host)
        )
        assert report.meta["exit_codes"] == [1, 1]
