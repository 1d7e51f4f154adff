import os
from pathlib import Path

import pytest

from cue import executor
from cue.errors import NotFound, RegistryConflict, StepFailed
from cue.executor import Backend, StepStatus, execute, load_meta, teardown, view_for
from cue.planner import ContainerConfig, default_config, plan_create
from cue.registry import FileLock


@pytest.fixture
def host(tmp_path):
    """A miniature base tree standing in for the host root."""
    root = tmp_path / "hostroot"
    (root / "bin").mkdir(parents=True)
    (root / "bin" / "python").write_bytes(b"2.7")
    (root / "lib").mkdir()
    return root


def config_for(user, tmp_path, host, **kw):
    return default_config(
        user,
        state_root=str(tmp_path / "state"),
        host_root=str(host),
        **kw,
    )


class TestSandboxExecute:
    def test_full_plan_runs(self, tmp_path, host):
        plan = plan_create(config_for("alice", tmp_path, host))
        report = execute(plan, "sandbox")
        assert report.ok
        assert report.backend is Backend.SANDBOX
        assert len(report.outcomes) == len(plan.steps)
        assert [o.ordinal for o in report.outcomes] == list(range(len(plan.steps)))
        assert report.outcomes[-1].detail == "deferred"

    def test_merged_view_serves_lower_content(self, tmp_path, host):
        plan = plan_create(config_for("alice", tmp_path, host))
        report = execute(plan, "sandbox")
        view = view_for(load_meta(report.handle))
        assert view.read_file("/bin/python") == b"2.7"

    def test_write_lands_in_upper_not_lower(self, tmp_path, host):
        plan = plan_create(config_for("alice", tmp_path, host))
        report = execute(plan, "sandbox")
        view = view_for(load_meta(report.handle))
        view.write_file("/lib/libmine.so", b"mine")
        upper = plan.config.upper_dir
        assert (tmp_path / "state").exists()
        assert open(os.path.join(upper, "lib", "libmine.so"), "rb").read() == b"mine"
        assert not (host / "lib" / "libmine.so").exists()

    def test_state_root_mask_recorded_and_enforced(self, tmp_path, host):
        state = tmp_path / "state"
        plan = plan_create(config_for("alice", tmp_path, host))
        execute(plan, "sandbox")
        meta = load_meta(plan.config.work_dir)
        assert [str(state), "empty"] in [list(m) for m in meta["masks"]]
        # a view-relative twin of the registry path shows up empty
        twin = host / str(state).lstrip("/")
        twin.mkdir(parents=True)
        (twin / "secret.json").write_bytes(b"{}")
        view = view_for(meta)
        assert view.list_dir(str(state)) == []
        assert not view.resolve(str(state) + "/secret.json").found

    def test_transcript_written(self, tmp_path, host):
        plan = plan_create(config_for("alice", tmp_path, host))
        execute(plan, "sandbox")
        transcript = (
            (tmp_path / "state" / "volumes" / "user" / "alice" / "work" / "transcript.txt")
            .read_text()
        )
        assert "OVERLAY_MOUNT" in transcript
        assert "-> SIMULATED" in transcript
        assert transcript.count("\n") == len(plan.steps)

    def test_run_entry_propagates_exit_code(self, tmp_path, host):
        cfg = config_for("alice", tmp_path, host, entry_command=("/bin/sh", "-c", "exit 7"))
        report = execute(plan_create(cfg), "sandbox", run_entry=True)
        assert report.entry_exit_code == 7
        assert report.outcomes[-1].detail == "exit=7"

    def test_no_lingering_children(self, tmp_path, host):
        cfg = config_for("alice", tmp_path, host, entry_command=("/bin/true",))
        execute(plan_create(cfg), "sandbox", run_entry=True)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_unwinds_created_dirs(self, tmp_path):
        cfg = default_config(
            "alice",
            state_root=str(tmp_path / "state"),
            host_root=str(tmp_path / "missing-lower"),
        )
        plan = plan_create(cfg)
        with pytest.raises(StepFailed) as err:
            execute(plan, "sandbox")
        report = err.value.report
        assert report.outcomes[-1].status is StepStatus.FAILED
        # everything this execution created is gone again
        assert not os.path.exists(cfg.upper_dir)
        assert not os.path.exists(cfg.merged_dir)
        ordinals = [o.ordinal for o in report.outcomes]
        assert ordinals == sorted(ordinals)
        assert all(
            o.status is not StepStatus.FAILED for o in report.outcomes[:-1]
        )

    def test_self_overlay_rejected(self, tmp_path, host):
        cfg = ContainerConfig(
            user="alice",
            host_root=str(host),
            upper_dir=str(tmp_path / "up"),
            work_dir=str(tmp_path / "work"),
            merged_dir=str(host),
        )
        with pytest.raises(StepFailed):
            execute(plan_create(cfg), "sandbox")

    def test_concurrent_execute_same_upper_rejected(self, tmp_path, host):
        plan = plan_create(config_for("alice", tmp_path, host))
        lock = FileLock(executor._exec_lock_path(plan.config.upper_dir)).acquire(blocking=False)
        try:
            with pytest.raises(RegistryConflict):
                execute(plan, "sandbox")
        finally:
            lock.release()

    def test_fresh_container_space_overhead(self, tmp_path, host):
        from cue.diskfs import tree_bytes

        plan = plan_create(config_for("alice", tmp_path, host))
        execute(plan, "sandbox")
        added = tree_bytes(plan.config.upper_dir) + tree_bytes(plan.config.work_dir)
        assert added < 100 * 1024


class TestReportShape:
    """Both backends report the same shape; the kernel case runs as root only."""

    @pytest.mark.parametrize("run_entry", [False, True], ids=["deferred", "entry"])
    @pytest.mark.parametrize("backend", ["sandbox", "kernel"])
    def test_one_outcome_and_line_per_step(self, request, tmp_path, host, backend, run_entry):
        if backend == "kernel":
            request.getfixturevalue("kernel_ok")
            base = request.getfixturevalue("scratch")
            cfg = ContainerConfig(
                user="kuser",
                host_root="/",
                upper_dir=str(base / "upper"),
                work_dir=str(base / "work"),
                merged_dir=str(base / "merged"),
                entry_command=("/bin/true",),
            )
        else:
            cfg = config_for("alice", tmp_path, host, entry_command=("/bin/true",))
        plan = plan_create(cfg)
        report = execute(plan, backend, run_entry=run_entry)
        assert [o.ordinal for o in report.outcomes] == list(range(len(plan.steps)))
        kinds = [o.kind for o in report.outcomes]
        assert kinds == [s.kind.value for s in plan.steps]
        assert kinds.count("EXEC") == 1 and kinds[-1] == "EXEC"
        assert report.entry_exit_code == (0 if run_entry else None)
        lines = (Path(cfg.work_dir) / executor.TRANSCRIPT_NAME).read_text().splitlines()
        extra = ["# uid-mapping host-root"] if backend == "kernel" else []
        assert len(lines) == len(report.outcomes) + len(extra)
        assert lines[len(report.outcomes):] == extra
        for line, step, outcome in zip(lines, plan.steps, report.outcomes):
            assert line.startswith(f"{step.to_line()} -> {outcome.status.value}")


class TestTeardown:
    def test_merged_removed_upper_kept(self, tmp_path, host):
        plan = plan_create(config_for("alice", tmp_path, host))
        report = execute(plan, "sandbox")
        view = view_for(load_meta(report.handle))
        view.write_file("/lib/keep.so", b"keep")
        teardown(report.handle)
        assert not os.path.exists(plan.config.merged_dir)
        assert os.path.exists(os.path.join(plan.config.upper_dir, "lib", "keep.so"))

    def test_double_teardown_not_found(self, tmp_path, host):
        report = execute(plan_create(config_for("alice", tmp_path, host)), "sandbox")
        teardown(report.handle)
        with pytest.raises(NotFound):
            teardown(report.handle)

    def test_teardown_unknown_handle(self, tmp_path):
        with pytest.raises(NotFound):
            teardown(tmp_path / "nothing-here")
