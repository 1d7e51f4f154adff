"""End-to-end CLI tests through main(); sandbox backend throughout."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cue.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def host(tmp_path):
    root = tmp_path / "hostroot"
    (root / "bin").mkdir(parents=True)
    (root / "bin" / "python").write_bytes(b"2.7")
    (root / "lib").mkdir()
    (root / "etc").mkdir()
    return root


@pytest.fixture
def env(tmp_path, host):
    """Common argv prefix routing state into the test tmpdir."""
    return ["--state-root", str(tmp_path / "state")]


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCreateAndList:
    def test_create_then_list(self, env, host):
        code, _, _ = run_cli(env + ["create", "alice", "--host-root", str(host)])
        assert code == 0
        code, out, _ = run_cli(env + ["list"])
        assert code == 0
        assert "alice\tUser\tCreated\tcue-alice" in out

    def test_create_twice_is_duplicate(self, env, host):
        assert run_cli(env + ["create", "alice", "--host-root", str(host)])[0] == 0
        code, _, err = run_cli(env + ["create", "alice", "--host-root", str(host)])
        assert code == 12
        assert "already registered" in err

    def test_bad_hostname_is_usage_error(self, env, host):
        code, _, _ = run_cli(
            env + ["create", "alice", "--hostname", "bad name", "--host-root", str(host)]
        )
        assert code == 2

    def test_unknown_flag_rejected(self, env):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["list", "--bogus"])
        assert exc.value.code == 2

    def test_list_json(self, env, host):
        run_cli(env + ["create", "alice", "--host-root", str(host)])
        code, out, _ = run_cli(env + ["list", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert records[0]["user"] == "alice"
        assert set(records[0]) == {
            "user", "upper_dir", "work_dir", "merged_dir",
            "hostname", "created_at", "status", "kind",
        }


class TestEnter:
    def test_enter_unknown_user(self, env):
        code, _, err = run_cli(env + ["enter", "ghost", "--", "/bin/true"])
        assert code == 3
        assert "no such container" in err

    def test_enter_runs_command_and_propagates_exit(self, env, host):
        run_cli(env + ["create", "alice", "--host-root", str(host)])
        code, _, _ = run_cli(env + ["enter", "alice", "--", "/bin/sh", "-c", "exit 9"])
        assert code == 9

    def test_enter_writes_transcript(self, env, host, tmp_path):
        run_cli(env + ["create", "alice", "--host-root", str(host)])
        run_cli(env + ["enter", "alice", "--", "/bin/true"])
        work = tmp_path / "state" / "volumes" / "user" / "alice" / "work"
        assert "EXEC" in (work / "transcript.txt").read_text()

    def test_backend_override_refused(self, env, host, tmp_path):
        # the recorded backend is the only safe one: overlayfs would show a
        # sandbox upper's .wh.* markers as plain files
        run_cli(env + ["create", "alice", "--host-root", str(host)])
        marker = tmp_path / "ran"
        code, _, err = run_cli(env + ["enter", "alice", "--backend", "kernel", "--",
                                      "/bin/sh", "-c", f"touch {marker}"])
        assert code == 2 and "--backend" in err
        assert not marker.exists()
        work = tmp_path / "state" / "volumes" / "user" / "alice" / "work"
        assert "(deferred)" in (work / "transcript.txt").read_text()
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["enter", "--backend", "kernel", "alice", "--", "/bin/true"])
        assert exc.value.code == 2

    def test_status_back_to_stopped(self, env, host):
        run_cli(env + ["create", "alice", "--host-root", str(host)])
        run_cli(env + ["enter", "alice", "--", "/bin/true"])
        _, out, _ = run_cli(env + ["list"])
        assert "alice\tUser\tStopped" in out

    def test_refused_enter_leaves_the_status(self, env, host, tmp_path):
        # a first enter is inside: the record is Running and the upper's lock held
        from cue.registry import FileLock, Registry

        run_cli(env + ["create", "alice", "--host-root", str(host)])
        Registry(tmp_path / "state").set_status("alice", "User", "Running")
        upper = tmp_path / "state" / "volumes" / "user" / "alice" / "upper"
        with FileLock(upper.parent / "upper.lock").acquire(blocking=False):
            code, _, err = run_cli(env + ["enter", "alice", "--", "/bin/true"])
        assert code == 12 and "upper layer" in err
        _, out, _ = run_cli(env + ["list"])
        assert "alice\tUser\tRunning" in out

    def test_enter_replans_the_recorded_container(self, env, host, tmp_path):
        from cue.planner import default_config, plan_create

        state = str(tmp_path / "state")
        run_cli(env + ["create", "alice", "--hostname", "box", "--host-root", str(host)])
        assert run_cli(env + ["enter", "alice", "--", "/bin/true"])[0] == 0
        work = tmp_path / "state" / "volumes" / "user" / "alice" / "work"
        steps = [line.split(" -> ")[0] for line in (work / "transcript.txt").read_text().splitlines()]
        plan = plan_create(default_config("alice", state_root=state, host_root=str(host), hostname="box",
                                          entry_command=("/bin/true",)))
        assert steps == plan.serialize().splitlines()
        meta = json.loads((work / "container.json").read_text())
        assert meta["lowers"] == [str(host)] and "lower" not in meta and "created_dirs" not in meta
        # the recorded devices, not the defaults
        meta["devices"] = [["/dev/null", "rw"]]
        (work / "container.json").write_text(json.dumps(meta))
        assert run_cli(env + ["enter", "alice", "--", "/bin/true"])[0] == 0
        binds = [line for line in (work / "transcript.txt").read_text().splitlines() if " BIND_MOUNT /dev/" in line]
        assert len(binds) == 1 and " /dev/null " in binds[0]

    def test_enter_after_login_uses_the_shared_upper(self, env, host, tmp_path):
        from cue.cluster import NodeHandle, SharedLayout, attach_login
        from cue.registry import Registry

        shared = SharedLayout(tmp_path / "state" / "shared")
        attach_login("alice", NodeHandle("login-0", host), shared=shared, registry=Registry(tmp_path / "state"))
        code, _, _ = run_cli(env + ["enter", "alice", "--", "/bin/true"])
        assert code == 0
        assert not (tmp_path / "state" / "volumes" / "user" / "alice").exists()
        transcript = (shared.work("alice") / "transcript.txt").read_text()
        assert f" OVERLAY_MOUNT {host} {shared.upper('alice')} " in transcript
        assert " EXEC /bin/true -> OK" in transcript

    @pytest.mark.parametrize("root_sandbox", [False, True])
    def test_container_json_of_the_earlier_format_enters_and_commits(self, env, host, tmp_path, root_sandbox):
        # before containers recorded a list of lowers: "lower" and "created_dirs"
        from cue.executor import load_meta, view_for

        volumes = tmp_path / "state" / "volumes"
        if root_sandbox:
            work, target = volumes / "rootsandbox" / "root-sandbox" / "work", ["--root-sandbox", "root-sandbox"]
        else:
            work, target = volumes / "user" / "alice" / "work", ["alice"]

        def as_before():
            meta = json.loads((work / "container.json").read_text())
            meta["lower"] = meta.pop("lowers")[0]
            meta["created_dirs"] = []
            (work / "container.json").write_text(json.dumps(meta))

        run_cli(env + ["create", *target[:1], "--host-root", str(host)])
        as_before()
        assert run_cli(env + ["enter", *target, "--", "/bin/true"])[0] == 0
        assert json.loads((work / "container.json").read_text())["lowers"] == [str(host)]
        assert f" OVERLAY_MOUNT {host} " in (work / "transcript.txt").read_text()
        as_before()
        view_for(load_meta(work)).write_file("/etc/new.conf", b"v1")
        if root_sandbox:
            assert run_cli(env + ["commit", "--sandbox-of-root"])[0] == 0
            assert (host / "etc" / "new.conf").read_bytes() == b"v1"


    @pytest.mark.parametrize("command", [["/bin/echo", "hi"], ["/bin/sh"]])
    def test_root_sandbox_refuses_another_user(self, env, host, tmp_path, command):
        # without the user, the command's first word would be taken for it
        assert run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])[0] == 0
        transcript = tmp_path / "state" / "volumes" / "rootsandbox" / "root-sandbox" / "work" / "transcript.txt"
        created = transcript.read_text()
        code, out, err = run_cli(env + ["enter", "--root-sandbox", "--", *command])
        assert code == 2, err
        assert "cue enter --root-sandbox root-sandbox -- CMD" in err and out == ""
        assert transcript.read_text() == created  # nothing ran
        code, _, err = run_cli(env + ["enter", "--root-sandbox", "root-sandbox", "--", *command])
        assert code == 0, err
        assert " ".join(command) in transcript.read_text()


class TestCommitFlow:
    def test_commit_without_sandbox(self, env):
        code, _, err = run_cli(env + ["commit", "--sandbox-of-root"])
        assert code == 3
        assert "root sandbox" in err

    def test_sandbox_update_cycle(self, env, host, tmp_path):
        # administrator: open a sandbox, stage an update in its layered
        # view, test a command inside, then commit the delta to the base
        assert run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])[0] == 0
        from cue.executor import load_meta, view_for

        work = tmp_path / "state" / "volumes" / "rootsandbox" / "root-sandbox" / "work"
        view = view_for(load_meta(work))
        view.write_file("/bin/python", b"3.0\n")
        assert view.read_file("/bin/python") == b"3.0\n"
        assert (host / "bin" / "python").read_bytes() == b"2.7"  # base untouched
        code, _, _ = run_cli(
            env + ["enter", "--root-sandbox", "root-sandbox", "--", "/bin/true"]
        )
        assert code == 0
        upper = tmp_path / "state" / "volumes" / "rootsandbox" / "root-sandbox" / "upper"
        assert (upper / "bin" / "python").read_bytes() == b"3.0\n"
        code, out, _ = run_cli(env + ["commit", "--sandbox-of-root"])
        assert code == 0
        assert "committed" in out
        assert (host / "bin" / "python").read_bytes() == b"3.0\n"
        assert list(upper.iterdir()) == []  # consumed
        journals = tmp_path / "state" / "journals"
        assert list(journals.glob("*.committed"))

    def test_commit_of_clean_sandbox_is_noop(self, env, host):
        run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])
        code, out, _ = run_cli(env + ["commit", "--sandbox-of-root"])
        assert code == 0
        assert "committed 0 entries" in out

    def test_journal_mirrored_into_work_dir(self, env, host, tmp_path):
        run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])
        from cue.executor import load_meta, view_for

        work = tmp_path / "state" / "volumes" / "rootsandbox" / "root-sandbox" / "work"
        view_for(load_meta(work)).write_file("/etc/new.conf", b"v1")
        run_cli(env + ["commit", "--sandbox-of-root"])
        mirror = work / "merge.journal"
        assert mirror.exists()
        lines = mirror.read_text().splitlines()
        assert any(line.startswith("file /etc/new.conf ") for line in lines)

    def test_missing_meta_is_not_found_not_the_host_root(self, env, host, tmp_path, monkeypatch):
        run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])
        work = tmp_path / "state" / "volumes" / "rootsandbox" / "root-sandbox" / "work"
        (work / "container.json").unlink()
        from cue import commit

        lowers = []
        monkeypatch.setattr(commit, "run_commit", lambda lower, *args, **kwargs: lowers.append(lower))
        code, _, err = run_cli(env + ["commit", "--sandbox-of-root"])
        assert code == 3
        assert "no live container" in err
        assert lowers == []  # never merged into a guessed base such as /
        code, _, _ = run_cli(env + ["enter", "--root-sandbox", "root-sandbox", "--", "/bin/true"])
        assert code == 3

    def test_sandbox_finishes_a_crashed_commit_before_it_opens(self, env, host, tmp_path):
        # a commit that died after its commit point is replayed when the
        # root sandbox next opens; left to the next commit, its replay would
        # clear the edits made in the sandbox meanwhile
        from cue import commit
        from cue.executor import load_meta, view_for
        from cue.registry import Registry

        assert run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])[0] == 0
        work = tmp_path / "state" / "volumes" / "rootsandbox" / "root-sandbox" / "work"
        view = view_for(load_meta(work))
        view.write_file("/etc/a.conf", b"a")
        view.write_file("/etc/b.conf", b"b")

        def crash(point, index):
            if point == "apply-entry" and index == 1:
                raise RuntimeError("simulated crash")

        journals = Registry(tmp_path / "state").journal_dir()
        with pytest.raises(RuntimeError):
            commit.run_commit(host, work.parent / "upper", journals, fault_hook=crash)
        code, _, _ = run_cli(env + ["enter", "--root-sandbox", "root-sandbox", "--", "/bin/true"])
        assert code == 0
        view_for(load_meta(work)).write_file("/etc/new", b"new")
        code, _, _ = run_cli(env + ["commit", "--sandbox-of-root"])
        assert code == 0
        assert (host / "etc" / "new").read_bytes() == b"new"
        assert (host / "etc" / "b.conf").read_bytes() == b"b"

    def test_concurrent_commit_gets_lock_busy(self, env, host, tmp_path):
        run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])
        from cue.registry import Registry

        lock = Registry(tmp_path / "state").acquire_commit_lock()
        pid = os.fork()
        if pid == 0:
            code, _, _ = run_cli(env + ["commit", "--sandbox-of-root"])
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        lock.release()
        assert os.waitstatus_to_exitcode(status) == 13


class TestDeployRelease:
    @pytest.fixture
    def cluster_env(self, env, tmp_path, host):
        import shutil

        shared = tmp_path / "shared"
        argv = env + ["--shared-root", str(shared)]
        nodes = []
        for i in range(4):
            node_root = tmp_path / "nodes" / f"n{i}"
            shutil.copytree(host, node_root)
            nodes.append({"node_id": f"n{i}", "node_root": str(node_root)})
        manifest = tmp_path / "nodes.json"
        manifest.write_text(json.dumps(nodes))
        # seed the user's shared upper with a customization
        from cue.cluster import NodeHandle, SharedLayout, attach_login, login_view
        from cue.registry import Registry

        layout = SharedLayout(shared)
        login = NodeHandle("login", tmp_path / "nodes" / "n0")
        attach_login("alice", login, shared=layout, registry=Registry(tmp_path / "state"))
        login_view("alice", login, shared=layout).write_file("/lib/libmine.so", b"mine")
        return argv, manifest

    def test_deploy_four_nodes(self, cluster_env):
        argv, manifest = cluster_env
        code, out, _ = run_cli(argv + ["deploy", "alice", "--nodes", str(manifest)])
        assert code == 0
        assert out.count("Attached") == 4

    def test_deploy_json_format(self, cluster_env):
        argv, manifest = cluster_env
        code, out, _ = run_cli(
            argv + ["deploy", "alice", "--nodes", str(manifest), "--format", "json"]
        )
        assert code == 0
        entries = json.loads(out)
        assert [e["status"] for e in entries] == ["Attached"] * 4

    def test_missing_manifest_is_usage_error(self, cluster_env):
        argv, _ = cluster_env
        code, _, _ = run_cli(argv + ["deploy", "alice", "--nodes", "/nope/nodes.json"])
        assert code == 2

    def test_partial_failure_exit_code(self, cluster_env, tmp_path):
        argv, manifest = cluster_env
        nodes = json.loads(manifest.read_text())
        nodes.append({"node_id": "gone", "node_root": str(tmp_path / "no-such-root")})
        manifest.write_text(json.dumps(nodes))
        code, out, _ = run_cli(argv + ["deploy", "alice", "--nodes", str(manifest)])
        assert code == 11
        assert out.count("Attached") == 4 and "gone Failed" in out

    @pytest.mark.parametrize(
        "user,node_id", [("../evil", "n9"), ("alice", "../../../escaped")]
    )
    def test_path_escaping_ids_rejected(self, cluster_env, tmp_path, user, node_id):
        argv, manifest = cluster_env
        nodes = [{"node_id": node_id, "node_root": str(tmp_path / "nodes" / "n0")}]
        manifest.write_text(json.dumps(nodes))
        before = sorted(tmp_path.rglob("*"))
        for command in ("deploy", "release"):
            code, _, err = run_cli(argv + [command, user, "--nodes", str(manifest)])
            assert code == 2, err
        assert sorted(tmp_path.rglob("*")) == before

    def test_release_then_release_again(self, cluster_env):
        argv, manifest = cluster_env
        run_cli(argv + ["deploy", "alice", "--nodes", str(manifest)])
        code, out, _ = run_cli(argv + ["release", "alice", "--nodes", str(manifest)])
        assert code == 0
        assert out.count("Released") == 4
        code, out, _ = run_cli(argv + ["release", "alice", "--nodes", str(manifest)])
        assert code == 3
        assert out.count("NotFound") == 4


    def test_release_failure_exit_code(self, cluster_env, monkeypatch):
        argv, manifest = cluster_env
        run_cli(argv + ["deploy", "alice", "--nodes", str(manifest)])
        from cue import cluster

        def refusing(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cluster.shutil, "rmtree", refusing)
        code, out, _ = run_cli(argv + ["release", "alice", "--nodes", str(manifest)])
        assert code == 11
        assert out.count("Failed (") == 4 and "Permission denied" in out


    def test_failing_pre_hook(self, cluster_env):
        argv, manifest = cluster_env
        code, out, err = run_cli(argv + ["deploy", "alice", "--nodes", str(manifest),
                                         "--pre-hook", "exit 3"])
        assert code == 11 and out == ""
        assert err == "cue: pre-hook 'exit 3' exited with status 3; no node was attached\n"
        code, out, _ = run_cli(argv + ["release", "alice", "--nodes", str(manifest)])
        assert code == 3 and out.count("NotFound") == 4

    def test_failing_post_hook(self, cluster_env):
        argv, manifest = cluster_env
        code, out, err = run_cli(argv + ["deploy", "alice", "--nodes", str(manifest),
                                         "--post-hook", "false"])
        assert code == 11 and out.count("Attached") == 4
        assert err.count("\n") == 1 and "post-hook 'false' exited with status 1" in err
        assert "the nodes are attached" in err and "cue release alice" in err
        code, out, _ = run_cli(argv + ["release", "alice", "--nodes", str(manifest)])
        assert code == 0 and out.count("Released") == 4


class TestPolicyDump:
    def test_matches_frozen_table(self):
        code, out, _ = run_cli(["policy", "dump"])
        assert code == 0
        assert out == (GOLDEN / "policy_dump.txt").read_text()

    def test_root_sandbox_table(self):
        code, out, _ = run_cli(["policy", "dump", "--root-sandbox"])
        assert code == 0
        assert out == (GOLDEN / "policy_dump_root_sandbox.txt").read_text()


class TestBenchCli:
    def test_startup_report_schema(self, env, host, tmp_path):
        code, out, _ = run_cli(
            env + ["bench", "startup", "-n", "3", "--backend", "sandbox",
                   "--host-root", str(host)]
        )
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "startup"
        assert report["n_iterations"] == 3
        assert len(report["samples"]) == 3
        assert {"mean", "median", "p95"} <= set(report["summary"])

    def test_stress_out_and_csv(self, env, host, tmp_path):
        out_file = tmp_path / "report.json"
        csv_file = tmp_path / "report.csv"
        code, _, _ = run_cli(
            env + ["bench", "stress", "--scenario", "small-write", "--count", "40",
                   "--size", "8", "--iterations", "1",
                   "--workdir", str(tmp_path / "bw"),
                   "--out", str(out_file), "--csv", str(csv_file)]
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["scenario"] == "small-write"
        assert report["overhead_ratio"] is not None
        assert csv_file.read_text().startswith("scenario,iteration,micros")

    def test_exec_needs_command(self, env):
        code, _, _ = run_cli(env + ["bench", "exec", "-n", "1", "--"])
        assert code == 2


class TestDestroy:
    def test_destroy_requires_yes(self, env, host):
        run_cli(env + ["create", "alice", "--host-root", str(host)])
        code, _, _ = run_cli(env + ["destroy", "alice"])
        assert code == 2

    def test_destroy_removes_everything(self, env, host, tmp_path):
        run_cli(env + ["create", "alice", "--host-root", str(host)])
        code, _, _ = run_cli(env + ["destroy", "alice", "--yes"])
        assert code == 0
        assert not (tmp_path / "state" / "volumes" / "user" / "alice" / "upper").exists()
        _, out, _ = run_cli(env + ["list"])
        assert "alice" not in out

    def test_destroy_root_sandbox_refuses_another_user(self, env, host):
        assert run_cli(env + ["create", "--root-sandbox", "--host-root", str(host)])[0] == 0
        code, _, err = run_cli(env + ["destroy", "--root-sandbox", "alice", "--yes"])
        assert code == 2 and "cue destroy --root-sandbox root-sandbox --yes" in err
        assert "RootSandbox" in run_cli(env + ["list"])[1]
        assert run_cli(env + ["destroy", "--root-sandbox", "root-sandbox", "--yes"])[0] == 0

    def test_destroy_unknown(self, env):
        code, _, _ = run_cli(env + ["destroy", "ghost", "--yes"])
        assert code == 3

    @pytest.mark.parametrize("user", ["../x", "../../../x"])
    def test_destroy_refuses_path_escaping_user(self, env, tmp_path, user):
        # a record planted where the unchecked id would lead, naming victims
        state = tmp_path / "state"
        planted = state / "containers" / "User" / f"{user}.json"
        planted.parent.mkdir(parents=True, exist_ok=True)
        victims = {}
        for name in ("upper_dir", "work_dir", "merged_dir"):
            victims[name] = tmp_path / "victim" / name
            (victims[name] / "keep").mkdir(parents=True)
        planted.write_text(json.dumps({
            "user": "x", "hostname": "cue-x", "status": "Stopped", "kind": "User",
            "created_at": "2020-01-01T00:00:00+00:00",
            **{k: str(v) for k, v in victims.items()},
        }))
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run_cli(env + ["destroy", user, "--yes"])
        assert code == 2, err
        assert "not a valid user" in err and out == ""
        assert sorted(tmp_path.rglob("*")) == before


    @pytest.mark.parametrize("named", ["outside", "dotdot", "symlink", "state-root"])
    def test_destroy_refuses_record_naming_paths_outside_state_root(self, env, host, tmp_path, named):
        # a valid user id whose record was edited to name other trees
        assert run_cli(env + ["create", "mallory", "--host-root", str(host)])[0] == 0
        state = tmp_path / "state"
        record_file = state / "containers" / "User" / "mallory.json"
        record = json.loads(record_file.read_text())
        victim = tmp_path / "victim"
        (victim / "keep").mkdir(parents=True)
        (state / "volumes" / "link").symlink_to(victim)
        record["upper_dir"] = {
            "outside": str(victim),
            "dotdot": str(state / "volumes" / ".." / ".." / "victim"),
            "symlink": str(state / "volumes" / "link"),
            "state-root": str(state),
        }[named]
        record_file.write_text(json.dumps(record))
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run_cli(env + ["destroy", "mallory", "--yes"])
        assert code == 2, err
        assert "upper_dir" in err and "not under the state root" in err and out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_destroy_inside_a_symlinked_state_root(self, host, tmp_path):
        (tmp_path / "real-state").mkdir()
        (tmp_path / "state-link").symlink_to(tmp_path / "real-state")
        env = ["--state-root", str(tmp_path / "state-link")]
        assert run_cli(env + ["create", "alice", "--host-root", str(host)])[0] == 0
        assert run_cli(env + ["destroy", "alice", "--yes"])[0] == 0
        assert not (tmp_path / "real-state" / "volumes" / "user" / "alice" / "upper").exists()


class TestHelpSnapshots:
    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["--help"], "cue.txt"),
            (["create", "--help"], "create.txt"),
            (["enter", "--help"], "enter.txt"),
            (["commit", "--help"], "commit.txt"),
            (["deploy", "--help"], "deploy.txt"),
            (["release", "--help"], "release.txt"),
            (["bench", "--help"], "bench.txt"),
            (["bench", "startup", "--help"], "bench_startup.txt"),
            (["bench", "stress", "--help"], "bench_stress.txt"),
            (["bench", "exec", "--help"], "bench_exec.txt"),
            (["policy", "--help"], "policy.txt"),
            (["list", "--help"], "list.txt"),
            (["destroy", "--help"], "destroy.txt"),
        ],
    )
    def test_help_text(self, argv, golden):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 0
        assert buf.getvalue() == (GOLDEN / "help" / golden).read_text()


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cue", "policy", "dump"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        assert proc.returncode == 0
        assert "CAP_SYS_ADMIN Deny" in proc.stdout