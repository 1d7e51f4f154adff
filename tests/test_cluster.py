import errno
import json
import time

import pytest

from cue import cluster
from cue.cluster import NodeHandle, SharedLayout, attach_login, deploy_job, release_job
from cue.errors import AbsentPath, InvalidConfig, NotFound
from cue.executor import load_meta, view_for
from cue.model import ResolutionKind
from cue.registry import Registry


@pytest.fixture
def world(tmp_path):
    """Shared storage, a login node, and four cloned compute nodes."""
    shared = SharedLayout(tmp_path / "shared")
    registry = Registry(tmp_path / "state")
    base = {"bin": {"python": "2.7"}, "lib": {"libc.so": "glibc"}}

    def build_node(root):
        for dirname, files in base.items():
            (root / dirname).mkdir(parents=True)
            for name, content in files.items():
                (root / dirname / name).write_text(content)

    login = NodeHandle("login-0", tmp_path / "nodes" / "login-0")
    build_node(login.node_root)
    computes = []
    for i in range(4):
        node = NodeHandle(f"compute-{i}", tmp_path / "nodes" / f"compute-{i}")
        build_node(node.node_root)
        computes.append(node)
    return shared, registry, login, computes


class TestAttachLogin:
    def test_first_login_creates_empty_upper(self, world):
        shared, registry, login, _ = world
        record = attach_login("alice", login, shared=shared, registry=registry)
        assert shared.upper("alice").is_dir()
        assert list(shared.upper("alice").iterdir()) == []
        view = cluster.login_view("alice", login, shared=shared)
        assert view.read_file("/bin/python") == b"2.7"
        assert record.status == "Running"

    def test_customizations_survive_relogin(self, world):
        shared, registry, login, _ = world
        attach_login("alice", login, shared=shared, registry=registry)
        view = cluster.login_view("alice", login, shared=shared)
        view.write_file("/lib/libmine.so", b"mine v1")
        # logout + login again: same upper, customization still resolves
        attach_login("alice", login, shared=shared, registry=registry)
        view2 = cluster.login_view("alice", login, shared=shared)
        res = view2.resolve("/lib/libmine.so")
        assert res.outcome is ResolutionKind.FOUND_UPPER
        assert view2.read_file("/lib/libmine.so") == b"mine v1"

    def test_two_users_are_disjoint(self, world):
        shared, registry, login, _ = world
        attach_login("alice", login, shared=shared, registry=registry)
        attach_login("bob", login, shared=shared, registry=registry)
        alice = cluster.login_view("alice", login, shared=shared)
        bob = cluster.login_view("bob", login, shared=shared)
        alice.write_file("/lib/alice-only.so", b"a")
        assert not bob.resolve("/lib/alice-only.so").found
        assert alice.resolve("/lib/alice-only.so").found

    def test_login_view_applies_recorded_masks(self, world):
        shared, registry, login, _ = world
        attach_login("alice", login, shared=shared, registry=registry)
        # a copy of the state root's path under the login node's root
        twin = login.node_root / str(registry.state_root).lstrip("/")
        twin.mkdir(parents=True)
        (twin / "secret.json").write_bytes(b"{}")
        state = str(registry.state_root)
        recorded = view_for(load_meta(shared.work("alice")))
        view = cluster.login_view("alice", login, shared=shared)
        assert recorded.list_dir(state) == view.list_dir(state) == []
        assert not view.resolve(state + "/secret.json").found

    def test_missing_node_root(self, world, tmp_path):
        shared, registry, _, _ = world
        ghost = NodeHandle("ghost", tmp_path / "nope")
        with pytest.raises(NotFound):
            attach_login("alice", ghost, shared=shared, registry=registry)


class TestDeployJob:
    def deploy_with_customization(self, world):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        view = cluster.login_view("alice", login, shared=shared)
        view.write_file("/lib/libmine.so", b"custom build")
        result = deploy_job("alice", computes, shared=shared, registry=registry)
        return shared, registry, computes, result

    def test_all_nodes_see_customization(self, world):
        shared, registry, computes, result = self.deploy_with_customization(world)
        assert result.all_attached
        assert [n.status for n in result.per_node] == ["Attached"] * 4
        for node in computes:
            view = cluster.node_view("alice", node, registry=registry)
            assert view.read_file("/lib/libmine.so") == b"custom build"
            assert view.read_file("/bin/python") == b"2.7"

    def test_deploy_to_zero_nodes(self, world):
        shared, registry, login, _ = world
        attach_login("alice", login, shared=shared, registry=registry)
        result = deploy_job("alice", [], shared=shared, registry=registry)
        assert result.per_node == ()

    def test_partial_failure_does_not_abort(self, world, tmp_path):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        broken = NodeHandle("broken", tmp_path / "missing-root")
        nodes = [computes[0], broken, computes[1]]
        result = deploy_job("alice", nodes, shared=shared, registry=registry)
        statuses = [n.status for n in result.per_node]
        assert statuses == ["Attached", "Failed", "Attached"]
        assert [n.node_id for n in result.per_node] == ["compute-0", "broken", "compute-1"]

    def test_failed_deploy_leaves_nothing_behind(self, world, monkeypatch):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        write_text = cluster.Path.write_text

        def full_disk(path, *args, **kwargs):
            if path.name == "attachment.json":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(cluster.Path, "write_text", full_disk)
        failed = deploy_job("alice", computes[:1], shared=shared, registry=registry)
        assert failed.per_node[0].status == "Failed" and "No space left" in failed.per_node[0].detail
        deploy = cluster._deploy_dir(registry.state_root, "alice", computes[0].node_id)
        assert not deploy.exists()
        monkeypatch.undo()
        retried = deploy_job("alice", computes[:1], shared=shared, registry=registry)
        assert [n.status for n in retried.per_node] == ["Attached"]
        released = release_job("alice", computes[:1], registry=registry)
        assert [n.status for n in released.per_node] == ["Released"]
        assert not deploy.exists()

    def test_second_deploy_keeps_the_attachment(self, world):
        shared, registry, computes, _ = self.deploy_with_customization(world)
        again = deploy_job("alice", computes[:1], shared=shared, registry=registry)
        assert again.per_node[0].status == "Failed" and "already attached" in again.per_node[0].detail
        view = cluster.node_view("alice", computes[0], registry=registry)
        assert view.read_file("/lib/libmine.so") == b"custom build"

    def test_unknown_user(self, world):
        shared, registry, _, computes = world
        shared.ensure_user("someone-else")
        with pytest.raises(NotFound):
            deploy_job("ghost", computes, shared=shared, registry=registry)

    def test_job_writes_go_to_scratch_not_shared_upper(self, world):
        shared, registry, computes, _ = self.deploy_with_customization(world)
        view = cluster.node_view("alice", computes[0], registry=registry)
        view.write_file("/lib/job-output.dat", b"result")
        assert view.read_file("/lib/job-output.dat") == b"result"
        assert not (shared.upper("alice") / "lib" / "job-output.dat").exists()
        other = cluster.node_view("alice", computes[1], registry=registry)
        assert not other.resolve("/lib/job-output.dat").found

    def test_cross_node_consistency_on_cloned_roots(self, world):
        shared, registry, computes, _ = self.deploy_with_customization(world)
        views = [cluster.node_view("alice", n, registry=registry) for n in computes]
        for path in ("/bin/python", "/lib/libc.so", "/lib/libmine.so", "/lib", "/nope"):
            outcomes = {v.resolve(path).outcome for v in views}
            assert len(outcomes) == 1, path

    def test_node_view_applies_recorded_masks(self, world):
        shared, registry, computes, _ = self.deploy_with_customization(world)
        # a copy of the state root's path under a compute node's root
        twin = computes[0].node_root / str(registry.state_root).lstrip("/")
        twin.mkdir(parents=True)
        (twin / "secret.json").write_bytes(b"{}")
        state = str(registry.state_root)
        attachment = cluster._deploy_dir(registry.state_root, "alice", computes[0].node_id) / "attachment.json"
        recorded = view_for(json.loads(attachment.read_text()))
        view = cluster.node_view("alice", computes[0], registry=registry)
        assert recorded.list_dir(state) == view.list_dir(state) == []
        assert not view.resolve(state + "/secret.json").found

    def test_attachment_has_the_container_json_keys(self, world):
        shared, registry, computes, _ = self.deploy_with_customization(world)
        deploy = cluster._deploy_dir(registry.state_root, "alice", computes[0].node_id)
        attachment = json.loads((deploy / "attachment.json").read_text())
        assert attachment["lowers"] == [str(computes[0].node_root), str(shared.upper("alice"))]
        assert attachment["upper"] == str(deploy / "scratch")
        assert attachment["masks"] == [[str(registry.state_root), "empty"], [str(shared.shared_root), "empty"]]
        assert set(load_meta(shared.work("alice"))) >= {"lowers", "upper", "masks"}

    def test_views_mask_the_shared_root(self, world):
        shared, registry, login, computes = world
        shared.ensure_user("bob")
        attach_login("alice", login, shared=shared, registry=registry)
        deploy_job("alice", computes[:1], shared=shared, registry=registry)
        # a copy of bob's upper at its own path under each node's root, as
        # shared storage shows on a node whose root is "/"
        bob = str(shared.upper("bob"))
        for node in (login, computes[0]):
            twin = node.node_root / bob.lstrip("/")
            twin.mkdir(parents=True)
            (twin / "bob-secret").write_bytes(b"bob's")
        views = [cluster.login_view("alice", login, shared=shared),
                 cluster.node_view("alice", computes[0], registry=registry)]
        for view in views:
            assert view.list_dir(str(shared.shared_root)) == []
            assert not view.resolve(bob + "/bob-secret").found
            with pytest.raises(AbsentPath):
                view.read_file(bob + "/bob-secret")

    def test_attachment_copies_no_upper_bytes(self, world):
        shared, registry, computes, _ = self.deploy_with_customization(world)
        for node in computes:
            deploy = cluster._deploy_dir(registry.state_root, "alice", node.node_id)
            scratch_files = list((deploy / "scratch").rglob("*"))
            assert scratch_files == []


class TestReleaseJob:
    def test_release_keeps_shared_upper(self, world):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        view = cluster.login_view("alice", login, shared=shared)
        view.write_file("/lib/libmine.so", b"keep me")
        deploy_job("alice", computes, shared=shared, registry=registry)
        result = release_job("alice", computes, registry=registry)
        assert [n.status for n in result.per_node] == ["Released"] * 4
        assert (shared.upper("alice") / "lib" / "libmine.so").read_bytes() == b"keep me"
        for node in computes:
            with pytest.raises(NotFound):
                cluster.node_view("alice", node, registry=registry)

    def test_failed_removal_is_reported(self, world, monkeypatch):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        deploy_job("alice", computes, shared=shared, registry=registry)
        stuck = cluster._deploy_dir(registry.state_root, "alice", computes[1].node_id)
        rmtree = cluster.shutil.rmtree

        def refusing(path, *args, **kwargs):
            if path == stuck:
                raise PermissionError(13, "Permission denied", str(path))
            return rmtree(path, *args, **kwargs)

        monkeypatch.setattr(cluster.shutil, "rmtree", refusing)
        result = release_job("alice", computes, registry=registry)
        assert [n.status for n in result.per_node] == ["Released", "Failed", "Released", "Released"]
        assert "Permission denied" in result.per_node[1].detail
        assert (stuck / "attachment.json").exists()

    def test_release_unknown_node(self, world, tmp_path):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        ghost = NodeHandle("ghost", tmp_path / "nope")
        result = release_job("alice", [ghost], registry=registry)
        assert result.per_node[0].status == "NotFound"

    def test_release_twice(self, world):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        deploy_job("alice", computes, shared=shared, registry=registry)
        release_job("alice", computes, registry=registry)
        second = release_job("alice", computes, registry=registry)
        assert [n.status for n in second.per_node] == ["NotFound"] * 4


class TestJobHooks:
    def test_pre_and_post_hooks_run(self, world, tmp_path):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        pre_marker = tmp_path / "pre.marker"
        post_marker = tmp_path / "post.marker"
        deploy_job(
            "alice",
            computes,
            shared=shared,
            registry=registry,
            pre_hook=f"touch {pre_marker}",
            post_hook=f"touch {post_marker}",
        )
        assert pre_marker.exists()
        assert post_marker.exists()
        release_job("alice", computes, registry=registry)

    def test_failing_pre_hook_aborts(self, world):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        import subprocess

        with pytest.raises(subprocess.CalledProcessError):
            deploy_job(
                "alice", computes, shared=shared, registry=registry, pre_hook="false"
            )


class TestManifest:
    def test_load_manifest(self, tmp_path):
        manifest = tmp_path / "nodes.json"
        manifest.write_text(
            json.dumps(
                [
                    {"node_id": "n1", "node_root": "/tmp/n1"},
                    {"node_id": "n2", "node_root": "/tmp/n2"},
                ]
            )
        )
        nodes = cluster.load_manifest(manifest)
        assert [n.node_id for n in nodes] == ["n1", "n2"]

    @pytest.mark.parametrize("text", ["not json", '[{"node": "n1"}]', '{"node_id": "n1"}', "[3]"])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        manifest = tmp_path / "nodes.json"
        manifest.write_text(text)
        with pytest.raises(InvalidConfig):
            cluster.load_manifest(manifest)


def files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestIdentifierValidation:
    @pytest.mark.parametrize("user", ["../evil", "..", "a/b", "", "Alice"])
    def test_bad_user_rejected(self, world, tmp_path, user):
        shared, registry, login, computes = world
        before = files_under(tmp_path)
        with pytest.raises(InvalidConfig):
            shared.user_dir(user)
        with pytest.raises(InvalidConfig):
            attach_login(user, login, shared=shared, registry=registry)
        with pytest.raises(InvalidConfig):
            deploy_job(user, computes, shared=shared, registry=registry)
        with pytest.raises(InvalidConfig):
            release_job(user, computes, registry=registry)
        with pytest.raises(InvalidConfig):
            cluster.node_view(user, computes[0], registry=registry)
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("node_id", ["../../../escaped", "..", "a/b", "", ".hidden"])
    def test_bad_node_id_rejected(self, tmp_path, node_id):
        with pytest.raises(InvalidConfig):
            NodeHandle(node_id, tmp_path)
        manifest = tmp_path / "nodes.json"
        manifest.write_text(json.dumps([{"node_id": node_id, "node_root": str(tmp_path)}]))
        with pytest.raises(InvalidConfig):
            cluster.load_manifest(manifest)

    def test_deploy_writes_only_under_cluster_dir(self, world, tmp_path):
        shared, registry, login, computes = world
        attach_login("alice", login, shared=shared, registry=registry)
        outside = [p for p in files_under(tmp_path) if not p.startswith("state/cluster")]
        deploy_job("alice", computes, shared=shared, registry=registry)
        assert [p for p in files_under(tmp_path) if not p.startswith("state/cluster")] == outside


class TestAttachmentCost:
    def test_wall_time_independent_of_upper_size(self, world, tmp_path):
        """Attachment moves no bytes: a 100x bigger upper must not cost
        more than 2x (generous noise floor on sub-ms operations)."""
        shared, registry, login, computes = world

        def timed_deploy(user, payload_bytes):
            shared.ensure_user(user)
            (shared.upper(user) / "blob.bin").write_bytes(b"\xab" * payload_bytes)
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                deploy_job(user, computes, shared=shared, registry=registry)
                best = min(best, time.perf_counter() - t0)
                release_job(user, computes, registry=registry)
            return best

        small = timed_deploy("small-user", 1 * 1024 * 1024)
        large = timed_deploy("large-user", 100 * 1024 * 1024)
        assert large <= 2 * small + 0.01, (small, large)
