"""cue: container-based user environments from the command line.

Subcommands: create, enter, commit, deploy, release, bench, policy, list,
destroy.  Data goes to stdout, errors to stderr; exit codes are stable:
0 ok, 2 usage, 3 not found, 10 privilege required, 11 step failed,
12 duplicate/conflict, 13 lock busy, 14 stage failure.

Auto-enter on login is a shell-profile snippet, not a PAM module:

    # /etc/profile.d/cue.sh
    [ -n "$CUE_INSIDE" ] || CUE_INSIDE=1 exec cue enter "$USER"
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from . import bench as bench_mod
from . import cluster as cluster_mod
from . import commit as commit_mod
from .capabilities import root_sandbox_policy, user_policy
from .errors import CueError, Duplicate, InvalidConfig, NotFound, RegistryConflict
from .executor import execute, load_meta, recorded_config
from .planner import (
    DEFAULT_ENTRY,
    ROOT_SANDBOX_USER,
    default_config,
    plan_create,
    plan_sandbox_update,
)
from .registry import ContainerRecord, Registry, default_state_root

_WIDTH = 80


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=_WIDTH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cue",
        description="Per-user containers over a shared base system: overlay "
        "isolation, safe base updates, cluster deployment of user layers.",
        formatter_class=_formatter,
    )
    parser.add_argument(
        "--state-root",
        default=None,
        help="registry/state directory (default: $CUE_STATE_ROOT or /var/lib/cue)",
    )
    parser.add_argument(
        "--shared-root",
        default=None,
        help="cluster shared storage (default: $CUE_SHARED_ROOT or <state-root>/shared)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    create = sub.add_parser(
        "create",
        help="create a user container (or the root update sandbox)",
        formatter_class=_formatter,
    )
    create.add_argument("user", nargs="?", help="user identifier")
    create.add_argument("--hostname", default="", help="container hostname (default cue-<user>)")
    create.add_argument("--backend", choices=["sandbox", "kernel"], default="sandbox")
    create.add_argument("--host-root", default="/", help="base tree the container overlays")
    create.add_argument(
        "--root-sandbox",
        action="store_true",
        help="create the administrator's update sandbox instead of a user container",
    )

    enter = sub.add_parser(
        "enter",
        help="run a command (default: interactive shell) inside a container",
        formatter_class=_formatter,
    )
    enter.add_argument("user")
    enter.add_argument("--root-sandbox", action="store_true")
    enter.add_argument("run_args", nargs=argparse.REMAINDER, metavar="COMMAND",
                       help="command after --; default: the container's entry shell")

    commit_p = sub.add_parser(
        "commit",
        help="merge the root sandbox's upper layer into the base (transactional)",
        formatter_class=_formatter,
    )
    commit_p.add_argument("--sandbox-of-root", action="store_true",
                          help="merge the root sandbox (the only supported source)")

    deploy = sub.add_parser(
        "deploy",
        help="attach a user's shared upper layer onto compute nodes",
        formatter_class=_formatter,
    )
    deploy.add_argument("user")
    deploy.add_argument("--nodes", required=True, help="nodes.json manifest")
    deploy.add_argument("--format", choices=["text", "json"], default="text")
    deploy.add_argument("--pre-hook", default=None,
                        help="shell command to run before attaching (job-manager seam)")
    deploy.add_argument("--post-hook", default=None,
                        help="shell command to run after attaching")

    release = sub.add_parser(
        "release",
        help="detach a user's layer from compute nodes (shared upper kept)",
        formatter_class=_formatter,
    )
    release.add_argument("user")
    release.add_argument("--nodes", required=True, help="nodes.json manifest")
    release.add_argument("--format", choices=["text", "json"], default="text")

    bench = sub.add_parser("bench", help="measure runtime overheads", formatter_class=_formatter)
    bench_sub = bench.add_subparsers(dest="scenario", required=True, metavar="SCENARIO")

    b_start = bench_sub.add_parser("startup", help="container startup time", formatter_class=_formatter)
    b_start.add_argument("-n", type=int, default=100, help="number of containers")
    b_start.add_argument("--backend", choices=["sandbox", "kernel"], default="sandbox")
    b_start.add_argument("--host-root", default=None,
                        help="base tree (default: a small throwaway one)")

    b_stress = bench_sub.add_parser(
        "stress", help="file-operation stress on the layered view", formatter_class=_formatter
    )
    b_stress.add_argument("--scenario", dest="stress_scenario", required=True,
                          choices=list(bench_mod.STRESS_SCENARIOS))
    b_stress.add_argument("--count", type=int, default=10_000, help="small-file count")
    b_stress.add_argument("--size", type=int, default=16, help="small-file size in bytes")
    b_stress.add_argument("--big-bytes", type=int, default=1024**3,
                          help="big-file size in bytes (desk scale: >= 64 MiB)")
    b_stress.add_argument("--iterations", type=int, default=3)
    b_stress.add_argument("--seed", type=int, default=2026)
    b_stress.add_argument("--workdir", default=None, help="scratch area (default <state-root>/bench)")

    b_exec = bench_sub.add_parser(
        "exec", help="command overhead inside vs outside a container", formatter_class=_formatter
    )
    b_exec.add_argument("-n", type=int, default=10, help="repetitions")
    b_exec.add_argument("--backend", choices=["sandbox", "kernel"], default="sandbox")
    b_exec.add_argument("--host-root", default=None,
                       help="base tree (default: a small throwaway one)")
    b_exec.add_argument("run_args", nargs=argparse.REMAINDER, metavar="COMMAND",
                        help="command after --")

    for scenario_parser in (b_start, b_stress, b_exec):
        scenario_parser.add_argument("--out", default=None, help="write JSON report to a file")
        scenario_parser.add_argument("--csv", default=None, help="also write a CSV of raw samples")
        scenario_parser.add_argument("--format", choices=["json", "text"], default="json",
                                     help="stdout format (the report file is always JSON)")

    policy = sub.add_parser("policy", help="inspect the capability policy", formatter_class=_formatter)
    policy_sub = policy.add_subparsers(dest="action", required=True, metavar="ACTION")
    dump = policy_sub.add_parser("dump", help="print the decision table", formatter_class=_formatter)
    dump.add_argument("--root-sandbox", action="store_true",
                      help="dump the root update sandbox's table")

    list_p = sub.add_parser("list", help="list registered containers", formatter_class=_formatter)
    list_p.add_argument("--format", choices=["text", "json"], default="text")

    destroy = sub.add_parser(
        "destroy", help="remove a container record and its layers", formatter_class=_formatter
    )
    destroy.add_argument("user")
    destroy.add_argument("--root-sandbox", action="store_true")
    destroy.add_argument("--yes", action="store_true", help="confirm destruction")

    # the global options are also accepted after the subcommand; SUPPRESS
    # keeps a subparser's unset default from clobbering the parsed value
    for scoped in (create, enter, commit_p, deploy, release, policy, list_p,
                   destroy, b_start, b_stress, b_exec):
        scoped.add_argument("--state-root", default=argparse.SUPPRESS,
                            help=argparse.SUPPRESS)
        scoped.add_argument("--shared-root", default=argparse.SUPPRESS,
                            help=argparse.SUPPRESS)

    return parser


def _state_root(args) -> str:
    return args.state_root or default_state_root()


def _shared_root(args) -> str:
    return (
        args.shared_root
        or os.environ.get(cluster_mod.SHARED_ROOT_ENV)
        or str(Path(_state_root(args)) / "shared")
    )


def _split_remainder(argv: list[str]) -> list[str]:
    """The command after the options; an option argparse left in front of
    it (the remainder takes everything after the positionals) is refused."""
    if argv and argv[0] != "--" and argv[0].startswith("-"):
        raise InvalidConfig("command", f"unrecognized option {argv[0]}; put the command after --")
    return argv[1:] if argv[:1] == ["--"] else argv


def _kind(args) -> str:
    return "RootSandbox" if getattr(args, "root_sandbox", False) else "User"


def _named_user(args, form: str) -> str:
    """The user enter or destroy names; with --root-sandbox it must be the
    sandbox's, so the first word of a command is never taken for it."""
    if args.root_sandbox and args.user != ROOT_SANDBOX_USER:
        raise InvalidConfig(
            "user", f"{args.user!r} with --root-sandbox; the form is "
            f"`cue {args.command} --root-sandbox {ROOT_SANDBOX_USER} {form}`"
        )
    return args.user


def _recover_commits(registry: Registry) -> None:
    """Finish or abort a commit a dead process left before a root sandbox
    opens: the replay clears the sandbox's upper layer, so it must not
    wait for the next commit and take the edits made meanwhile with it."""
    with registry.acquire_commit_lock(blocking=False):
        commit_mod.recover(registry.journal_dir())


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_create(args) -> int:
    state_root = _state_root(args)
    registry = Registry(state_root)
    if args.root_sandbox:
        if args.user:
            raise InvalidConfig("user", "--root-sandbox takes no user argument")
        user = ROOT_SANDBOX_USER
        scratch = str(Path(state_root) / "volumes" / "rootsandbox" / user)
        plan = plan_sandbox_update(args.host_root, scratch)
    else:
        if not args.user:
            raise InvalidConfig("user", "user argument required")
        user = args.user
        plan = plan_create(
            default_config(
                user,
                state_root=state_root,
                host_root=args.host_root,
                hostname=args.hostname,
            )
        )
    kind = _kind(args)
    if registry.lookup(user, kind) is not None:
        raise Duplicate(f"container already registered: {kind}/{user}")
    if args.root_sandbox:
        _recover_commits(registry)
    execute(plan, args.backend)
    registry.register(ContainerRecord.of(plan.config, kind=kind))
    print(f"created {kind}/{user} (backend={args.backend})")
    return 0


def cmd_enter(args) -> int:
    registry = Registry(_state_root(args))
    kind = _kind(args)
    user = _named_user(args, "-- CMD")
    command = tuple(_split_remainder(args.run_args))
    record = registry.lookup(user, kind)
    if record is None:
        raise NotFound(f"no such container: {kind}/{user}")
    # the container as recorded, and always its recorded backend: overlayfs would
    # read a sandbox upper's .wh.* markers as plain files, bringing deleted base files back
    meta = load_meta(record.work_dir)  # NotFound when missing: never guess the base
    entry = command or DEFAULT_ENTRY
    if kind == "RootSandbox":
        _recover_commits(registry)
        (lower,) = meta["lowers"]
        plan = plan_sandbox_update(lower, str(Path(meta["upper"]).parent), entry_command=entry)
    else:
        plan = plan_create(recorded_config(meta, entry))
    registry.set_status(user, kind, "Running")
    after = "Stopped"
    try:
        report = execute(plan, meta["backend"], run_entry=True)
    except RegistryConflict:
        after = record.status  # refused: the execution holding the upper owns the status
        raise
    finally:
        registry.set_status(user, kind, after)
    return report.entry_exit_code or 0


def cmd_commit(args) -> int:
    state_root = _state_root(args)
    registry = Registry(state_root)
    record = registry.lookup(ROOT_SANDBOX_USER, "RootSandbox")
    if record is None:
        raise NotFound("no root sandbox; run `cue create --root-sandbox` first")
    (lower,) = load_meta(record.work_dir)["lowers"]  # NotFound when missing: never guess the base
    with registry.acquire_commit_lock(blocking=False):
        result = commit_mod.run_commit(lower, record.upper_dir, registry.journal_dir())
    # the journal is retained under the state root and mirrored into the
    # container's work directory for inspection alongside its transcript
    work = Path(record.work_dir)
    if work.is_dir():
        shutil.copyfile(result.journal_path, work / "merge.journal")
    print(f"committed {len(result.entries)} entries; journal {result.journal_path}")
    return 0


def cmd_deploy(args) -> int:
    registry = Registry(_state_root(args))
    shared = cluster_mod.SharedLayout(Path(_shared_root(args)))
    nodes = cluster_mod.load_manifest(args.nodes)
    try:
        result = cluster_mod.deploy_job(
            args.user, nodes, shared=shared, registry=registry, pre_hook=args.pre_hook
        )
    except subprocess.CalledProcessError as err:
        print(f"cue: pre-hook {err.cmd!r} exited with status {err.returncode}; "
              "no node was attached", file=sys.stderr)
        return 11
    _print_nodes(result, args.format)
    try:  # after the nodes are printed: they stay attached whatever it does
        cluster_mod.run_hook(args.post_hook)
    except subprocess.CalledProcessError as err:
        print(f"cue: post-hook {err.cmd!r} exited with status {err.returncode}; the nodes "
              f"are attached: `cue release {args.user} --nodes {args.nodes}` releases them",
              file=sys.stderr)
        return 11
    return 11 if any(n.status == "Failed" for n in result.per_node) else 0


def _print_nodes(result: cluster_mod.DeploymentResult, fmt: str) -> None:
    if fmt == "json":
        print(result.to_json())
        return
    for node in result.per_node:
        detail = f" ({node.detail})" if node.detail else ""
        print(f"{node.node_id} {node.status}{detail} [{node.elapsed_us} us]")


def cmd_release(args) -> int:
    registry = Registry(_state_root(args))
    nodes = cluster_mod.load_manifest(args.nodes)
    result = cluster_mod.release_job(args.user, nodes, registry=registry)
    _print_nodes(result, args.format)
    if any(n.status == "Failed" for n in result.per_node):
        return 11
    return 3 if any(n.status == "NotFound" for n in result.per_node) else 0


@contextlib.contextmanager
def _bench_host(host_root: str | None) -> Iterator[str]:
    """The given base tree, or a small throwaway one removed afterwards."""
    if host_root is not None:
        yield host_root
        return
    with tempfile.TemporaryDirectory(prefix="cue-bench-host-") as td:
        (Path(td) / "bin").mkdir()
        (Path(td) / "bin" / "sh").write_bytes(b"#!")
        yield td


def cmd_bench(args) -> int:
    state_root = _state_root(args)
    registry = Registry(state_root)
    # benchmarks serialize on the commit lock so nothing contaminates them
    with registry.acquire_commit_lock(blocking=False):
        if args.scenario == "startup":
            with _bench_host(args.host_root) as host_root:
                report = bench_mod.bench_startup(
                    args.n,
                    state_root=str(Path(state_root) / "bench-state"),
                    host_root=host_root,
                    backend=args.backend,
                )
        elif args.scenario == "stress":
            spec = bench_mod.StressSpec(
                args.stress_scenario,
                small_count=args.count,
                small_size=args.size,
                big_bytes=args.big_bytes,
                seed=args.seed,
                iterations=args.iterations,
            )
            workdir = Path(args.workdir or (Path(state_root) / "bench"))
            workdir.mkdir(parents=True, exist_ok=True)
            report = bench_mod.bench_file_stress(spec, workdir=workdir)
        else:
            command = _split_remainder(args.run_args)
            if not command:
                raise InvalidConfig("command", "bench exec needs a command after --")
            with _bench_host(args.host_root) as host_root:
                report = bench_mod.bench_exec(
                    command,
                    args.n,
                    state_root=str(Path(state_root) / "bench-state"),
                    host_root=host_root,
                    backend=args.backend,
                )
    payload = report.to_json()
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    elif args.format == "text":
        summary = report.summary
        line = (
            f"{report.scenario}: n={report.n_iterations} "
            f"mean={summary.mean/1000:.3f}ms median={summary.median/1000:.3f}ms "
            f"p95={summary.p95/1000:.3f}ms"
        )
        if report.overhead_ratio is not None:
            line += f" overhead={report.overhead_ratio:+.4f}"
        print(line)
    else:
        print(payload, end="")
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    return 0


def cmd_policy(args) -> int:
    policy = root_sandbox_policy() if args.root_sandbox else user_policy()
    print(policy.dump(), end="")
    return 0


def cmd_list(args) -> int:
    registry = Registry(_state_root(args))
    records = registry.list()
    if args.format == "json":
        print(json.dumps([json.loads(r.to_json()) for r in records], indent=2))
        return 0
    for record in records:
        print(f"{record.user}\t{record.kind}\t{record.status}\t{record.hostname}")
    return 0


def cmd_destroy(args) -> int:
    if not args.yes:
        print("refusing to destroy without --yes", file=sys.stderr)
        return 2
    registry = Registry(_state_root(args))
    kind = _kind(args)
    user = _named_user(args, "--yes")
    record = registry.lookup(user, kind)
    if record is None:
        raise NotFound(f"no such container: {kind}/{user}")
    # a record is a file under the state root; never let it name a tree
    # outside it for removal
    root = os.path.realpath(_state_root(args))
    paths = (record.merged_dir, record.work_dir, record.upper_dir)
    for field, path in zip(("merged_dir", "work_dir", "upper_dir"), paths):
        real = os.path.realpath(path)
        if real == root or os.path.commonpath([root, real]) != root:
            raise InvalidConfig(field, f"{path} is not under the state root {root}")
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)
    registry.remove(user, kind)
    print(f"destroyed {kind}/{user}")
    return 0


_HANDLERS = {
    "create": cmd_create,
    "enter": cmd_enter,
    "commit": cmd_commit,
    "deploy": cmd_deploy,
    "release": cmd_release,
    "bench": cmd_bench,
    "policy": cmd_policy,
    "list": cmd_list,
    "destroy": cmd_destroy,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CueError as err:
        print(f"cue: {err}", file=sys.stderr)
        return err.exit_code
    except FileNotFoundError as err:
        print(f"cue: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
