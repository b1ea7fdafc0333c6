"""The ``repro.tools`` command-line interface.

Seven subcommands, all operating on the paper's museum (or a synthetic
one via ``--painters/--paintings``):

- ``build`` — build the site under one architecture and write it to disk.
- ``diff`` — apply the paper's change request and report the impact.
- ``spec`` — print the navigation spec artifact for an access structure.
- ``artifacts`` — write the Figures 7–9 artifacts (data XML + links.xml).
- ``aop inspect`` — weave the navigation stack in a scoped runtime and
  report every woven site, its dispatch tier, and the runtime's codegen
  statistics (``--source Class.member`` dumps a generated wrapper).
- ``aop lint`` — statically analyze the weave plan behind example
  scripts (or an explicit ``--stack``) and verify every generated
  wrapper template, without deploying anything; the CI lint gate.
- ``serve`` — serve every audience live over HTTP (threaded WSGI, one
  instance-scoped stack per audience, sessions as plain data).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.aop import WeaverRuntime
from repro.baselines import TangledMuseumSite, museum_fixture, synthetic_museum
from repro.core import (
    NavigationAspect,
    NavigationSpec,
    PageRenderer,
    build_woven_site,
    build_xlink_site,
    default_museum_spec,
    export_museum_space,
)
from repro.metrics import all_impacts, format_table
from repro.xmlcore import serialize

MECHANISMS = ("tangled", "aspect", "xlink")


def _fixture(args: argparse.Namespace):
    if args.painters or args.paintings:
        return synthetic_museum(args.painters or 4, args.paintings or 5)
    return museum_fixture()


def _spec(args: argparse.Namespace) -> NavigationSpec:
    if args.spec_file:
        return NavigationSpec.from_text(Path(args.spec_file).read_text())
    return default_museum_spec(args.access)


def _site_text(fixture, mechanism: str, spec: NavigationSpec) -> dict[str, str]:
    if mechanism == "tangled":
        access = next(iter(spec.access.values())).kind
        if access == "guided-tour":
            raise SystemExit("the tangled baseline supports index/indexed-guided-tour")
        pages = TangledMuseumSite(fixture, access).build()
        return {p.path: p.html for p in pages.values()}
    if mechanism == "aspect":
        return build_woven_site(fixture, spec).as_text()
    if mechanism == "xlink":
        return build_xlink_site(fixture, spec).as_text()
    raise SystemExit(f"unknown mechanism {mechanism!r}")


def _write_tree(out: Path, files: dict[str, str]) -> int:
    for path, text in files.items():
        target = out / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text if text.endswith("\n") else text + "\n")
    return len(files)


def cmd_build(args: argparse.Namespace) -> int:
    fixture = _fixture(args)
    spec = _spec(args)
    files = _site_text(fixture, args.mechanism, spec)
    count = _write_tree(Path(args.out), files)
    print(f"wrote {count} pages to {args.out} ({args.mechanism}, {args.access})")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    fixture = _fixture(args)
    impacts = all_impacts(fixture)
    if args.mechanism != "all":
        impacts = [i for i in impacts if i.approach == args.mechanism]
        if not impacts:
            raise SystemExit(f"unknown mechanism {args.mechanism!r}")
    print(
        format_table(
            [
                "approach",
                "authored files",
                "authored lines",
                "built files",
                "built lines",
            ],
            [impact.row() for impact in impacts],
            title="Change impact: index -> indexed-guided-tour",
        )
    )
    return 0


def _print_woven_sites(runtime: WeaverRuntime, title: str) -> None:
    print(
        format_table(
            ["site", "kind", "tier", "scope", "aspect", "deployment"],
            [
                [
                    site.signature,
                    site.kind,
                    site.tier,
                    f"{site.scope_instances} inst" if site.scoped else "class",
                    site.aspect,
                    str(site.deployment_index),
                ]
                for site in runtime.woven_sites()
            ],
            title=title,
        )
    )


def _print_runtime_stats(runtime: WeaverRuntime) -> None:
    stats = runtime.stats()
    cache = stats["codegen_cache"]
    scopes = stats["scopes"]
    print(
        f"runtime {stats['name']!r}: {stats['deployments']} deployments "
        f"({stats['instance_scoped']} instance-scoped over {scopes['count']} "
        f"scopes / {scopes['instances']} instances), "
        f"{stats['woven_sites']} woven sites, "
        f"{stats['pools']['count']} join point pools, "
        f"{stats['cflow_watchers']} cflow watchers"
    )
    print(
        f"codegen cache: {cache['sources_compiled']} sources compiled, "
        f"{cache['compile_hits']} shape hits, "
        f"{cache['wrappers_built']} wrappers built"
    )


def _print_source(runtime: WeaverRuntime, signature: str) -> None:
    for deployment in runtime.deployments:
        per = runtime.deployment_stats(deployment)
        source = per.codegen_sources.get(signature)
        if source is not None:
            print(f"--- generated source for {signature} ---")
            print(source, end="")
            return
    raise SystemExit(
        f"aop inspect: no generated wrapper for {signature!r} "
        "(dynamic-residue shadows stay generic)"
    )


def cmd_aop_inspect(args: argparse.Namespace) -> int:
    """Weave the requested navigation stack and report what weaving did.

    Deploys one :class:`NavigationAspect` per stacked access structure
    into a scoped runtime (one transaction, one shadow scan of the
    renderer), prints every woven site with its dispatch tier and scope,
    then rolls the whole set back — the renderer class leaves this
    command exactly as it entered.  With ``--audiences``, an
    :class:`~repro.navigation.AudienceServer` is stood up instead and
    every audience's *instance-scoped* deployments are reported per
    scope (instance count, tiers, codegen stats).
    """
    fixture = _fixture(args)
    if args.audiences:
        return _aop_inspect_audiences(args, fixture)
    accesses = [a.strip() for a in args.stack.split(",") if a.strip()]
    if not accesses:
        raise SystemExit("aop inspect: --stack names no access structures")
    runtime = WeaverRuntime("aop-inspect")
    with runtime.transaction([PageRenderer]) as tx:
        for access in accesses:
            tx.add(NavigationAspect(default_museum_spec(access), fixture))
        title = " + ".join(accesses)
        if args.modules:
            import repro.xlink.resolver as resolver_module
            import repro.xmlcore.parser as parser_module

            tx.add(_module_tracing_aspect(), [parser_module, resolver_module])
            title += " + module tracing"
        try:
            _print_woven_sites(runtime, f"Woven sites: {title}")
            _print_runtime_stats(runtime)
            if args.source:
                _print_source(runtime, args.source)
        finally:
            tx.undeploy()
    return 0


def _aop_inspect_audiences(args: argparse.Namespace, fixture) -> int:
    """Stand up a live audience server and report its per-scope rows."""
    from repro.navigation import DEFAULT_AUDIENCES, AudienceServer

    names = [a.strip() for a in args.audiences.split(",") if a.strip()]
    stock = {bundle.name: bundle for bundle in DEFAULT_AUDIENCES}
    unknown = [name for name in names if name not in stock]
    if unknown:
        raise SystemExit(
            f"aop inspect: unknown audience(s) {', '.join(unknown)} "
            f"(stock bundles: {', '.join(stock)})"
        )
    bundles = [stock[name] for name in names]
    with AudienceServer(fixture, bundles) as server:
        runtime = server.runtime
        rows = []
        for audience in server.audiences():
            bundle = server.bundle(audience)
            for deployment in server.deployments(audience):
                per = runtime.deployment_stats(deployment)
                rows.append(
                    [
                        audience,
                        "+".join(bundle.access_structures),
                        per.aspect,
                        f"{per.scope_instances} inst",
                        str(per.method_members),
                        str(len(per.codegen_sources)),
                        str(per.pools),
                    ]
                )
        print(
            format_table(
                [
                    "audience",
                    "stack",
                    "aspect",
                    "scope",
                    "methods",
                    "codegen",
                    "pools",
                ],
                rows,
                title=f"Instance scopes: {' + '.join(names)}",
            )
        )
        _print_woven_sites(runtime, "Woven sites (all audiences)")
        _print_runtime_stats(runtime)
        if args.source:
            _print_source(runtime, args.source)
    return 0


def _scan_access_names(paths: list[str]) -> tuple[list[str], int]:
    """AST-scan example scripts for the access structures they weave.

    Collects string literals from ``default_museum_spec("...")`` calls,
    :class:`~repro.navigation.AudienceBundle` access tuples, and
    ``.set_access(ctx, "kind")`` spec edits — the three ways the shipped
    examples name an access structure.  Returns the sorted unique names
    and how many files were scanned.
    """
    import ast

    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.exists():
            files.append(path)
        else:
            raise SystemExit(
                f"aop lint: {raw} is neither a directory nor a .py file"
            )
    names: set[str] = set()
    for file in files:
        tree = ast.parse(file.read_text(), filename=str(file))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            else:
                continue
            literals: list[ast.expr] = []
            if callee == "default_museum_spec" and node.args:
                literals = [node.args[0]]
            elif callee == "AudienceBundle" and len(node.args) >= 2:
                arg = node.args[1]
                if isinstance(arg, (ast.Tuple, ast.List)):
                    literals = list(arg.elts)
            elif callee == "set_access" and len(node.args) >= 2:
                literals = [node.args[1]]
            for literal in literals:
                if isinstance(literal, ast.Constant) and isinstance(
                    literal.value, str
                ):
                    names.add(literal.value)
    return sorted(names), len(files)


def _module_tracing_aspect():
    """The lint stand-in for the example's module-weave workload."""
    from repro.aop import Aspect, execution, generator, proceed, return_

    class ModuleTracing(Aspect):
        @generator(execution("parser.parse") | execution("resolver.resolve_uri"))
        def trace(self, jp):
            result = yield proceed
            yield return_(result)

    return ModuleTracing()


def cmd_aop_lint(args: argparse.Namespace) -> int:
    """Statically analyze weave plans — nothing is deployed.

    Resolves the access structures the given example scripts weave (or an
    explicit ``--stack``), builds their navigation stack as a *plan*, and
    runs the full :mod:`repro.aop.analysis` battery over it: weave-plan
    lint, the advisory concurrency scan, and (unless ``--no-codegen``)
    source verification of every generated wrapper template shape.
    Findings print one per line with their stable ``APLxxx`` codes; the
    exit status is 1 when any error-severity finding exists (``--strict``
    fails on warnings and advisories too).
    """
    from repro.aop.analysis import (
        analyze_concurrency,
        analyze_deployment,
        enumerate_template_sources,
        verify_wrapper_source,
    )
    from repro.core.navspec import ACCESS_KINDS

    scanned = 0
    if args.stack:
        names = [a.strip() for a in args.stack.split(",") if a.strip()]
        if not names:
            raise SystemExit("aop lint: --stack names no access structures")
    elif args.paths:
        names, scanned = _scan_access_names(args.paths)
        if not names:
            raise SystemExit(
                "aop lint: the given paths weave no access structures"
            )
    else:
        names = list(ACCESS_KINDS)
    unknown = [name for name in names if name not in ACCESS_KINDS]
    if unknown:
        raise SystemExit(
            f"aop lint: unknown access structure(s) {', '.join(unknown)} "
            f"(known: {', '.join(ACCESS_KINDS)})"
        )
    fixture = _fixture(args)
    aspects = [
        NavigationAspect(default_museum_spec(name), fixture) for name in names
    ]
    diagnostics = analyze_deployment(aspects, [PageRenderer])
    diagnostics += analyze_concurrency(aspects)
    # The module-function plan: the same battery over module-level
    # weaving — the generator tracing aspect
    # examples/module_weave_tracing.py deploys over the XML substrate.
    import repro.xlink.resolver as resolver_module
    import repro.xmlcore.parser as parser_module

    module_targets = [parser_module, resolver_module]
    module_aspect = _module_tracing_aspect()
    diagnostics += analyze_deployment(module_aspect, module_targets)
    diagnostics += analyze_concurrency([module_aspect])
    shapes = 0
    if not args.no_codegen:
        for label, source in enumerate_template_sources():
            shapes += 1
            diagnostics += verify_wrapper_source(source, label=label)
    for diagnostic in diagnostics:
        print(diagnostic.format())
    summary = (
        f"{len(aspects)} aspect(s) over PageRenderer [{'+'.join(names)}], "
        f"1 generator aspect over {len(module_targets)} module(s), "
        f"{shapes} codegen template shapes verified"
    )
    if scanned:
        summary += f", {scanned} file(s) scanned"
    if diagnostics:
        errors = sum(1 for d in diagnostics if d.severity == "error")
        print(
            f"aop lint: {len(diagnostics)} finding(s), {errors} error(s) "
            f"({summary})"
        )
        return 1 if errors or args.strict else 0
    print(f"aop lint: no findings ({summary})")
    return 0


def _resolve_bundles(names_csv: str):
    from repro.navigation import DEFAULT_AUDIENCES

    names = [name.strip() for name in names_csv.split(",") if name.strip()]
    if not names:
        raise SystemExit("serve: --audiences names no bundles")
    stock = {bundle.name: bundle for bundle in DEFAULT_AUDIENCES}
    unknown = [name for name in names if name not in stock]
    if unknown:
        raise SystemExit(
            f"serve: unknown audience(s) {', '.join(unknown)} "
            f"(stock bundles: {', '.join(stock)})"
        )
    return [stock[name] for name in names]


def _snapshot_writer(args: argparse.Namespace):
    """The graceful-shutdown hook: snapshot live sessions to ``--snapshot``.

    Returns ``None`` when no snapshot path was given.  The written file
    is the ``{"sessions": [...]}`` document ``POST /-/sessions/restore``
    accepts, so a supervisor can feed a retired worker's sessions
    straight into its replacement.
    """
    if not args.snapshot:
        return None
    import json

    target = Path(args.snapshot)

    def on_drain(app) -> None:
        records = app.snapshot_sessions()
        target.write_text(
            json.dumps(
                {"sessions": [record.to_dict() for record in records]},
                indent=2,
            )
            + "\n"
        )
        print(
            f"serve: snapshotted {len(records)} session(s) to {target}",
            flush=True,
        )

    return on_drain


def _banner(args: argparse.Namespace, config, host: str, port: int, front: str):
    cache = "on" if config.cache_enabled else "off"
    print(
        f"serving audiences [{args.audiences}] on http://{host}:{port}/ "
        f"({front}, session idle timeout: {args.session_ttl:g}s, "
        f"page cache: {cache})",
        flush=True,
    )


def _cmd_serve_asgi(args: argparse.Namespace, fixture, bundles, config) -> int:
    """One asyncio worker: the ASGI front with a true close-then-drain."""
    import asyncio
    import signal

    from repro.navigation import serve_async

    async def run() -> None:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, shutdown.set)

        def ready(httpd) -> None:
            host, port = httpd.address
            _banner(args, config, host, port, "asgi")

        await serve_async(
            fixture,
            bundles,
            host=args.host,
            port=args.port,
            config=config,
            ready=ready,
            shutdown=shutdown,
            on_drain=_snapshot_writer(args),
        )

    asyncio.run(run())
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """The multi-process cluster: N workers behind the hashing front."""
    import asyncio
    import signal

    from repro.navigation.asgi import AsgiHttpServer
    from repro.navigation.cluster import ClusterFront, WorkerPool

    _resolve_bundles(args.audiences)  # fail fast before spawning anything
    pool = WorkerPool(
        args.workers,
        audiences=args.audiences,
        asgi_workers=args.asgi,
    )

    async def run() -> None:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, shutdown.set)
        httpd = AsgiHttpServer(ClusterFront(pool), args.host, args.port)
        await httpd.start()
        host, port = httpd.address
        print(
            f"serving audiences [{args.audiences}] on http://{host}:{port}/ "
            f"(cluster front, {args.workers} worker(s): "
            f"{', '.join(pool.names())})",
            flush=True,
        )
        serving = asyncio.ensure_future(httpd.serve_forever())
        await shutdown.wait()
        serving.cancel()
        httpd.close()
        await httpd.drain(timeout=5.0)
        await httpd.aclose()

    pool.start()
    try:
        asyncio.run(run())
    finally:
        pool.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the museum live: every audience's stack, every session's trail.

    Three fronts over the same :class:`~repro.navigation.NavigationApp`
    surface: the default threaded ``wsgiref`` server, ``--asgi`` for the
    single-process asyncio front, and ``--workers N`` for the
    multi-process cluster (a consistent-hashing reverse proxy over N
    serving children; sessions migrate between workers as portable
    records).  ``--port 0`` picks an ephemeral port; the bound address
    is printed (and flushed) before serving starts, so scripted callers
    — the CI smoke jobs — can parse it.  ``SIGTERM`` shuts down
    gracefully: stop accepting, drain, snapshot live sessions to
    ``--snapshot`` (if given), exit 0.
    """
    import signal
    import threading

    from repro.navigation import ServingConfig, serve

    if args.workers:
        return _cmd_serve_cluster(args)
    fixture = _fixture(args)
    bundles = _resolve_bundles(args.audiences)
    config = ServingConfig(
        session_idle_timeout=args.session_ttl,
        cache_enabled=not args.no_cache,
        cache_pages=args.cache_pages,
    )
    if args.asgi:
        return _cmd_serve_asgi(args, fixture, bundles, config)

    def ready(httpd) -> None:
        host, port = httpd.server_address[:2]
        _banner(args, config, host, port, "wsgi")

    def on_sigterm(signum, frame) -> None:
        # The WSGI loop's graceful exit path is its KeyboardInterrupt
        # handler (listener closes, sessions snapshot, stacks unwind,
        # exit 0); route SIGTERM through the same path.
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        # signal.signal is main-thread-only; embedded runs (tests drive
        # ``main()`` from a worker thread) just forgo SIGTERM handling.
        signal.signal(signal.SIGTERM, on_sigterm)
    serve(
        fixture,
        bundles,
        host=args.host,
        port=args.port,
        config=config,
        ready=ready,
        on_drain=_snapshot_writer(args),
    )
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    print(default_museum_spec(args.access).to_text(), end="")
    return 0


def cmd_artifacts(args: argparse.Namespace) -> int:
    fixture = _fixture(args)
    spec = _spec(args)
    space = export_museum_space(fixture, spec)
    files = {
        uri: serialize(space.document(uri), indent="  ", xml_declaration=True)
        for uri in space.uris()
    }
    count = _write_tree(Path(args.out), files)
    print(f"wrote {count} artifacts to {args.out} (data XML + links.xml)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="Build, diff and inspect the museum site three ways.",
    )
    parser.add_argument("--painters", type=int, default=0, help="synthetic museum size")
    parser.add_argument(
        "--paintings", type=int, default=0, help="paintings per painter"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a site and write it to disk")
    build.add_argument("--mechanism", choices=MECHANISMS, default="aspect")
    build.add_argument("--access", default="index")
    build.add_argument("--spec-file", help="load the navigation spec from a file")
    build.add_argument("--out", required=True)
    build.set_defaults(fn=cmd_build)

    diff = sub.add_parser("diff", help="report the change request's impact")
    diff.add_argument("--mechanism", choices=(*MECHANISMS, "all"), default="all")
    diff.set_defaults(fn=cmd_diff)

    spec = sub.add_parser("spec", help="print the navigation spec artifact")
    spec.add_argument("--access", default="index")
    spec.set_defaults(fn=cmd_spec)

    artifacts = sub.add_parser(
        "artifacts", help="write the Figures 7-9 artifacts (data + linkbase)"
    )
    artifacts.add_argument("--access", default="index")
    artifacts.add_argument("--spec-file")
    artifacts.add_argument("--out", required=True)
    artifacts.set_defaults(fn=cmd_artifacts)

    serve = sub.add_parser(
        "serve", help="serve every audience live over HTTP (threaded WSGI)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--audiences",
        default="visitor,curator",
        help="comma-separated stock bundles to serve (e.g. visitor,curator)",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=600.0,
        help="seconds of idleness before a session is evicted",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve every page by full render (disable the skeleton cache)",
    )
    serve.add_argument(
        "--cache-pages",
        type=int,
        default=256,
        help="per-audience page-cache capacity (LRU-evicted past this)",
    )
    serve.add_argument(
        "--asgi",
        action="store_true",
        help="serve under the single-process asyncio/ASGI front",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "run a multi-process cluster: N serving workers behind a "
            "consistent-hashing front (0 = single process)"
        ),
    )
    serve.add_argument(
        "--snapshot",
        help=(
            "on graceful shutdown, write live session records (JSON) here; "
            "feed the file to POST /-/sessions/restore to resume them"
        ),
    )
    serve.set_defaults(fn=cmd_serve)

    aop = sub.add_parser("aop", help="inspect the aspect-weaving runtime")
    aop_sub = aop.add_subparsers(dest="aop_command", required=True)
    inspect = aop_sub.add_parser(
        "inspect", help="weave a navigation stack and report the woven sites"
    )
    inspect.add_argument(
        "--stack",
        default="index",
        help="comma-separated access structures to stack (e.g. index,guided-tour)",
    )
    inspect.add_argument(
        "--source",
        help="dump the generated wrapper source for one site (Class.member)",
    )
    inspect.add_argument(
        "--audiences",
        help=(
            "serve these stock audience bundles live (comma-separated, e.g. "
            "visitor,curator) and report per-scope rows instead of --stack"
        ),
    )
    inspect.add_argument(
        "--modules",
        action="store_true",
        help=(
            "also weave the generator tracing aspect over the XML substrate's "
            "module-level functions and report those sites"
        ),
    )
    inspect.set_defaults(fn=cmd_aop_inspect)
    lint = aop_sub.add_parser(
        "lint", help="statically analyze weave plans without deploying"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="example scripts or directories to scan for woven access structures",
    )
    lint.add_argument(
        "--stack",
        help="comma-separated access structures to analyze instead of scanning",
    )
    lint.add_argument(
        "--no-codegen",
        action="store_true",
        help="skip the generated-template source verification",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on any finding, not just error-severity ones",
    )
    lint.set_defaults(fn=cmd_aop_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # `spec`/`diff` have no --spec-file/--access in every subparser; default them.
    for attr, default in (("spec_file", None), ("access", "index")):
        if not hasattr(args, attr):
            setattr(args, attr, default)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
