"""End-to-end serving smoke: the CI gate for the HTTP front.

Boots the *real* CLI stack — ``python -m repro.tools serve`` in a child
process, on an ephemeral port — and drives it the way the acceptance bar
demands: concurrent requests against two audiences and two sessions
(plus a threaded storm of both), asserting

- every response is 2xx,
- no cross-audience bleed (the visitor's guided tour never shows up on a
  curator page and vice versa),
- no cross-session bleed (each session's breadcrumb trail names only its
  own pages),
- a live ``POST /-/reconfigure/{audience}`` changes only the targeted
  audience's next response,
- the skeleton cache serves warm repeats as hits, re-renders (never a
  stale page) after a reconfigure, and splices only the requesting
  session's breadcrumb fragment into a cached skeleton,
- the child process exits cleanly with no traceback on stderr.

Run under both wrapper tiers in CI (and once with the page cache off)::

    REPRO_AOP_CODEGEN=1 python -m repro.tools.serve_smoke
    REPRO_AOP_CODEGEN=0 python -m repro.tools.serve_smoke
    python -m repro.tools.serve_smoke --no-cache

Exit status 0 on success; any failure prints the offending evidence and
exits 1.  ``--requests`` trims the storm for quick local runs;
``--no-cache`` passes ``--no-cache`` to the child's ``serve`` and checks
that every page reports the cache off.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request

GUITAR = "PaintingNode/guitar.html"
_BREADCRUMBS = re.compile(r'<nav class="breadcrumbs">(.*?)</nav>', re.DOTALL)


class SmokeFailure(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _get(base: str, path: str, sid: str | None = None) -> tuple[int, str]:
    status, _, body = _get_full(base, path, sid)
    return status, body


def _get_full(base: str, path: str, sid: str | None = None):
    """``(status, headers, body)`` — headers are case-insensitive."""
    request = urllib.request.Request(base + path)
    if sid is not None:
        request.add_header("X-Repro-Session", sid)
    with urllib.request.urlopen(request, timeout=10) as response:
        return (
            response.status,
            response.headers,
            response.read().decode("utf-8"),
        )


def _post(base: str, path: str, body: str) -> tuple[int, str]:
    request = urllib.request.Request(
        base + path, data=body.encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def breadcrumb_hrefs(html: str) -> list[str]:
    """The hrefs inside the page's (session-private) breadcrumb block."""
    block = _BREADCRUMBS.search(html)
    if block is None:
        return []
    return re.findall(r'href="([^"]+)"', block.group(1))


def _storm(base: str, requests_per_session: int) -> None:
    """Two audiences × two sessions each, hammered from four threads."""
    plans = [
        ("visitor", "smoke-v1", "PaintingNode/guernica.html"),
        ("visitor", "smoke-v2", "PaintingNode/violin.html"),
        ("curator", "smoke-c1", "PaintingNode/memory.html"),
        ("curator", "smoke-c2", "PaintingNode/elephants.html"),
    ]
    own_basename = {sid: page.rsplit("/", 1)[1] for _, sid, page in plans}
    errors: list[BaseException] = []
    start = threading.Barrier(len(plans))

    def run(audience: str, sid: str, own_page: str) -> None:
        try:
            start.wait(timeout=10)
            for _ in range(requests_per_session):
                status, _ = _get(base, f"/{audience}/index.html", sid)
                _check(status == 200, f"{sid}: home returned {status}")
                status, html = _get(base, f"/{audience}/{own_page}", sid)
                _check(status == 200, f"{sid}: {own_page} returned {status}")
                # Cross-audience bleed: the guided tour is visitor-only
                # (edge-of-tour pages carry only one of next/prev).
                has_tour = 'rel="next"' in html or 'rel="prev"' in html
                _check(
                    has_tour == (audience == "visitor"),
                    f"{sid}: audience bleed on {own_page} "
                    f"(tour={'present' if has_tour else 'absent'})",
                )
                # Cross-session bleed: my trail only ever names my pages.
                for href in breadcrumb_hrefs(html):
                    basename = href.rsplit("/", 1)[-1]
                    foreign = [
                        other
                        for other_sid, other in own_basename.items()
                        if other_sid != sid and other == basename
                    ]
                    _check(
                        not foreign,
                        f"{sid}: session bleed — trail names {href!r}",
                    )
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=plan, daemon=True) for plan in plans
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    hung = [thread for thread in threads if thread.is_alive()]
    if hung:
        raise SmokeFailure(
            f"storm failed: {len(hung)} worker thread(s) still running after "
            "the join timeout (wedged request?)"
        )
    if errors:
        raise SmokeFailure(f"storm failed: {errors[0]}") from errors[0]


def drive(base: str, requests_per_session: int, *, cache: bool = True) -> None:
    """The full scenario against a live server at *base*.

    *cache* says whether the child serves with its page cache on.
    """
    # Phase 0: the front door and both audiences' distinct stacks.
    status, front = _get(base, "/")
    _check(status == 200 and "visitor" in front, "front door broken")
    status, visitor = _get(base, f"/visitor/{GUITAR}", "smoke-v1")
    _check(status == 200, f"visitor page returned {status}")
    _check('rel="next"' in visitor, "visitor lost the guided tour")
    status, curator = _get(base, f"/curator/{GUITAR}", "smoke-c1")
    _check(status == 200, f"curator page returned {status}")
    _check('rel="next"' not in curator, "curator shows the visitor's tour")

    # Phase 1: concurrent sessions, no bleed anywhere.
    _storm(base, requests_per_session)

    # Phase 2: expected failures stay well-formed HTTP errors.
    for path, expected in (
        ("/stranger/index.html", 404),
        ("/visitor/ghost.html", 404),
        ("/-/nope", 404),
    ):
        try:
            status, _ = _get(base, path, "smoke-v1")
            raise SmokeFailure(f"{path} returned {status}, wanted {expected}")
        except urllib.error.HTTPError as exc:
            _check(exc.code == expected, f"{path}: {exc.code} != {expected}")

    # Phase 3: live reconfigure changes only the targeted audience.
    # Let the visitor's page settle (trail dedups on revisit) first.
    _get(base, f"/visitor/{GUITAR}", "smoke-v1")
    _, visitor_before = _get(base, f"/visitor/{GUITAR}", "smoke-v1")
    status, _ = _post(base, "/-/reconfigure/curator", "indexed-guided-tour")
    _check(status == 200, f"reconfigure returned {status}")
    status, curator_after = _get(base, f"/curator/{GUITAR}", "smoke-c1")
    _check(status == 200, f"curator page returned {status} after reconfigure")
    _check('rel="next"' in curator_after, "curator reconfigure had no effect")
    _, visitor_after = _get(base, f"/visitor/{GUITAR}", "smoke-v1")
    _check(
        visitor_before == visitor_after,
        "reconfiguring the curator changed the visitor's page",
    )

    # Phase 4: the management stats expose sessions and scopes.
    status, raw = _get(base, "/-/stats")
    _check(status == 200, f"stats returned {status}")
    stats = json.loads(raw)
    # Four (session, audience) pairs: two sids per audience, reused
    # across every phase above.
    _check(
        stats["sessions"]["active"] == 4,
        f"expected 4 live sessions, saw {stats['sessions']['active']}",
    )
    runtime = stats["runtime"]
    _check(
        runtime["instance_scoped"] == runtime["deployments"],
        "expected every deployment to be instance-scoped",
    )
    # Sessions weave nothing: one scope per audience, holding its renderer.
    audiences = len(stats["audiences"])
    _check(
        runtime["scopes"] == {"count": audiences, "instances": audiences},
        f"scopes grew past one per audience: {runtime['scopes']}",
    )

    # Phase 5: the skeleton cache end to end — warm repeats hit, a
    # reconfigure re-renders (never a stale page), and a cached skeleton
    # carries only the requesting session's breadcrumb fragment.
    cache_stats = stats["audiences"]["visitor"]["cache"]
    _check(
        cache_stats["enabled"] == cache,
        f"page cache enabled={cache_stats['enabled']}, expected {cache}",
    )
    if not cache:
        # The --no-cache leg: every response is a full render and says so.
        status, headers, _ = _get_full(base, f"/visitor/{GUITAR}", "smoke-v1")
        _check(
            headers.get("X-Repro-Cache") == "off",
            f"cache disabled but outcome is {headers.get('X-Repro-Cache')!r}",
        )
        return
    epoch_before = stats["audiences"]["visitor"]["weave_epoch"]
    _, h1, body1 = _get_full(base, f"/visitor/{GUITAR}", "smoke-v1")
    _, h2, body2 = _get_full(base, f"/visitor/{GUITAR}", "smoke-v1")
    _check(
        h2.get("X-Repro-Cache") == "hit",
        f"warm repeat not served from cache ({h2.get('X-Repro-Cache')!r})",
    )
    _check(body1 == body2, "a cache hit changed the page bytes")
    status, _ = _post(base, "/-/reconfigure/visitor", "index")
    _check(status == 200, f"visitor reconfigure returned {status}")
    _, h3, body3 = _get_full(base, f"/visitor/{GUITAR}", "smoke-v1")
    _check(
        h3.get("X-Repro-Cache") == "miss",
        "post-reconfigure request was not re-rendered "
        f"({h3.get('X-Repro-Cache')!r})",
    )
    _check(
        'rel="next"' not in body3,
        "reconfigured visitor still shows the tour — stale cached skeleton",
    )
    status, raw = _get(base, "/-/stats")
    after = json.loads(raw)["audiences"]["visitor"]
    _check(
        after["weave_epoch"] > epoch_before,
        f"reconfigure left the weave epoch at {after['weave_epoch']}",
    )
    _check(after["cache"]["hits"] >= 1, f"no cache hits counted: {after['cache']}")
    # smoke-v2 fetches the page smoke-v1 just cached: a hit whose trail
    # block must name only v2's own history (violin, never guernica).
    _, h4, body4 = _get_full(base, f"/visitor/{GUITAR}", "smoke-v2")
    _check(
        h4.get("X-Repro-Cache") == "hit",
        f"v2's fetch of a cached page missed ({h4.get('X-Repro-Cache')!r})",
    )
    hrefs = breadcrumb_hrefs(body4)
    _check(hrefs, "smoke-v2's trail missing from the cached page")
    _check(
        not any("guernica" in href for href in hrefs),
        f"session bleed on the cache-hit path: v1's page in v2's trail {hrefs}",
    )


def _read_banner(
    child: subprocess.Popen, *, timeout: float
) -> tuple[str, threading.Thread]:
    """The child's first stdout line (``""`` if it hangs past *timeout*).

    ``readline()`` on a wedged child (server deadlocks before printing its
    banner) would block this process forever — until the CI job timeout —
    so the read runs on a daemon thread and a silent child is reported as
    an ordinary no-banner failure instead.  The reader thread is returned
    so the caller can kill the child and join it before anything else
    touches ``child.stdout`` (two concurrent readers on one stream are
    unsafe).
    """
    holder: dict[str, str] = {}

    def read() -> None:
        holder["line"] = child.stdout.readline()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=timeout)
    return holder.get("line", ""), reader


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=15)
    parser.add_argument(
        "--audiences", default="visitor,curator", help="bundles for the child"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve the child with its page cache off",
    )
    options = parser.parse_args(argv)

    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.tools",
            "serve",
            "--port",
            "0",
            "--audiences",
            options.audiences,
            *(["--no-cache"] if options.no_cache else []),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner, banner_reader = _read_banner(child, timeout=30.0)
        match = re.search(r"http://([\d.]+):(\d+)/", banner)
        if match is None:
            # Kill first: EOF unblocks the reader thread, which must be
            # done with child.stdout before communicate() reads it too.
            child.kill()
            banner_reader.join(timeout=10)
            _, stderr = child.communicate(timeout=10)
            print(f"no serving banner (got {banner!r})", file=sys.stderr)
            print(stderr, file=sys.stderr)
            return 1
        base = f"http://{match.group(1)}:{match.group(2)}"
        print(f"serve-smoke: child {child.pid} serving at {base}")
        drive(base, options.requests, cache=not options.no_cache)
    except SmokeFailure as failure:
        print(f"serve-smoke FAILED: {failure}", file=sys.stderr)
        child.kill()
        _, stderr = child.communicate(timeout=10)
        if stderr:
            print("--- child stderr ---", file=sys.stderr)
            print(stderr, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGINT)
    try:
        _, stderr = child.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        child.kill()
        _, stderr = child.communicate(timeout=10)
        print("serve-smoke FAILED: child ignored SIGINT", file=sys.stderr)
        print(stderr, file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(
            f"serve-smoke FAILED: child exited {child.returncode}",
            file=sys.stderr,
        )
        print(stderr, file=sys.stderr)
        return 1
    if "Traceback" in stderr:
        print("serve-smoke FAILED: traceback on child stderr:", file=sys.stderr)
        print(stderr, file=sys.stderr)
        return 1
    print(
        "serve-smoke passed: two audiences, concurrent sessions, "
        "cache-coherent reconfigures, zero bleed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
