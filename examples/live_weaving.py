#!/usr/bin/env python3
"""Live weaving: reconfigure navigation while a user is browsing.

Uses the persistent :class:`NavigationWeaver` and its lazy page provider —
pages render on demand through the deployed aspect, so swapping the
navigation spec between two requests changes what the *next* page shows.
The landmark aspect is composed on top, showing two navigation concerns
woven independently.

The second act serves **two audiences at once** from one live process:
an :class:`AudienceServer` weaves each audience's stack into a private
``PageRenderer`` subclass (the base class is never woven), so
a visitor browsing the guided tour and a curator browsing the bare index
get different navigation from the same base program, concurrently — and
reconfiguring one audience leaves the other's pages untouched.

The third act puts the whole thing behind **real HTTP**: a threaded WSGI
server over the audience server, driven here with ``urllib``.  Each
session keeps its own breadcrumb trail, spliced into the audience's
page, and a live ``POST /-/reconfigure/curator`` changes only the curator's
next response.

Run:  python examples/live_weaving.py
"""

from repro.aop import WeaverRuntime
from repro.baselines import museum_fixture
from repro.core import (
    LandmarkAspect,
    NavigationWeaver,
    PageRenderer,
    default_museum_landmarks,
    default_museum_spec,
)
from repro.navigation import AudienceBundle, AudienceServer, UserAgent


def main() -> None:
    fixture = museum_fixture()
    weaver = NavigationWeaver(fixture, default_museum_spec("index"))

    # Deploy the landmark aspect FIRST: reconfigure() re-weaves the
    # navigation aspect, and weaving unwinds LIFO — the reconfigured
    # deployment must sit on top of the stack.
    landmark_weaver = WeaverRuntime("landmarks")
    landmark_weave = landmark_weaver.weave(
        [PageRenderer], LandmarkAspect(default_museum_landmarks())
    )
    try:
        with weaver:
            agent = UserAgent(weaver.provider())
            page = agent.open("PaintingNode/guitar.html")
            print("with the Index spec, Guitar offers:")
            for anchor in page.anchors:
                print(f"  [{anchor.rel:9}] {anchor.label}")
            print("  (no Next/Previous yet)")

            print("\n-- the customer calls: reconfigure, no page edited --\n")
            weaver.reconfigure(default_museum_spec("indexed-guided-tour"))

            page = agent.open("PaintingNode/guitar.html")
            print("after reconfigure, the same request shows:")
            for anchor in page.anchors:
                print(f"  [{anchor.rel:9}] {anchor.label}")

            print("\nbrowsing straight through the new tour:")
            print("  next ->", agent.follow_rel("next").uri)
            print("  home via landmark ->", agent.click("Museum home").uri)
    finally:
        landmark_weave.undeploy()

    print("\nafter undeploy, the base program renders no anchors:")
    plain = PageRenderer(fixture).render_node(fixture.painting_node("guitar"))
    print("  anchors:", plain.anchors())

    serve_two_audiences(fixture)


def serve_two_audiences(fixture) -> None:
    """Two audiences, one live process, one woven renderer subclass each."""
    print("\n== serving two audiences live (one generation each) ==\n")
    bundles = [
        AudienceBundle("visitor", ("index", "guided-tour")),
        AudienceBundle("curator", ("index",)),
    ]
    with AudienceServer(fixture, bundles) as server:
        visitor = UserAgent(server.provider("visitor"))
        curator = UserAgent(server.provider("curator"))

        # Interleaved requests; each audience sees only its own stack.
        visitor_page = visitor.open("PaintingNode/guitar.html")
        curator_page = curator.open("PaintingNode/guitar.html")
        print("visitor sees Guitar with:")
        for anchor in visitor_page.anchors:
            print(f"  [{anchor.rel:9}] {anchor.label}")
        print("curator sees the same page with:")
        for anchor in curator_page.anchors:
            print(f"  [{anchor.rel:9}] {anchor.label}")

        print("\n-- the curators want the tour too; visitors unchanged --\n")
        server.reconfigure("curator", ("indexed-guided-tour",))
        print("curator's next request follows the tour:")
        print("  next ->", curator.open("PaintingNode/guitar.html").uri, end="")
        print(" ->", curator.follow_rel("next").uri)
        print("visitor still sees", len(visitor.open(visitor_page.uri).anchors),
              "anchors (unchanged)")

    plain = PageRenderer(fixture).render_node(fixture.painting_node("guitar"))
    print("\nserver closed; the base program renders no anchors:", plain.anchors())

    serve_over_http(fixture)


def serve_over_http(fixture) -> None:
    """Act three: the same arrangement behind a real HTTP server."""
    import threading
    import urllib.request

    from repro.navigation import NavigationApp
    from repro.navigation.http import make_wsgi_server

    print("\n== serving over HTTP (threaded WSGI, per-session trails) ==\n")
    bundles = [
        AudienceBundle("visitor", ("index", "guided-tour")),
        AudienceBundle("curator", ("index",)),
    ]
    with AudienceServer(fixture, bundles) as server:
        app = NavigationApp(server)
        httpd = make_wsgi_server(app)  # port 0: ephemeral
        base = "http://127.0.0.1:%d" % httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        print("serving at", base)

        def get(path, session):
            request = urllib.request.Request(base + path)
            request.add_header("X-Repro-Session", session)
            with urllib.request.urlopen(request) as response:
                return response.read().decode("utf-8")

        page = "/visitor/PaintingNode/guitar.html"
        print("visitor GET", page, "->", 'rel="next"' in get(page, "alice"), "(tour)")
        page = "/curator/PaintingNode/guitar.html"
        print("curator GET", page, "->", 'rel="next"' in get(page, "bob"), "(tour)")

        print("\n-- POST /-/reconfigure/curator: indexed-guided-tour --\n")
        request = urllib.request.Request(
            base + "/-/reconfigure/curator",
            data=b"indexed-guided-tour",
            method="POST",
        )
        urllib.request.urlopen(request).read()
        print("curator GET", page, "->", 'rel="next"' in get(page, "bob"), "(tour)")
        get("/visitor/index.html", "alice")  # alice browses on; her trail grows
        visitor_page = get("/visitor/PaintingNode/guitar.html", "alice")
        print(
            "alice's second visit shows her own breadcrumb trail:",
            'class="breadcrumbs"' in visitor_page,
        )
        httpd.shutdown()
        httpd.server_close()
        app.close()


if __name__ == "__main__":
    main()
