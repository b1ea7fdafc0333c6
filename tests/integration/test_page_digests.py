"""Served page bytes, pinned across commits by their SHA-256.

Every other byte-parity test compares two paths of the same commit (hit
against miss, ASGI against WSGI, woven against tangled).  These digests
compare a commit against the bytes its predecessors served: a change to
the DOM, the serializer or the weaving that alters any skeleton, trail
fragment or XLink site file fails here, even if every path alters it
alike.  A change that means to alter the bytes re-records the constants
and says why.
"""

import hashlib

import pytest

from repro.baselines import museum_fixture, synthetic_museum
from repro.core import PageRenderer, build_xlink_site, default_museum_spec
from repro.navigation import DEFAULT_AUDIENCES, AudienceServer

#: sha256 over every page's ``skeleton_html()`` (home first, then the
#: node inventory), per audience stack.
SKELETON_DIGESTS = {
    "default museum": {
        "visitor": "419cb2d9f3170ab2c74c6f5b2b76358df19929056c376a3ee5077cf6de5d3d32",
        "curator": "dd596e8f5e55973af78220c5466ba43038050b3505c8b6a9a352abced7df1e36",
        "tour-only": "d4a68b7c9468d8a03cad1645d74b85b890fbf6ea23113febbb37221be9dff832",
    },
    "synthetic_museum(4, 3)": {
        "visitor": "30c452d37d41a90fb7ef4732f09bc9fcb24755c64ce957474f3db9516275d6cc",
        "curator": "3ec5a4c5ee2bd58fcbb50f2e3aed3d4360bd0deebd0d6875820b8948ce5a3089",
        "tour-only": "27b9ceaaab37db4cddb793d49f334c8dd9f0b418687b3924d29083792a4d111d",
    },
}

#: sha256 over the XLink pipeline's site: every ``(path, text)`` in path order.
XLINK_SITE_DIGEST = "1b6c63e1090c5f851d51681059228560e2227a0e1cd206a97c41bc30ade2342f"

FIXTURES = {
    "default museum": museum_fixture,
    "synthetic_museum(4, 3)": lambda: synthetic_museum(4, 3),
}


def skeleton_digests(fixture) -> dict[str, str]:
    nodes = PageRenderer(fixture).node_inventory()
    digests = {}
    with AudienceServer(fixture, DEFAULT_AUDIENCES) as server:
        for bundle in DEFAULT_AUDIENCES:
            renderer = server.renderer(bundle.name)
            pages = [renderer.render_home()]
            pages += [renderer.render_node(node) for node in nodes]
            digest = hashlib.sha256()
            for page in pages:
                skeleton, fragment = page.skeleton_html()
                digest.update(skeleton.encode() + b"\0" + fragment.encode() + b"\0")
            digests[bundle.name] = digest.hexdigest()
    return digests


@pytest.mark.parametrize("site", sorted(FIXTURES))
def test_skeletons_match_the_recorded_digests(site):
    assert skeleton_digests(FIXTURES[site]()) == SKELETON_DIGESTS[site]


def test_xlink_site_matches_the_recorded_digest():
    site = build_xlink_site(museum_fixture(), default_museum_spec())
    digest = hashlib.sha256()
    for path, text in sorted(site.as_text().items()):
        digest.update(f"{path}\0{text}\0".encode())
    assert digest.hexdigest() == XLINK_SITE_DIGEST
