"""Weaving orchestration: base program + navigation aspect = the site.

The one-call composition of the paper's Figure 6::

    site = build_woven_site(fixture, default_museum_spec("index"))

Changing the access structure is a new spec, not new pages::

    site2 = build_woven_site(fixture, default_museum_spec("indexed-guided-tour"))

The change-impact experiments diff these two builds against the tangled
equivalents.  Every builder here weaves through a scoped
:class:`~repro.aop.WeaverRuntime` and a transactional
:class:`~repro.aop.DeploymentSet`, so a build that raises mid-weave rolls
back completely — the renderer class is never left half-woven.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.aop import WeaverRuntime
from repro.baselines.museum_data import MuseumFixture
from repro.navigation import AudienceBundle
from repro.navigation.serving import LazyWovenProvider
from repro.web import StaticSite

from .aspect import NavigationAspect
from .navspec import NavigationSpec
from .renderer import PageRenderer


def build_plain_site(fixture: MuseumFixture) -> StaticSite:
    """The base program alone: a site with no navigation at all."""
    return PageRenderer(fixture).build_site()


def build_woven_site(
    fixture: MuseumFixture,
    spec: NavigationSpec,
    *,
    weaver: WeaverRuntime | None = None,
    lint: str | None = None,
) -> StaticSite:
    """Deploy the navigation aspect, build the site, undeploy.

    The weaver touches :class:`PageRenderer` only for the duration of the
    build, so concurrent plain builds (or differently-woven builds) never
    observe each other's navigation.  An exception anywhere in the block
    rolls the transaction back, introductions included.  ``lint`` opts
    the weave into the static analyzer (see
    :meth:`~repro.aop.DeploymentSet.add`): ``"error"`` refuses to build
    when the plan carries an error-severity finding.
    """
    return build_woven_site_stacked(fixture, [spec], weaver=weaver, lint=lint)


def build_woven_site_many(
    fixture: MuseumFixture,
    specs: Iterable[NavigationSpec],
    *,
    weaver: WeaverRuntime | None = None,
) -> list[StaticSite]:
    """Build one site per navigation spec, amortizing weaving costs.

    Each spec gets its own aspect deployment (deployed, built, undeployed
    in turn), but all of them plan against the runtime's shared shadow
    index, so the per-deployment member rescan of :class:`PageRenderer`
    is paid once for the whole batch rather than once per spec.
    """
    weaver = weaver or WeaverRuntime("woven-site-many")
    sites: list[StaticSite] = []
    for spec in specs:
        sites.append(build_woven_site(fixture, spec, weaver=weaver))
    return sites


def build_woven_site_stacked(
    fixture: MuseumFixture,
    specs: Iterable[NavigationSpec],
    *,
    weaver: WeaverRuntime | None = None,
    lint: str | None = None,
) -> StaticSite:
    """Build **one** site with several navigation concerns layered at once.

    Where :func:`build_woven_site_many` produces one site per spec, this
    stacks every spec's aspect over the same renderer — each page carries
    all of their navigation blocks, later specs wrapping (and therefore
    appending after) earlier ones.  The stack is one
    :class:`~repro.aop.DeploymentSet` transaction: the planner derives all
    the aspects' plans from a single shadow scan of :class:`PageRenderer`,
    a mid-stack failure rolls the whole set back, and the ``finally``
    undeploy restores the renderer exactly.
    """
    weaver = weaver or WeaverRuntime("woven-site")
    renderer = PageRenderer(fixture)
    with weaver.transaction([PageRenderer]) as tx:
        for spec in specs:
            tx.add(NavigationAspect(spec, fixture), lint=lint)
        try:
            return renderer.build_site()
        finally:
            tx.undeploy()


def build_audience_sites(
    fixture: MuseumFixture,
    bundles: Iterable[AudienceBundle],
    *,
    specs_by_access: Mapping[str, NavigationSpec] | None = None,
    weaver: WeaverRuntime | None = None,
    lint: str | None = None,
) -> dict[str, StaticSite]:
    """One stacked site per audience bundle — one runtime, one class scan.

    This is the ROADMAP's "per-audience navigation bundles" scenario: the
    same base program serves several audiences, each seeing a different
    *stack* of access structures (say, guided tour + index for visitors,
    index only for curators).  Every bundle weaves one
    :class:`PageRenderer` *instance* through instance-scoped deployments,
    so the whole batch lives in a single :class:`~repro.aop.WeaverRuntime`
    and a single transactional deployment set: one shadow scan of the
    renderer class covers every audience, all the stacks are deployed
    side by side (earlier revisions had to deploy → build → undeploy each
    audience sequentially), and the ``finally`` undeploy restores the
    class exactly.

    ``specs_by_access`` maps access-structure names to prebuilt specs;
    each unresolved name is built once via :func:`default_museum_spec` and
    shared across every bundle that stacks it.
    """
    from repro.navigation.config import ServingConfig
    from repro.navigation.serving import AudienceServer

    weaver = weaver or WeaverRuntime("audience-sites")
    with AudienceServer(
        fixture,
        bundles,
        specs_by_access=specs_by_access,
        runtime=weaver,
        config=ServingConfig(lint=lint),
    ) as server:
        return {
            audience: server.renderer(audience).build_site()
            for audience in server.audiences()
        }


class NavigationWeaver:
    """A persistent deployment for interactive use.

    Where :func:`build_woven_site` is transactional, this keeps the aspect
    deployed — rendering individual pages on demand (e.g. for the user
    agent) with navigation woven in — until :meth:`undeploy`.  Backed by
    its own scoped :class:`~repro.aop.WeaverRuntime`.
    """

    def __init__(self, fixture: MuseumFixture, spec: NavigationSpec):
        self._fixture = fixture
        self._spec = spec
        self._runtime = WeaverRuntime("navigation-weaver")
        self._renderer = PageRenderer(fixture)
        self._aspect: NavigationAspect | None = None
        self._deployment = None

    @property
    def aspect(self) -> NavigationAspect:
        if self._aspect is None:
            raise RuntimeError("weaver is not deployed")
        return self._aspect

    @property
    def renderer(self) -> PageRenderer:
        return self._renderer

    @property
    def runtime(self) -> WeaverRuntime:
        """The scoped runtime backing this weaver (introspection entry)."""
        return self._runtime

    def deploy(self) -> "NavigationWeaver":
        if self._deployment is not None:
            return self
        self._aspect = NavigationAspect(self._spec, self._fixture)
        self._deployment = self._runtime._deploy(self._aspect, [PageRenderer])
        return self

    def undeploy(self) -> None:
        if self._deployment is not None:
            self._runtime.undeploy(self._deployment)
            self._deployment = None
            self._aspect = None

    def reconfigure(self, spec: NavigationSpec) -> "NavigationWeaver":
        """Swap the navigation spec: undeploy, replace, redeploy.

        This is the paper's change request as a runtime operation — the
        base program is untouched throughout.
        """
        was_deployed = self._deployment is not None
        self.undeploy()
        self._spec = spec
        if was_deployed:
            self.deploy()
        return self

    def build_site(self) -> StaticSite:
        return self._renderer.build_site()

    def provider(self) -> LazyWovenProvider:
        """Serve pages *on demand*, rendering through the live deployment.

        Unlike :meth:`build_site` (which materializes everything), the
        lazy provider (:class:`~repro.navigation.serving.LazyWovenProvider`)
        renders a node page only when the user agent asks for it — and
        because rendering passes through the deployed aspect's join
        points, a :meth:`reconfigure` between two requests changes the
        navigation of pages rendered afterwards.
        """
        return LazyWovenProvider(self._renderer)

    def __enter__(self) -> "NavigationWeaver":
        return self.deploy()

    def __exit__(self, *exc_info) -> None:
        self.undeploy()
