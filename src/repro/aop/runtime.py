"""First-class weaver runtimes: scoped state, transactions, introspection.

The paper's thesis is that access structures are aspects you can swap
without touching the base program; this module makes the *weaver itself*
an object you hold, scope, transact against and inspect — the shape
AspectJ's per-deployment weaver state and JAsCo's runtime aspect
containers converge on:

- :class:`WeaverRuntime` — an explicit runtime with isolated
  :class:`~repro.aop.weaver.ShadowIndex`, cflow-watcher count and codegen
  cache (the process-global singletons of earlier revisions are simply the
  *default* runtime, :data:`default_runtime`);
- :meth:`WeaverRuntime.weave` — **the** deployment entry point: one
  polymorphic call accepting a class, a module, a module-level function
  or a list of those, returning a context-managed :class:`Weave` handle;
- :meth:`WeaverRuntime.transaction` — a :class:`DeploymentSet` handle that
  batches several aspects atomically (one :meth:`~DeploymentSet.add` each)
  over one shadow scan per class, with context-manager rollback and
  partial :meth:`~DeploymentSet.undeploy`;
- introspection — :meth:`WeaverRuntime.woven_sites`,
  :meth:`WeaverRuntime.deployment_stats` and :meth:`WeaverRuntime.stats`
  (surfaced on the command line as ``repro.tools aop inspect``).

::

    runtime = WeaverRuntime("per-audience")
    handle = runtime.weave([PageRenderer], TourAspect(spec))
    ...                                  # advice is live
    handle.undeploy()

    with runtime.weave(xmlcore.parser.parse, RetryAspect()):
        ...                              # module function advised
    ...                                  # original global restored
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import FunctionType, ModuleType
from typing import Any, Iterable

from . import codegen
from .advice import Advice
from .aspect import Aspect
from .errors import WeavingError
from .joinpoint import JoinPointKind
from .weaver import (
    Deployment,
    InstanceScope,
    ModuleShadow,
    ShadowIndex,
    _BatchScans,
    _cflow_watchers,
    _marker_defaults,
    _MISSING,
    _release_marker_state,
    _rollback_partial_weave,
    _WatcherCount,
    _WovenField,
    _WovenMember,
    make_field_descriptor,
    make_method_wrapper,
    make_module_wrapper,
    shadow_index as _default_shadow_index,
)


class WeaverRuntime:
    """A scoped aspect-weaving runtime.

    Each runtime owns the state earlier revisions kept in module globals —
    a :class:`~repro.aop.weaver.ShadowIndex`, a cflow-watcher count and a
    :class:`~repro.aop.codegen.CodegenCache` — so two runtimes in one
    process never share scan caches, watcher bookkeeping or compile
    statistics.  Class *mutation* is still process-global (weaving rewrites
    class members), so runtimes weaving the same class stack their wrappers
    and must unwind LIFO across runtimes; the shared
    :class:`~repro.aop.weaver._TokenBoard` keeps every runtime's scans
    honest about members another runtime installed.
    """

    def __init__(
        self,
        name: str | None = None,
        *,
        shadow_index: ShadowIndex | None = None,
        watchers: _WatcherCount | None = None,
        codegen_cache: "codegen.CodegenCache | None" = None,
    ) -> None:
        self.name = name or f"runtime-{id(self):x}"
        self._shadow_index = shadow_index if shadow_index is not None else ShadowIndex()
        self._watchers = watchers if watchers is not None else _WatcherCount()
        self._codegen_cache = (
            codegen_cache if codegen_cache is not None else codegen.CodegenCache()
        )
        self._deployments: list[Deployment] = []
        # Monotonic weave-mutation counter; see the weave_epoch property.
        self._weave_epoch = 0

    def __repr__(self) -> str:
        return f"<WeaverRuntime {self.name!r} ({len(self.deployments)} active)>"

    # -- scoped state ---------------------------------------------------------

    @property
    def shadow_index(self) -> ShadowIndex:
        """This runtime's (isolated) shadow-scan cache."""
        return self._shadow_index

    @property
    def watchers(self) -> _WatcherCount:
        """This runtime's live cflow-watcher count."""
        return self._watchers

    @property
    def codegen_cache(self) -> "codegen.CodegenCache":
        """This runtime's wrapper-source compile cache (and its stats)."""
        return self._codegen_cache

    @property
    def deployments(self) -> list[Deployment]:
        return list(self._deployments)

    @property
    def weave_epoch(self) -> int:
        """A monotonic counter of this runtime's weave mutations.

        Advances on every successful deployment and :meth:`undeploy`
        — the only operations that change what this runtime's woven
        members compute — in lockstep with the
        :class:`~repro.aop.weaver._TokenBoard` stamps those operations
        produce.  For a fixed set of inputs, anything derived from woven
        output (a rendered page, a serialized site) is reusable exactly
        while the epoch it was recorded under is still current; the
        serving layer's page cache keys on it.  Never reset, so an epoch
        value can never come back around to alias a different weave
        state.
        """
        return self._weave_epoch

    def advance_epoch(self) -> int:
        """Advance the weave epoch by hand; returns the new value.

        For layers that compose several deploy/undeploy calls into one
        logical mutation (the serving layer's ``reconfigure``) and need
        a fresh epoch *fence* at a point where no individual weave has
        happened yet — marking everything derived so far as superseded
        before the mutation begins, and again after it completes.
        """
        self._weave_epoch += 1
        return self._weave_epoch

    # -- deployment -----------------------------------------------------------

    def _deploy(
        self,
        aspect: Aspect,
        targets: "Iterable[type | ModuleType]",
        *,
        fields: Iterable[str] = (),
        require_match: bool = True,
        instances: "Iterable[Any] | InstanceScope | None" = None,
        members: "frozenset[str] | None" = None,
        _scans: _BatchScans | None = None,
    ) -> Deployment:
        """Weave *aspect* into *targets* (the engine under :meth:`weave`).

        ``fields`` names instance attributes to expose as field join points
        (Python cannot discover instance attributes statically, so field
        interception is opt-in).  With *require_match*, deploying an aspect
        that matches nothing raises — almost always a pointcut typo.

        ``targets`` may mix classes and *modules*: a module's shadows are
        its own module-level functions (see
        :class:`~repro.aop.weaver.ModuleShadow`), woven by rebinding the
        module global and restored exactly on undeploy.  Modules have no
        instances to scope to, no fields and no MRO to graft
        introductions through, so ``instances`` is rejected with module
        targets and the introduction/field phases skip them.

        ``instances`` narrows the deployment to an *instance scope*: the
        woven members become per-shadow dispatchers that run advice only
        for receivers in the scope (an iterable of instances, or a shared
        :class:`~repro.aop.weaver.InstanceScope`), while every other
        instance falls through to the previous member near-plain.  Scoped
        deployments stack with class-wide ones in deployment order (a
        class-wide chain deployed later wraps the instance dispatch) and
        unwind LIFO like any other deployment.  Aspects carrying
        introductions cannot be instance-scoped — introductions graft
        class members.

        ``members`` restricts planning to the named shadows — how
        :meth:`weave` narrows a module deployment to exactly the functions
        the caller passed, rather than everything the pointcut matches in
        the module.

        ``_scans`` is a :class:`DeploymentSet` batch's shared scan view;
        single deployments read this runtime's shadow index directly.
        """
        aspect.validate()
        advice = sorted(aspect.advice(), key=lambda a: a.order)
        targets = list(targets)
        scope = InstanceScope.resolve(instances)
        module_targets = [t for t in targets if not isinstance(t, type)]
        if scope is not None and module_targets:
            raise WeavingError(
                "instance scopes require class targets; module-level "
                "functions have no receiver to scope to "
                f"({', '.join(m.__name__ for m in module_targets)})"
            )
        introductions = list(aspect.introductions())
        if scope is not None and introductions:
            raise WeavingError(
                f"aspect {type(aspect).__name__} declares introductions, "
                "which graft class members and cannot be instance-scoped; "
                "deploy it class-wide instead"
            )
        deployment = Deployment(
            aspect=aspect,
            scope=scope,
            _index=self._shadow_index,
            _watchers=self._watchers,
        )
        scans = _scans if _scans is not None else self._shadow_index
        index = self._shadow_index

        # Snapshot every target's pre-weave scan (also pre-warming the
        # cache for the phases below).  Undeploy restores classes exactly,
        # so these snapshots make deploy/undeploy cycles rescan-free.
        pre_state = {cls: (scans.shadows(cls), index.token(cls)) for cls in targets}

        # declare error: refuse deployment when a forbidden shape exists.
        for declaration in aspect.declarations():
            for cls in targets:
                for shadow in scans.shadows(cls):
                    if members is not None and shadow.name not in members:
                        continue
                    if declaration.pointcut.matches_shadow(
                        cls, shadow.name, JoinPointKind.METHOD_EXECUTION
                    ):
                        raise WeavingError(
                            f"{declaration.message} "
                            f"(declare error matched {cls.__name__}.{shadow.name})"
                        )

        try:
            intro_touched: set[type] = set()
            for introduction in introductions:
                for cls in targets:
                    if not isinstance(cls, type):
                        continue  # introductions graft class members only
                    applied = introduction.apply(cls)
                    if applied is not None:
                        deployment.introductions.append(applied)
                        intro_touched.add(cls)
                        # Introduced functions are weavable shadows themselves.
                        index.invalidate(cls)
                        if _scans is not None:
                            _scans.note_introduction(cls)

            # cflow() residues need the join point stack populated at their
            # inner pointcuts' shadows even when no advice runs there; shadows
            # the residues match get tracking-only wrappers (AspectJ
            # instruments cflow entry shadows the same way).  While this
            # deployment is active it also raises the runtime's watcher
            # count, so every woven shadow in this runtime resumes frame
            # bookkeeping.
            inner_pointcuts = [
                inner for a in advice for inner in a.pointcut.cflow_inner_pointcuts()
            ]

            def tracked(cls: type, name: str, kind: JoinPointKind) -> bool:
                return any(p.matches_shadow(cls, name, kind) for p in inner_pointcuts)

            # Capture every shadow before installing anything, so that weaving
            # a base class never changes what a subclass shadow captures.  One
            # (memoized) scan per class covers advice matching and cflow entry
            # instrumentation.
            method_plan: list[tuple[Any, list[Advice]]] = []
            field_plan: list[tuple[type, str, list[Advice], list[Advice]]] = []
            tracking_only: set[tuple[Any, str]] = set()
            for cls in targets:
                for shadow in scans.shadows(cls):
                    if members is not None and shadow.name not in members:
                        continue
                    matching = [
                        a
                        for a in advice
                        if a.pointcut.matches_shadow(
                            cls, shadow.name, JoinPointKind.METHOD_EXECUTION
                        )
                    ]
                    if matching:
                        method_plan.append((shadow, matching))
                    elif inner_pointcuts:
                        key = (shadow.cls, shadow.name)
                        if key not in tracking_only and tracked(
                            cls, shadow.name, JoinPointKind.METHOD_EXECUTION
                        ):
                            tracking_only.add(key)
                            method_plan.append((shadow, []))
                if not isinstance(cls, type):
                    continue  # modules have no instance fields
                for field_name in fields:
                    getters = [
                        a
                        for a in advice
                        if a.pointcut.matches_shadow(
                            cls, field_name, JoinPointKind.FIELD_GET
                        )
                    ]
                    setters = [
                        a
                        for a in advice
                        if a.pointcut.matches_shadow(
                            cls, field_name, JoinPointKind.FIELD_SET
                        )
                    ]
                    if getters or setters:
                        field_plan.append((cls, field_name, getters, setters))

            touched: set[Any] = set()
            marker_classes: set[type] = set()
            for shadow, matching in method_plan:
                if isinstance(shadow, ModuleShadow):
                    wrapper = make_module_wrapper(
                        shadow,
                        matching,
                        watchers=self._watchers,
                        codegen_cache=self._codegen_cache,
                    )
                else:
                    wrapper = self._make_method_wrapper(shadow, matching, scope)
                marker = getattr(wrapper, "__scope_marker__", None)
                if marker is not None and shadow.cls not in marker_classes:
                    # Marker dispatch reads `self.<marker>`; unscoped
                    # instances must find the class-level default, which
                    # the marker-default board owns (it flips it between
                    # None and WATCHED on cflow-watcher transitions).
                    marker_classes.add(shadow.cls)
                    _marker_defaults.register(shadow.cls, marker, self._watchers)
                    deployment._marker_sites.append((shadow.cls, marker))
                previous = shadow.cls.__dict__.get(shadow.name, _MISSING)
                setattr(shadow.cls, shadow.name, wrapper)
                touched.add(shadow.cls)
                deployment.members.append(
                    _WovenMember(shadow.cls, shadow.name, wrapper, previous)
                )

            for cls, field_name, getters, setters in field_plan:
                previous = cls.__dict__.get(field_name, _MISSING)
                default = previous if previous is not _MISSING else _MISSING
                # A re-weave keeps the original class default.
                if isinstance(default, _WovenField):
                    default = default._class_default
                descriptor = make_field_descriptor(
                    field_name,
                    getters,
                    setters,
                    default,
                    watchers=self._watchers,
                    codegen_cache=self._codegen_cache,
                    scope=scope,
                )
                setattr(cls, field_name, descriptor)
                touched.add(cls)
                deployment.members.append(
                    _WovenMember(cls, field_name, descriptor, previous)
                )

            if marker_classes:
                scope._acquire_markers()
                deployment._holds_markers = True

            for cls in touched | intro_touched:
                woven_token = index.invalidate(cls)
                shadows_snapshot, pre_token = pre_state[cls]
                deployment._cache_state[cls] = (
                    shadows_snapshot,
                    pre_token,
                    woven_token,
                )
            if _scans is not None:
                installed_by_cls: dict[type, dict[str, Any]] = {}
                for member in deployment.members:
                    installed_by_cls.setdefault(member.cls, {})[member.name] = (
                        member.installed
                    )
                # Bases before subclasses: a touched base drops its subclasses'
                # derived scans (their inherited entries changed underneath
                # them), which must happen before — never after — a touched
                # subclass would prime one.
                for cls in sorted(
                    touched,
                    key=lambda klass: (
                        len(klass.__mro__) if isinstance(klass, type) else 0
                    ),
                ):
                    _scans.apply_installs(cls, installed_by_cls.get(cls, {}))

            if (
                require_match
                and not deployment.members
                and not deployment.introductions
            ):
                raise WeavingError(
                    f"aspect {type(aspect).__name__} matched nothing in "
                    f"[{', '.join(t.__name__ for t in targets)}]"
                )
        except BaseException:
            # Mid-weave failure (introduction conflict, raising pointcut,
            # ...): revert what this deployment already applied so the
            # caller is never left with class mutations it has no handle
            # to undo.
            _rollback_partial_weave(deployment, index)
            # The revert is best-effort; advance the epoch so nothing
            # cached across the failed weave is ever trusted.
            self._weave_epoch += 1
            raise
        if inner_pointcuts:
            self._watchers.watch()
            deployment._tracks_cflow = True
        self._weave_epoch += 1
        self._deployments.append(deployment)
        return deployment

    def _make_method_wrapper(
        self, shadow, advice: list[Advice], scope: InstanceScope | None = None
    ):
        return make_method_wrapper(
            shadow,
            advice,
            watchers=self._watchers,
            codegen_cache=self._codegen_cache,
            scope=scope,
        )

    def weave(
        self,
        target: Any,
        aspect: Aspect,
        *,
        instances: "Iterable[Any] | InstanceScope | None" = None,
        lint: str | None = None,
        fields: Iterable[str] = (),
        require_match: bool = True,
    ) -> "Weave":
        """Weave *aspect* over *target*; the one deployment entry point.

        *target* is polymorphic — a class, a module, a module-level
        function, or a list mixing any of those::

            handle = runtime.weave(PageRenderer, TracingAspect())
            handle.undeploy()

            with runtime.weave(xmlcore.parser.parse, RetryAspect()):
                ...                      # advice live inside the block
            ...                          # original function restored

        Functions are grouped by defining module and woven as
        member-restricted module deployments (only the named functions are
        planned, however broadly the pointcut matches).  All constituent
        deployments ride one :class:`DeploymentSet` transaction, so a
        failure mid-way (declare error, lint gate, introduction conflict)
        rolls back everything already woven.

        ``instances`` narrows class targets to an instance scope exactly
        as before (rejected when *target* includes functions or modules);
        ``lint`` (``"warn"``/``"error"``) runs the static analyzer gate
        before weaving; ``require_match`` asserts the aspect matched at
        least one shadow across the whole target list.

        Returns a :class:`Weave` handle: ``with`` gives aspectlib-style
        scope (exit restores the originals; an exception inside the block
        rolls back), ``.undeploy()`` reverses it explicitly.
        """
        items = list(target) if isinstance(target, (list, tuple)) else [target]
        if not items:
            raise WeavingError("weave(): no targets given")
        direct: list[Any] = []
        by_module: dict[ModuleType, list[str]] = {}
        for item in items:
            if isinstance(item, (type, ModuleType)):
                direct.append(item)
            elif isinstance(item, FunctionType):
                module = sys.modules.get(getattr(item, "__module__", None) or "")
                if module is None:
                    raise WeavingError(
                        f"weave(): cannot locate the defining module of "
                        f"{item!r} (its __module__ is not imported)"
                    )
                by_module.setdefault(module, []).append(item.__name__)
            else:
                raise WeavingError(
                    f"weave(): unsupported target {item!r}; expected a class, "
                    "a module, a module-level function, or a list of those"
                )
        if instances is not None and by_module:
            raise WeavingError(
                "weave(): instance scopes require class targets; "
                "module-level functions have no receiver to scope to"
            )
        tx = self.transaction()
        matched = False
        try:
            if direct:
                d = tx.add(
                    aspect,
                    direct,
                    fields=fields,
                    require_match=False,
                    instances=instances,
                    lint=lint,
                )
                matched |= bool(d.members or d.introductions)
            for module, names in by_module.items():
                d = tx.add(
                    aspect,
                    [module],
                    require_match=False,
                    members=frozenset(names),
                    lint=lint,
                )
                matched |= bool(d.members or d.introductions)
            if require_match and not matched:
                described = ", ".join(
                    [t.__name__ for t in direct]
                    + [f"{m.__name__}.{n}" for m, ns in by_module.items() for n in ns]
                )
                raise WeavingError(
                    f"aspect {type(aspect).__name__} matched nothing in "
                    f"[{described}]"
                )
        except BaseException:
            tx.rollback()
            raise
        tx.commit()
        return Weave(self, tx)

    def transaction(
        self,
        targets: "Iterable[type | ModuleType] | None" = None,
        *,
        fields: Iterable[str] = (),
    ) -> "DeploymentSet":
        """A :class:`DeploymentSet` batching deployments on this runtime.

        ``targets``/``fields`` become the set's defaults; each
        :meth:`~DeploymentSet.add` may override them.  Used as a context
        manager, the set commits on clean exit and rolls *everything* back
        — members and introductions, best-effort — when the block raises.
        """
        return DeploymentSet(self, targets, fields=fields)

    def undeploy(self, deployment: Deployment) -> None:
        """Reverse one deployment (most-recent-first when they overlap)."""
        if not deployment.active:
            return
        index = (
            deployment._index if deployment._index is not None else self._shadow_index
        )
        watchers = (
            deployment._watchers
            if deployment._watchers is not None
            else self._watchers
        )
        touched: set[type] = set()
        try:
            for member in reversed(deployment.members):
                member.revert()
                touched.add(member.cls)
            for applied in reversed(deployment.introductions):
                applied.revert()
                touched.add(applied.cls)
        except Exception:
            # Partial revert (e.g. out-of-LIFO undeploy): the classes we
            # did touch are in an unknown state — force rescans.
            for cls in touched:
                index.invalidate(cls)
            raise
        for cls in touched:
            state = deployment._cache_state.get(cls)
            if state is None:
                index.invalidate(cls)
            else:
                snapshot, pre_token, woven_token = state
                index.restore_after_revert(
                    cls, snapshot, woven_token=woven_token, pre_token=pre_token
                )
        _release_marker_state(deployment)
        if deployment._tracks_cflow:
            watchers.unwatch()
            deployment._tracks_cflow = False
        self._retire(deployment)

    def _retire(self, deployment: Deployment) -> None:
        """Mark *deployment* undone and forget it: the runtime holds only
        live deployments, so an undeployed aspect (and whatever it keeps
        alive) is released with the caller's last handle."""
        deployment.active = False
        if deployment in self._deployments:
            self._deployments.remove(deployment)
        self._weave_epoch += 1

    def undeploy_all(self) -> None:
        """Reverse every active deployment, most recent first."""
        for deployment in reversed(self.deployments):
            self.undeploy(deployment)

    # -- introspection --------------------------------------------------------

    def woven_sites(self) -> list["WovenSite"]:
        """Every member this runtime's active deployments currently weave.

        One :class:`WovenSite` per installed member, ordered by deployment
        (oldest first) then install order — the live answer to "what did
        weaving do to my classes?".
        """
        sites: list[WovenSite] = []
        for position, deployment in enumerate(self.deployments):
            aspect_name = type(deployment.aspect).__name__
            for member in deployment.members:
                sites.append(
                    _describe_member(member, aspect_name, position, deployment.scope)
                )
            for applied in deployment.introductions:
                sites.append(
                    WovenSite(
                        cls=applied.cls,
                        member=applied.name,
                        kind="introduction",
                        tier="introduction",
                        aspect=aspect_name,
                        deployment_index=position,
                    )
                )
        return sites

    def deployment_stats(self, deployment: Deployment) -> "DeploymentStats":
        """Codegen and pool statistics for one deployment."""
        codegen_sources: dict[str, str] = {}
        pooled = 0
        pool_free = 0
        method_members = 0
        field_members = 0
        for member in deployment.members:
            signature = f"{member.cls.__name__}.{member.name}"
            installed = member.installed
            if isinstance(installed, _WovenField):
                field_members += 1
            else:
                method_members += 1
            source = getattr(installed, "__codegen_source__", None)
            if source is not None:
                codegen_sources[signature] = source
            pool = getattr(installed, "__joinpoint_pool__", None)
            if pool is not None:
                pools = [pool]
            else:
                pools = list(getattr(installed, "__joinpoint_pools__", {}).values())
            for pool in pools:
                pooled += 1
                pool_free += len(pool.free)
        scope = deployment.scope
        return DeploymentStats(
            aspect=type(deployment.aspect).__name__,
            active=deployment.active,
            method_members=method_members,
            field_members=field_members,
            introductions=len(deployment.introductions),
            codegen_sources=codegen_sources,
            pools=pooled,
            pooled_joinpoints_free=pool_free,
            scope_instances=len(scope) if scope is not None else None,
        )

    def stats(self) -> dict[str, Any]:
        """A snapshot of this runtime's scoped state, for dashboards/CLI.

        Scope-aware: beyond the per-deployment count, ``scopes`` reports
        the *distinct* live :class:`~repro.aop.weaver.InstanceScope`
        objects and their total member instances (a scope shared by
        several deployments — an audience's whole stack — counts once),
        and ``pools`` aggregates every deployment's join point pools.
        The HTTP serving front exposes this verbatim at ``GET /-/stats``.
        """
        sites = self.woven_sites()
        tiers: dict[str, int] = {}
        for site in sites:
            tiers[site.tier] = tiers.get(site.tier, 0) + 1
        pools = 0
        pool_free = 0
        scopes: dict[int, Any] = {}
        for deployment in self.deployments:
            per = self.deployment_stats(deployment)
            pools += per.pools
            pool_free += per.pooled_joinpoints_free
            if deployment.scope is not None:
                scopes[id(deployment.scope)] = deployment.scope
        return {
            "name": self.name,
            "weave_epoch": self._weave_epoch,
            "deployments": len(self.deployments),
            "instance_scoped": sum(1 for d in self.deployments if d.scope is not None),
            "scopes": {
                "count": len(scopes),
                "instances": sum(len(scope) for scope in scopes.values()),
            },
            "woven_sites": len(sites),
            "tiers": tiers,
            "pools": {"count": pools, "free_joinpoints": pool_free},
            "cflow_watchers": self._watchers.count,
            "codegen_cache": self._codegen_cache.stats(),
        }


@dataclass(frozen=True)
class WovenSite:
    """One woven member, as reported by :meth:`WeaverRuntime.woven_sites`."""

    #: The owning container: a class, or a module for module-function
    #: weaves (whose signatures read ``package.module.function``).
    cls: Any
    member: str
    #: ``"method"``, ``"field"`` or ``"introduction"``.
    kind: str
    #: Dispatch tier: ``"codegen"``, ``"generic"``,
    #: ``"tracking"``, ``"field-codegen"``, ``"field-generic"`` or
    #: ``"introduction"``.
    tier: str
    aspect: str
    deployment_index: int
    #: Line count of the generated wrapper source (codegen tiers only).
    codegen_lines: int | None = None
    #: Live instance count of the deployment's scope (None = class-wide).
    scope_instances: int | None = None

    @property
    def scoped(self) -> bool:
        """Whether this site belongs to an instance-scoped deployment."""
        return self.scope_instances is not None

    @property
    def signature(self) -> str:
        return f"{self.cls.__name__}.{self.member}"


@dataclass(frozen=True)
class DeploymentStats:
    """Per-deployment codegen/pool statistics."""

    aspect: str
    active: bool
    method_members: int
    field_members: int
    introductions: int
    #: signature -> generated wrapper source.
    codegen_sources: dict[str, str]
    pools: int
    pooled_joinpoints_free: int
    #: Live instance count of the deployment's scope (None = class-wide).
    scope_instances: int | None = None


def _describe_member(
    member: _WovenMember,
    aspect: str,
    position: int,
    scope: InstanceScope | None = None,
) -> WovenSite:
    installed = member.installed
    source = getattr(installed, "__codegen_source__", None)
    lines = source.count("\n") if isinstance(source, str) else None
    if isinstance(installed, _WovenField):
        tier = "field-codegen" if source is not None else "field-generic"
        kind = "field"
    else:
        kind = "method"
        if source is not None:
            tier = "codegen"
        elif getattr(installed, "__woven_advice_count__", None) == 0:
            tier = "tracking"
        else:
            tier = "generic"
    return WovenSite(
        cls=member.cls,
        member=member.name,
        kind=kind,
        tier=tier,
        aspect=aspect,
        deployment_index=position,
        codegen_lines=lines,
        scope_instances=len(scope) if scope is not None else None,
    )


class Weave:
    """A live :meth:`WeaverRuntime.weave` handle (context-managed).

    Wraps the committed :class:`DeploymentSet` the weave ran through.
    ``with runtime.weave(...) as handle:`` gives aspectlib-style scoping:
    the advice is live inside the block and the originals are restored on
    exit (a raising block rolls back best-effort instead of unwinding
    strictly).  Outside a ``with`` block, call :meth:`undeploy`.
    """

    def __init__(self, runtime: WeaverRuntime, tx: "DeploymentSet") -> None:
        self._runtime = runtime
        self._tx = tx

    def __repr__(self) -> str:
        return (
            f"<Weave {len(self.deployments)} deployment(s) "
            f"on {self._runtime.name!r}>"
        )

    @property
    def deployments(self) -> list[Deployment]:
        """The live deployment handles this weave installed, oldest first."""
        return self._tx.deployments

    @property
    def active(self) -> bool:
        return bool(self._tx.deployments)

    def undeploy(self) -> None:
        """Strict LIFO unweave of everything this handle installed."""
        self._tx.undeploy()

    def rollback(self) -> None:
        """Best-effort unwind (keeps going past revert failures)."""
        self._tx.rollback()

    def __enter__(self) -> "Weave":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.rollback()
        else:
            self.undeploy()


@dataclass
class _SetEntry:
    """One :meth:`DeploymentSet.add`'s recipe plus its live deployment."""

    aspect: Aspect
    targets: list[Any]
    fields: tuple[str, ...]
    require_match: bool
    deployment: Deployment
    #: The resolved instance scope (None = class-wide).  Survivor
    #: re-weaves pass the *same* scope object, so membership persists.
    scope: InstanceScope | None = None
    #: Member-name restriction (:meth:`WeaverRuntime.weave` function
    #: targets); survivor re-weaves must honour the same narrowing.
    members: "frozenset[str] | None" = None


class DeploymentSet:
    """A transactional batch of deployments on one runtime.

    Every :meth:`add` weaves immediately
    but plans through one shared scan view (one real shadow scan per class
    for the whole set, however many aspects stack), and the set as a whole
    is the unit of atomicity —

    - as a context manager, a raising block triggers :meth:`rollback`,
      which unwinds members *and introductions* best-effort, while a clean
      exit commits (the deployments stay live);
    - :meth:`undeploy` reverses the whole set — or a *subset*: the set
      unwinds LIFO down to the oldest targeted deployment, then re-weaves
      the survivors in their original order (their
      :class:`~repro.aop.weaver.Deployment` handles are refreshed in
      :attr:`deployments`).

    A set never spans runtimes; :meth:`WeaverRuntime.transaction` is the
    only constructor callers need.
    """

    def __init__(
        self,
        runtime: WeaverRuntime,
        targets: Iterable[type] | None = None,
        *,
        fields: Iterable[str] = (),
    ) -> None:
        self._runtime = runtime
        self._default_targets = list(targets) if targets is not None else None
        self._default_fields = tuple(fields)
        self._batch = _BatchScans(runtime.shadow_index)
        self._entries: list[_SetEntry] = []
        self._committed = False

    def __repr__(self) -> str:
        state = "committed" if self._committed else "open"
        return (
            f"<DeploymentSet {state}, {len(self.deployments)} deployments "
            f"on {self._runtime.name!r}>"
        )

    @property
    def deployments(self) -> list[Deployment]:
        """The set's live deployment handles, oldest first."""
        return [e.deployment for e in self._entries if e.deployment.active]

    @property
    def committed(self) -> bool:
        return self._committed

    def add(
        self,
        aspect: Aspect,
        targets: "Iterable[type | ModuleType] | None" = None,
        *,
        fields: Iterable[str] | None = None,
        require_match: bool = True,
        instances: "Iterable[Any] | InstanceScope | None" = None,
        lint: str | None = None,
        members: "frozenset[str] | None" = None,
    ) -> Deployment:
        """Weave one more aspect into the set (immediately, but revocably).

        The one public call for several aspects in one transaction
        (:meth:`WeaverRuntime.weave` takes a single aspect).  Later aspects
        wrap earlier ones exactly as sequential weaves would.
        ``targets``/``fields`` default to the set's; the deployment plans
        through the set's shared scan view, so stacking N aspects over the
        same classes costs one real scan per class total.  ``instances``
        narrows the deployment to an instance scope exactly as in
        :meth:`WeaverRuntime.weave`; a partial :meth:`undeploy` re-weaves
        surviving scoped deployments with their original scope objects.
        ``members`` restricts planning to the named shadows (how
        :meth:`WeaverRuntime.weave` narrows a module to the functions it
        was given).

        ``lint`` opts this add into the static analyzer
        (:mod:`repro.aop.analysis`) *before* anything is woven:
        ``"warn"`` surfaces every finding as an
        :class:`~repro.aop.analysis.AopLintWarning`; ``"error"``
        additionally refuses to deploy (raising :class:`WeavingError`)
        when an error-severity finding exists — e.g. a typo'd pointcut
        that matches nothing even though the aspect as a whole would
        survive ``require_match``.
        """
        if targets is None:
            if self._default_targets is None:
                raise WeavingError(
                    "DeploymentSet.add: no targets given and the transaction "
                    "declared no default targets"
                )
            targets = self._default_targets
        resolved_fields = self._default_fields if fields is None else tuple(fields)
        scope = InstanceScope.resolve(instances)
        if lint is not None:
            from .analysis import lint_gate

            lint_gate(
                aspect,
                targets,
                fields=resolved_fields,
                instances=scope,
                mode=lint,
                index=self._runtime.shadow_index,
            )
        deployment = self._runtime._deploy(
            aspect,
            targets,
            fields=resolved_fields,
            require_match=require_match,
            instances=scope,
            members=members,
            _scans=self._batch,
        )
        self._entries.append(
            _SetEntry(
                aspect=aspect,
                targets=list(targets),
                fields=resolved_fields,
                require_match=require_match,
                deployment=deployment,
                scope=scope,
                members=members,
            )
        )
        return deployment

    def commit(self) -> list[Deployment]:
        """Seal the set: its deployments stay live; returns their handles."""
        self._committed = True
        return self.deployments

    def rollback(self) -> None:
        """Best-effort LIFO unwind of everything the set deployed.

        Unlike a strict :meth:`undeploy`, rollback keeps going when a
        member revert fails (e.g. someone outside the set re-wove a class
        after us): the failing member is skipped, its class is invalidated
        for honest rescans, and — crucially — *introductions still
        revert*, so a raising ``with`` block never leaks grafted members.
        """
        index = self._runtime.shadow_index
        watchers = self._runtime.watchers
        self._batch = _BatchScans(index)  # derived scans describe dead wrappers
        for entry in reversed(self._entries):
            deployment = entry.deployment
            if not deployment.active:
                continue
            try:
                self._runtime.undeploy(deployment)
            except Exception:
                # Strict undeploy refused (non-LIFO interleaving): fall
                # back to the forgiving unwind and keep rolling back.
                _rollback_partial_weave(deployment, index)
                if deployment._tracks_cflow:
                    watchers.unwatch()
                    deployment._tracks_cflow = False
                self._runtime._retire(deployment)
        self._entries.clear()

    def undeploy(self, deployments: Iterable[Deployment] | None = None) -> None:
        """Reverse the whole set, or just *deployments* (a subset of it).

        A partial undeploy unwinds the set LIFO down to the oldest targeted
        deployment — strictly, so an interleaved weave by someone else
        still raises — then re-weaves the unwound survivors in their
        original order through a fresh batch scan.  Survivor handles are
        refreshed; read them back from :attr:`deployments`.
        """
        # Any unweave invalidates the set's derived scans (they describe
        # wrappers that no longer exist); later add()s must re-plan fresh.
        self._batch = _BatchScans(self._runtime.shadow_index)
        active = [e for e in self._entries if e.deployment.active]
        if deployments is None:
            for entry in reversed(active):
                self._runtime.undeploy(entry.deployment)
            self._entries = [e for e in self._entries if e.deployment.active]
            return
        targeted = set(deployments)
        known = {e.deployment for e in active}
        unknown = targeted - known
        if unknown:
            raise WeavingError(
                "DeploymentSet.undeploy: deployment(s) not active in this set: "
                + ", ".join(sorted(type(d.aspect).__name__ for d in unknown))
            )
        if not targeted:
            return
        oldest = min(i for i, e in enumerate(active) if e.deployment in targeted)
        unwound = active[oldest:]
        for entry in reversed(unwound):
            self._runtime.undeploy(entry.deployment)
        survivors = [e for e in unwound if e.deployment not in targeted]
        self._entries = [
            e for e in self._entries if e.deployment.active or e in survivors
        ]
        for entry in survivors:
            entry.deployment = self._runtime._deploy(
                entry.aspect,
                entry.targets,
                fields=entry.fields,
                require_match=entry.require_match,
                instances=entry.scope,
                members=entry.members,
                _scans=self._batch,
            )

    def __enter__(self) -> "DeploymentSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not self._committed:
            self.rollback()
        else:
            self.commit()


#: The process-default runtime: it owns the module-level shadow index,
#: cflow-watcher count and codegen cache of :mod:`repro.aop.weaver` and
#: :mod:`repro.aop.codegen`.
default_runtime = WeaverRuntime(
    "default",
    shadow_index=_default_shadow_index,
    watchers=_cflow_watchers,
    codegen_cache=codegen.default_cache,
)
