"""Weaving mechanism: shadows, compiled chains, woven members.

This module is the *mechanism* layer of the weaver — everything a
deployment needs to rewrite classes reversibly:

- shadow scanning and the memoized :class:`ShadowIndex` (scans are
  validated against a process-wide token board, so one runtime's weave
  invalidates every other runtime's cached scan of the same class);
- compiled advice chains (:class:`CompiledChain`) and the per-shadow
  residue selector (:class:`_ChainSelector`);
- the woven-member bookkeeping (:class:`Deployment`, :class:`_WovenMember`)
  and the wrapper/descriptor factories that pick a dispatch tier.

The *policy* layer — scoped :class:`~repro.aop.runtime.WeaverRuntime`
instances, transactional :class:`~repro.aop.runtime.DeploymentSet` batches
and introspection — lives in :mod:`repro.aop.runtime`.

The hot path is *code-generated at deployment time*: each woven method
shadow gets a specialized closure (see :mod:`repro.aop.codegen`) that
inlines its exact advice sequence over a pooled, lazily-constructed
:class:`~repro.aop.joinpoint.JoinPoint`; shadows whose advice is fully
static — no ``cflow``, ``target`` or ``args`` residue, and no cflow entry
tracking needed — skip the join point stack, per-call pointcut
re-evaluation *and* join point allocation entirely.  Setting
``REPRO_AOP_CODEGEN=0`` falls back to the generic :class:`CompiledChain`
wrappers (advice partitioned by kind once, around-nesting precomputed).
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from types import FunctionType, ModuleType
from typing import Any, Callable, Iterable

from . import codegen
from .advice import Advice, AdviceKind
from .aspect import Aspect
from .errors import WeavingError
from .introduce import AppliedIntroduction
from .joinpoint import (
    JoinPoint,
    JoinPointKind,
    JoinPointPool,
    ProceedingJoinPoint,
    pop_frame,
    push_frame,
)

_MISSING = object()


# -- compiled advice chains ---------------------------------------------------


class CompiledChain:
    """An advice chain partitioned by kind once, executed many times.

    The advice list is partitioned into before/around/after buckets once
    (at deployment time) and each bucket is stored pre-ordered, so calling
    the chain only pays for the around-closure nesting and the advice
    bodies themselves.

    Before advice runs outermost-first, after advice innermost-first
    (reversed), around advice nests outermost wrapping the rest, and the
    exception path runs after-throwing then after (finally) before
    re-raising.
    """

    __slots__ = (
        "advice",
        "_befores",
        "_arounds_rev",
        "_returnings_rev",
        "_throwings_rev",
        "_finallys_rev",
    )

    def __init__(self, advice: Iterable[Advice]):
        self.advice: tuple[Advice, ...] = tuple(advice)
        self._befores = tuple(a for a in self.advice if a.kind is AdviceKind.BEFORE)
        # Arounds are applied innermost-first when building the nesting, and
        # the three after-flavours run innermost-first: store them reversed.
        self._arounds_rev = tuple(
            reversed([a for a in self.advice if a.kind is AdviceKind.AROUND])
        )
        self._returnings_rev = tuple(
            reversed([a for a in self.advice if a.kind is AdviceKind.AFTER_RETURNING])
        )
        self._throwings_rev = tuple(
            reversed([a for a in self.advice if a.kind is AdviceKind.AFTER_THROWING])
        )
        self._finallys_rev = tuple(
            reversed([a for a in self.advice if a.kind is AdviceKind.AFTER])
        )

    def __call__(self, jp: JoinPoint, proceed: Callable[..., Any]) -> Any:
        chain = proceed
        for around_advice in self._arounds_rev:
            chain = _wrap_around(around_advice, jp, chain)

        for item in self._befores:
            item.invoke(jp)
        try:
            result = chain(*jp.args, **jp.kwargs)
        except Exception as exc:
            jp.result = exc
            for item in self._throwings_rev:
                item.invoke(jp)
            for item in self._finallys_rev:
                item.invoke(jp)
            raise
        jp.result = result
        for item in self._returnings_rev:
            item.invoke(jp)
        for item in self._finallys_rev:
            item.invoke(jp)
        return result


def _wrap_around(advice: Advice, jp: JoinPoint, inner: Callable[..., Any]):
    def runner(*args: Any, **kwargs: Any) -> Any:
        # The caller (the chain entry or an outer proceed()) has already
        # resolved the intended arguments — possibly an intentionally empty
        # tuple/dict — so they are taken verbatim.  The old ``args or
        # jp.args`` fallback silently replayed the original arguments
        # whenever an outer advice proceeded with falsy ones.
        pjp = ProceedingJoinPoint.for_chain(jp, inner, args, kwargs)
        return advice.invoke(pjp)

    return runner


class _ChainSelector:
    """Per-call residue filtering over pointcut-level memoized mask indices.

    Each advice's residue decomposes (:meth:`Pointcut.residue_parts`) into
    a *class-settled* part — depending only on the join point's runtime
    class, so its verdict is computed **once per (pointcut, class)** and
    cached as a bitmask — and a genuinely *per-call* part (``cflow``,
    ``target``, ``args`` tests).  A call pays only for the per-call tests
    of advice its class mask still admits.  The surviving subset is
    usually one of a handful of combinations, so the compiled chain for
    each subset (keyed by the advice bitmask) is built once and reused.

    The class-mask cache is weak-keyed (like :class:`ShadowIndex`): a
    long-lived deployment advising a base class must not pin every
    ephemeral subclass whose instances pass through the shadow.
    """

    __slots__ = (
        "advice",
        "has_dynamic",
        "full_chain",
        "_chains",
        "_full_mask",
        "_class_tests",
        "_call_tests",
        "_class_masks",
    )

    def __init__(self, advice: Iterable[Advice]):
        self.advice: tuple[Advice, ...] = tuple(advice)
        self.full_chain = CompiledChain(self.advice)
        self._full_mask = (1 << len(self.advice)) - 1
        self._chains: dict[int, CompiledChain] = {self._full_mask: self.full_chain}
        self._class_tests: list[tuple[int, Any]] = []
        self._call_tests: list[tuple[int, Any]] = []
        for index, item in enumerate(self.advice):
            class_part, call_part = item.residue_parts()
            if class_part is not None:
                self._class_tests.append((1 << index, class_part))
            if call_part is not None:
                self._call_tests.append((1 << index, call_part))
        self.has_dynamic = bool(self._class_tests or self._call_tests)
        self._class_masks: "weakref.WeakKeyDictionary[type, int]" = (
            weakref.WeakKeyDictionary()
        )

    def class_mask(self, jp: JoinPoint) -> int:
        """Admissible-advice bits for *jp*'s runtime class (memoized)."""
        mask = self._class_masks.get(jp.cls)
        if mask is None:
            mask = self._full_mask
            for bit, pointcut in self._class_tests:
                if not pointcut.matches_dynamic(jp):
                    mask &= ~bit
            self._class_masks[jp.cls] = mask
        return mask

    def select(self, jp: JoinPoint) -> CompiledChain | None:
        """The compiled chain for the advice matching *jp*, or None."""
        if not self.has_dynamic:
            # Static advice on a frame-tracked shadow: everything applies.
            return self.full_chain if self.advice else None
        mask = self.class_mask(jp) if self._class_tests else self._full_mask
        for bit, pointcut in self._call_tests:
            if mask & bit and not pointcut.matches_dynamic(jp):
                mask &= ~bit
        if not mask:
            return None
        chain = self._chains.get(mask)
        if chain is None:
            chain = self._chains[mask] = CompiledChain(
                item for index, item in enumerate(self.advice) if mask >> index & 1
            )
        return chain


# -- shadows -----------------------------------------------------------------


class MethodShadow:
    """A method the weaver may wrap: where it is reachable and its code.

    Holds its class weakly.  A :class:`ShadowIndex` caches scans in a
    weak-keyed map, and a value that referred to its own key strongly
    would keep every class the index ever scanned alive as long as the
    index — every generated subclass a long-lived runtime wove, say.
    """

    __slots__ = ("_cls", "name", "original", "inherited")

    def __init__(self, cls: type, name: str, original: Callable, inherited: bool):
        self._cls = weakref.ref(cls)
        self.name = name
        self.original = original
        #: True when the method is inherited (the wrapper becomes an override).
        self.inherited = inherited

    @property
    def cls(self) -> type:
        return self._cls()

    def __repr__(self) -> str:
        return (
            f"MethodShadow(cls={self.cls!r}, name={self.name!r}, "
            f"inherited={self.inherited!r})"
        )


def _scan_method_shadows(cls: type) -> tuple[MethodShadow, ...]:
    """One vectorized pass over the MRO's ``__dict__``s.

    The seed scan ran ``dir()`` + ``inspect.getattr_static`` once *per
    member name*, re-walking the MRO for every name.  A single pass over
    each class dict in MRO order (most-derived first, first definition
    wins) visits every member exactly once and needs no per-name MRO
    search; names are sorted afterwards to preserve the ``dir()``-order
    contract of the old scan.  Members reachable only through the
    metaclass are not scanned (they never were join point shadows in
    practice — accessing them through an instance fails anyway).
    """
    found: dict[str, Any] = {}
    for klass in cls.__mro__:
        for name, member in klass.__dict__.items():
            if name.startswith("__") or name in found:
                continue
            found[name] = member
    own = cls.__dict__
    return tuple(
        MethodShadow(cls=cls, name=name, original=member, inherited=name not in own)
        for name, member in sorted(found.items())
        if isinstance(member, FunctionType)
    )


@dataclass(frozen=True)
class ModuleShadow:
    """A module-level function the weaver may wrap.

    The structural twin of :class:`MethodShadow` for module globals:
    ``module`` owns the ``name`` binding, ``original`` is the function the
    weave replaces (and undeploy restores).  ``cls`` aliases the module
    object so every container-agnostic consumer — :class:`_WovenMember`,
    deployment planning, ``woven_sites()`` — reads one field name for
    "the thing holding the member"; a module's ``__name__`` is its dotted
    path, which makes the derived signatures read
    ``package.module.function``.  Module bindings are never inherited.
    """

    module: ModuleType
    name: str
    original: Callable

    #: Module globals have no MRO to inherit through.
    inherited: bool = False

    @property
    def cls(self) -> ModuleType:
        return self.module


def _scan_module_shadows(module: ModuleType) -> tuple[ModuleShadow, ...]:
    """Weavable function shadows of one module, sorted by name.

    Only plain functions *defined by* the module are shadows: imported
    functions (``from os.path import join``) belong to their defining
    module and would be woven there, and underscore-prefixed names are
    private by convention, matching the method scan's dunder skip.  The
    ``__module__`` test stays true across re-weaves — wrapper factories
    copy the original's metadata via ``functools.update_wrapper``.
    """
    return tuple(
        ModuleShadow(module=module, name=name, original=member)
        for name, member in sorted(module.__dict__.items())
        if isinstance(member, FunctionType)
        and not name.startswith("_")
        and getattr(member, "__module__", None) == module.__name__
    )


class _TokenBoard:
    """Process-wide per-class invalidation stamps shared by every runtime.

    Scan *caches* are per-:class:`ShadowIndex` (each
    :class:`~repro.aop.runtime.WeaverRuntime` owns one), but class
    *mutation* is process-global: when runtime A rewrites a member of a
    class, runtime B's cached scan of it is stale.  The board is the
    cross-runtime signal — every invalidation stamps the class (and its
    live subclasses) with a fresh monotonic token, and every index
    validates its cached entries against the board at lookup time.  The
    counter is never reset: a re-used stamp could make an outstanding
    deployment's pre-weave snapshot look restorable when it is not.
    """

    __slots__ = ("_tokens", "_counter")

    def __init__(self) -> None:
        self._tokens: "weakref.WeakKeyDictionary[type, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._counter = 0

    def token(self, cls: type) -> int:
        """The stamp of the last invalidation that hit *cls* (0 = never)."""
        return self._tokens.get(cls, 0)

    def bump(self, cls: type) -> int:
        """Stamp *cls* and every (live) subclass with a fresh token.

        Walks ``__subclasses__`` transitively rather than any cache's keys:
        a subclass nobody has scanned yet must still get a fresh token, or
        a deployment's pre-weave snapshot of it could later be "restored"
        over a base-class weave it never saw.  Returns *cls*'s new token.
        """
        self._counter += 1
        stamp = self._counter
        seen: set[type] = set()
        stack = [cls]
        while stack:
            klass = stack.pop()
            if klass in seen:
                continue
            seen.add(klass)
            self._tokens[klass] = stamp
            # Module targets share the board but have no subclass fan-out.
            if isinstance(klass, type):
                stack.extend(klass.__subclasses__())
        return stamp

    def restore(self, cls: type, token: int) -> None:
        """Reinstate an earlier stamp after an exact byte-for-byte revert."""
        self._tokens[cls] = token

    def clear(self) -> None:
        """Forget every stamp (the counter keeps running; see class docs).

        Outstanding deployments' snapshots become ineligible for restore —
        their woven token (>= 1) can no longer match the board — so
        undeploys after a clear degrade to honest rescans, which is the
        point of clearing after external class mutation.
        """
        self._tokens.clear()


#: The process-wide invalidation board every :class:`ShadowIndex` validates
#: its cached scans against (class mutation by one runtime must invalidate
#: scans another runtime would otherwise reuse).
_token_board = _TokenBoard()


class ShadowIndex:
    """Memoized shadow scans, invalidated when a weaver rewrites members.

    Scanning is the dominant cost of deployment planning, and a single
    deploy used to rescan each target up to three times (declare-error
    check, advice matching, cflow entry instrumentation).  The index
    computes each class's shadows once and records the class's
    :class:`_TokenBoard` stamp alongside; a cached entry is served only
    while its stamp still matches the board, so a weave by *any* runtime —
    this one or another — forces an honest rescan here.

    Classes mutated *outside* any weaver between two deployments are the
    caller's responsibility: pass them through :meth:`invalidate` (or
    :meth:`clear`) before redeploying.
    """

    def __init__(self) -> None:
        self._cache: (
            "weakref.WeakKeyDictionary[type, tuple[int, tuple[MethodShadow, ...]]]"
        ) = weakref.WeakKeyDictionary()

    def shadows(self, cls: "type | ModuleType") -> tuple[Any, ...]:
        """Cached shadows of a class *or module* target.

        Modules ride the same machinery — they are hashable and weakly
        referenceable, so the cache and token board need no special
        casing; only the scan itself dispatches on the target kind.
        """
        token = _token_board.token(cls)
        entry = self._cache.get(cls)
        if entry is not None and entry[0] == token:
            return entry[1]
        if isinstance(cls, type):
            scan: tuple[Any, ...] = _scan_method_shadows(cls)
        else:
            scan = _scan_module_shadows(cls)
        self._cache[cls] = (token, scan)
        return scan

    def token(self, cls: type) -> int:
        """Opaque stamp of the last invalidation that hit *cls* (0 = never)."""
        return _token_board.token(cls)

    def invalidate(self, cls: type) -> int:
        """Stamp *cls* and every (live) subclass stale, process-wide.

        Every runtime's cached scans of the stamped classes self-invalidate
        at their next lookup.  Returns the new invalidation token for
        *cls*.
        """
        self._cache.pop(cls, None)
        return _token_board.bump(cls)

    def prime(self, cls: type, shadows: tuple[MethodShadow, ...]) -> None:
        """Install a scan known to equal what a fresh rescan would produce.

        The batch planner derives each class's post-weave scan from the
        pre-weave one plus the members it just installed (a pure in-memory
        update), so the scan walk can be skipped.  The caller vouches for
        exactness; the entry is recorded under the class's current board
        stamp (as left by the preceding :meth:`invalidate`).
        """
        self._cache[cls] = (_token_board.token(cls), shadows)

    def restore_after_revert(
        self,
        cls: type,
        shadows: tuple[MethodShadow, ...],
        *,
        woven_token: int,
        pre_token: int,
    ) -> None:
        """Reinstate a pre-weave snapshot after an exact undeploy.

        Undeploy restores the class byte-for-byte, so the scan captured
        before the deployment is valid again — *unless* someone else
        (another deployment, any runtime) invalidated the class in between
        (the board stamp would differ from the one this deployment stamped
        at weave time), in which case this degrades to a plain
        invalidation and the next deploy rescans.  Restoring the
        *pre-weave* stamp also revalidates other runtimes' scans taken
        before this deployment wove — the class bytes they describe are
        back.
        """
        eligible = _token_board.token(cls) == woven_token
        _token_board.bump(cls)  # subclass entries are stale everywhere
        if eligible:
            _token_board.restore(cls, pre_token)
            self._cache[cls] = (pre_token, shadows)
        else:
            self._cache.pop(cls, None)

    def clear(self) -> None:
        """Drop this index's scans *and* every board stamp.

        Clearing stamps makes every outstanding deployment's snapshot
        ineligible for restore (its woven token can no longer match), so
        undeploys after a clear degrade to honest rescans — which is the
        point of clearing after external class mutation.
        """
        self._cache.clear()
        _token_board.clear()


#: The default runtime's shadow index (the seed had a single process-wide
#: index); other :class:`~repro.aop.runtime.WeaverRuntime` instances own
#: their own.
shadow_index = ShadowIndex()


class _BatchScans:
    """One real shadow scan per class for a whole batch deployment.

    Sequential deploys invalidate every class they touch, so aspect *i + 1*
    used to rescan the classes aspect *i* wove even though the only change
    is the wrappers the weaver itself just installed.  This view scans each
    class once (through the owning runtime's :class:`ShadowIndex`) and
    thereafter *derives* the post-weave scan in memory: a woven member
    replaces its entry (the wrapper becomes the shadow, no longer
    inherited), a field descriptor drops any function entry of that name,
    and everything else is untouched.  Derived scans are primed back into
    the index, so nested installs across the batch — and the first scan
    after it — stay rescan-free, making batch deployment
    O(classes × members) in scan work regardless of the number of aspects.

    Introductions fall back to honest rescans (they add members the
    derivation does not model), as do subclasses of a touched class (their
    inherited entries change underneath them).
    """

    __slots__ = ("_index", "_scans")

    def __init__(self, index: ShadowIndex) -> None:
        self._index = index
        self._scans: dict[type, tuple[MethodShadow, ...]] = {}

    def shadows(self, cls: type) -> tuple[MethodShadow, ...]:
        scan = self._scans.get(cls)
        if scan is None:
            scan = self._scans[cls] = self._index.shadows(cls)
        return scan

    def _drop(self, cls: type, *, and_self: bool) -> None:
        # Module targets have no subclasses: only the exact entry can drop.
        if not isinstance(cls, type):
            if and_self:
                self._scans.pop(cls, None)
            return
        for cached in [
            k
            for k in self._scans
            if (and_self or k is not cls)
            and isinstance(k, type)
            and issubclass(k, cls)
        ]:
            del self._scans[cached]

    def note_introduction(self, cls: type) -> None:
        """An introduction mutated *cls*: rescan it (and subclasses)."""
        self._drop(cls, and_self=True)

    def apply_installs(self, cls: type, installed: dict[str, Any]) -> None:
        """Derive *cls*'s post-weave scan and prime the shared index.

        Called after the weaver invalidated *cls* for this deployment, so
        the primed entry carries the fresh woven token.
        """
        self._drop(cls, and_self=False)
        old = self._scans.get(cls)
        if old is None:
            return  # never scanned this batch (or introduction-reset)
        is_module = not isinstance(cls, type)
        derived: list[Any] = []
        for entry in old:
            wrapper = installed.get(entry.name, _MISSING)
            if wrapper is _MISSING:
                derived.append(entry)
            elif isinstance(wrapper, FunctionType):
                if is_module:
                    derived.append(
                        ModuleShadow(module=cls, name=entry.name, original=wrapper)
                    )
                else:
                    derived.append(
                        MethodShadow(
                            cls=cls, name=entry.name, original=wrapper, inherited=False
                        )
                    )
            # else: a data descriptor displaced the function — rescans
            # would not report it, so neither does the derived scan.
        scan = tuple(derived)
        self._scans[cls] = scan
        self._index.prime(cls, scan)


def method_shadows(cls: type) -> list[MethodShadow]:
    """All weavable method shadows of *cls* (plain functions, no dunders).

    Memoized through the default runtime's :data:`shadow_index`; weavers
    invalidate entries whenever they install or revert members.
    """
    return list(shadow_index.shadows(cls))


def module_shadows(module: ModuleType) -> list[ModuleShadow]:
    """All weavable function shadows of *module* (see the scan's rules).

    Memoized through the default runtime's :data:`shadow_index`, exactly
    like :func:`method_shadows`.
    """
    return list(shadow_index.shadows(module))


class _WatcherCount:
    """Mutable live count of cflow-watching deployments.

    A one-slot object rather than a module global so that code-generated
    wrappers (whose globals are their own exec namespace, not this
    module's) can bind it as a free variable and still observe updates —
    rebinding a module-level int would leave them reading a stale value.

    Cflow deployments raise/lower the count through :meth:`watch` /
    :meth:`unwatch`, which also flip every registered scope-marker class
    default between ``None`` and :data:`codegen.WATCHED` on 0↔1
    transitions — that flip is what lets marker-dispatched scoped
    wrappers route unscoped receivers with a single attribute load while
    staying frame-correct under cflow observation.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def watch(self) -> None:
        """A cflow-carrying deployment went live."""
        self.count += 1
        if self.count == 1:
            _marker_defaults.refresh(self)

    def unwatch(self) -> None:
        """A cflow-carrying deployment unwound."""
        self.count -= 1
        if self.count == 0:
            _marker_defaults.refresh(self)


class _MarkerDefaults:
    """Process-wide registry of scope-marker class defaults.

    A marker-dispatched scoped wrapper reads ``self.<marker>`` once per
    call; the *class-level* default it falls back to for unscoped
    receivers is owned here, not by any deployment: ``None`` while no
    registered watcher count is live (fast passthrough) and
    :data:`codegen.WATCHED` while one is (frames must be pushed, so the
    wrapper takes its slow path).  Sites are refcounted per
    ``(class, attr)`` — several deployments (even across runtimes) may
    dispatch through one scope's marker — and the default is recomputed
    over *every* watcher object registered on the site, so a runtime
    sharing a scope with a cflow-watching runtime degrades to the slow
    (correct) path rather than skipping frames.  Classes are held weakly.
    """

    def __init__(self) -> None:
        self._by_class: (
            "weakref.WeakKeyDictionary[type, dict[str, list]]"
        ) = weakref.WeakKeyDictionary()

    def _value(self, watcher_set: set) -> Any:
        return codegen.WATCHED if any(w.count for w in watcher_set) else None

    def register(self, cls: type, attr: str, watchers: _WatcherCount) -> None:
        """One more deployment dispatches through ``cls.<attr>``."""
        sites = self._by_class.setdefault(cls, {})
        entry = sites.get(attr)
        if entry is None:
            entry = sites[attr] = [0, set()]
        entry[0] += 1
        entry[1].add(watchers)
        setattr(cls, attr, self._value(entry[1]))

    def unregister(self, cls: type, attr: str) -> None:
        """A dispatching deployment unwound; drop the default at zero."""
        sites = self._by_class.get(cls)
        if sites is None:
            return
        entry = sites.get(attr)
        if entry is None:
            return
        entry[0] -= 1
        if entry[0] <= 0:
            del sites[attr]
            try:
                delattr(cls, attr)
            except AttributeError:
                pass

    def refresh(self, watchers: _WatcherCount) -> None:
        """A watcher transition: recompute the sites *watchers* is on."""
        for cls, sites in list(self._by_class.items()):
            for attr, (_, watcher_set) in list(sites.items()):
                if watchers in watcher_set:
                    setattr(cls, attr, self._value(watcher_set))


#: The marker-default board (see :class:`_MarkerDefaults`).
_marker_defaults = _MarkerDefaults()


#: The default runtime's cflow-watcher count: its active deployments
#: whose advice carries a ``cflow()`` /
#: ``cflowbelow()`` residue.  The seed weaver pushed a join point frame on
#: *every* woven shadow, which is what made cflow residues from one
#: deployment observe shadows woven by another.  Static fast-path wrappers
#: preserve that: they check this counter per call (one attribute read) and
#: push frames whenever any cflow watcher is live anywhere in their
#: runtime, and skip the stack bookkeeping only when no residue could
#: possibly observe it.  Scoped runtimes own their own count — that is the
#: isolation the runtime API promises.
_cflow_watchers = _WatcherCount()


# -- instance scopes ----------------------------------------------------------


class InstanceScope:
    """A weakref-keyed set of instances one deployment's advice covers.

    Weaving rewrites *classes*; an instance scope narrows a deployment so
    its advice fires only for calls whose receiver is a member of the
    scope — every other instance falls straight through to the member the
    class had before this deployment wove (a near-plain fast path).  The
    scope never pins its members: each is held by a weakref whose callback
    drops the entry, so an instance that dies simply leaves the scope.

    Dispatch membership is tested one of two ways:

    - **marker dispatch** (the codegen tier, when every member has a
      ``__dict__``): the scope owns a unique marker attribute name; the
      deployment registers a class default for it (on the
      :class:`_MarkerDefaults` board, which flips it with cflow-watcher
      state) and stamps each member instance with an instance-dict
      entry, so the generated wrapper's test is a single attribute load.
      Markers exist only while marker-dispatched deployments are live
      (acquire/release below) and die with the deployment — or with the
      instance.  The stamp *is* the dispatch: copying a member instance
      copies its ``__dict__`` stamp, so the copy is advised until
      :meth:`discard` strips it (or :meth:`add` adopts it).
    - **id dispatch** (the generic tier, ``__slots__`` members,
      unrenderable signatures): ``id(obj)`` membership in a live set the
      weakref callbacks keep honest.

    Scopes are mutable (``add``/``discard``) and shared freely across
    deployments — a :class:`~repro.aop.runtime.DeploymentSet` partial
    undeploy re-weaves survivors with their original scope objects, so
    membership survives the re-weave untouched.
    """

    _counter = itertools.count(1)

    __slots__ = ("attr", "markable", "_ids", "_refs", "_pinned", "_marker_users")

    def __init__(self, instances: Iterable[Any] = ()) -> None:
        #: The marker attribute name (unique per scope, never reused).
        self.attr = f"_aop_scope_{next(InstanceScope._counter)}"
        #: Whether every member can carry the instance marker.
        self.markable = True
        self._ids: set[int] = set()
        self._refs: dict[int, weakref.ref] = {}
        #: Members that cannot be weakly referenced (``__slots__`` without
        #: ``__weakref__``): pinned strongly until discarded.
        self._pinned: dict[int, Any] = {}
        self._marker_users = 0
        for obj in instances:
            self.add(obj)

    @classmethod
    def resolve(
        cls, instances: "Iterable[Any] | InstanceScope | None"
    ) -> "InstanceScope | None":
        """Coerce a deploy-time ``instances=`` argument to a scope (or None)."""
        if instances is None:
            return None
        if isinstance(instances, InstanceScope):
            return instances
        return cls(instances)

    def __repr__(self) -> str:
        return f"<InstanceScope {self.attr} ({len(self._ids)} instances)>"

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, obj: Any) -> bool:
        return id(obj) in self._ids

    @property
    def ids(self) -> set[int]:
        """The live member-id set (the object id-dispatch wrappers gate on)."""
        return self._ids

    def instances(self) -> list[Any]:
        """The scope's live members (weakrefs dereferenced)."""
        return self._live_members()

    def add(self, obj: Any) -> None:
        """Admit *obj* to the scope (idempotent, effective immediately)."""
        oid = id(obj)
        if oid in self._ids:
            return
        if not hasattr(obj, "__dict__"):
            if self._marker_users:
                raise WeavingError(
                    f"cannot add a {type(obj).__name__!r} instance (no "
                    "__dict__) to a marker-dispatched scope; undeploy and "
                    "redeploy to switch the scope to id dispatch"
                )
            self.markable = False
        ids, refs = self._ids, self._refs

        def _drop(_ref: weakref.ref, oid: int = oid) -> None:
            ids.discard(oid)
            refs.pop(oid, None)

        try:
            refs[oid] = weakref.ref(obj, _drop)
        except TypeError:
            # No __weakref__ slot: pin strongly (id reuse after an
            # untracked death would otherwise scope a stranger).
            self._pinned[oid] = obj
        ids.add(oid)
        if self._marker_users and self.markable:
            setattr(obj, self.attr, self)

    def discard(self, obj: Any) -> None:
        """Remove *obj* from the scope (idempotent, effective immediately).

        Also strips a stray marker stamp from a non-member: copying a
        member instance copies its ``__dict__`` — stamp included — so the
        copy is advised by marker dispatch until it is discarded here (or
        adopted with :meth:`add`).
        """
        oid = id(obj)
        self._ids.discard(oid)
        self._refs.pop(oid, None)
        self._pinned.pop(oid, None)
        if self.markable:
            try:
                delattr(obj, self.attr)
            except AttributeError:
                pass

    # -- marker lifecycle (driven by deploy/undeploy) --------------------------

    def _live_members(self) -> list[Any]:
        """Every current member object: dereferenced weakrefs plus pinned."""
        alive = []
        for ref in list(self._refs.values()):
            obj = ref()
            if obj is not None:
                alive.append(obj)
        alive.extend(list(self._pinned.values()))
        return alive

    def _acquire_markers(self) -> None:
        """A marker-dispatched deployment went live: stamp every member."""
        self._marker_users += 1
        if self._marker_users == 1:
            for obj in self._live_members():
                setattr(obj, self.attr, self)

    def _release_markers(self) -> None:
        """A marker-dispatched deployment unwound; unstamp at zero users."""
        self._marker_users -= 1
        if self._marker_users == 0:
            for obj in self._live_members():
                try:
                    delattr(obj, self.attr)
                except AttributeError:
                    pass


class _WovenField:
    """A data descriptor turning attribute access into field join points.

    Get/set advice chains are compiled once at construction.  When every
    advice is static and no cflow watcher is live in the owning runtime
    (checked per access), access skips the join point stack and residue
    filtering entirely, and runs the chain over a pooled join point (the
    dynamic path keeps plain allocation: its frames may outlive the access
    inside captured stack tuples).  Fully-static fields normally deploy as
    a code-generated subclass (see :func:`codegen.generate_field_descriptor`)
    whose accessors inline the chain; this class is the
    ``REPRO_AOP_CODEGEN=0`` escape hatch and the dynamic-path fallback.
    """

    def __init__(
        self,
        name: str,
        get_advice: list[Advice],
        set_advice: list[Advice],
        class_default: Any = _MISSING,
        watchers: _WatcherCount | None = None,
        scope: InstanceScope | None = None,
    ):
        self._name = name
        self._get_advice = get_advice
        self._set_advice = set_advice
        self._class_default = class_default
        self._watchers = watchers if watchers is not None else _cflow_watchers
        self._scope = scope
        self._get_selector = _ChainSelector(get_advice)
        self._set_selector = _ChainSelector(set_advice)
        self._get_static = not self._get_selector.has_dynamic
        self._set_static = not self._set_selector.has_dynamic
        self._make_pools()

    def _make_pools(self) -> None:
        self._get_pool = JoinPointPool(JoinPointKind.FIELD_GET, self._name)
        self._set_pool = JoinPointPool(JoinPointKind.FIELD_SET, self._name)

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name
        self._make_pools()

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self

        def read(*_args: Any, **_kwargs: Any) -> Any:
            if self._name in obj.__dict__:
                return obj.__dict__[self._name]
            if self._class_default is not _MISSING:
                return self._class_default
            raise AttributeError(
                f"{type(obj).__name__!r} object has no attribute {self._name!r}"
            )

        if self._scope is not None and id(obj) not in self._scope.ids:
            if not self._watchers.count:
                return read()
            jp = JoinPoint(JoinPointKind.FIELD_GET, obj, type(obj), self._name)
            token = push_frame(jp)
            try:
                return read()
            finally:
                pop_frame(token)

        if self._get_static and not self._watchers.count:
            if not self._get_advice:
                return read()
            jp = self._get_pool.acquire(obj, (), {})
            try:
                return self._get_selector.full_chain(jp, read)
            finally:
                self._get_pool.release(jp)

        jp = JoinPoint(JoinPointKind.FIELD_GET, obj, type(obj), self._name)
        token = push_frame(jp)
        try:
            chain = self._get_selector.select(jp)
            if chain is None:
                return read()
            return chain(jp, read)
        finally:
            pop_frame(token)

    def __set__(self, obj: Any, value: Any) -> None:
        def write(new_value: Any = value) -> None:
            obj.__dict__[self._name] = new_value

        if self._scope is not None and id(obj) not in self._scope.ids:
            if not self._watchers.count:
                write()
                return
            jp = JoinPoint(
                JoinPointKind.FIELD_SET,
                obj,
                type(obj),
                self._name,
                args=(value,),
                value=value,
            )
            token = push_frame(jp)
            try:
                write()
                return
            finally:
                pop_frame(token)

        if self._set_static and not self._watchers.count:
            if not self._set_advice:
                write()
                return
            jp = self._set_pool.acquire(obj, (value,), {})
            jp.value = value
            try:
                self._set_selector.full_chain(jp, write)
            finally:
                self._set_pool.release(jp)
            return

        jp = JoinPoint(
            JoinPointKind.FIELD_SET,
            obj,
            type(obj),
            self._name,
            args=(value,),
            value=value,
        )
        token = push_frame(jp)
        try:
            chain = self._set_selector.select(jp)
            if chain is None:
                write()
                return
            chain(jp, write)
        finally:
            pop_frame(token)


# -- deployments --------------------------------------------------------------


@dataclass
class _WovenMember:
    cls: type
    name: str
    installed: Any
    previous: Any  # _MISSING when the name was inherited (no own entry)

    def revert(self) -> None:
        current = self.cls.__dict__.get(self.name, _MISSING)
        if current is not self.installed:
            raise WeavingError(
                f"cannot undeploy: {self.cls.__name__}.{self.name} was re-woven "
                "or replaced after this deployment (undeploy in LIFO order)"
            )
        if self.previous is _MISSING:
            delattr(self.cls, self.name)
        else:
            setattr(self.cls, self.name, self.previous)


@dataclass(eq=False)
class Deployment:
    """A reversible record of one aspect woven into a set of classes.

    Identity semantics (``eq=False``): a deployment is a mutable record of
    what one weave did, usable as a set/dict key by handle.
    """

    aspect: Aspect
    members: list[_WovenMember] = field(default_factory=list)
    introductions: list[AppliedIntroduction] = field(default_factory=list)
    active: bool = True
    #: The instance scope this deployment is narrowed to (None = class-wide).
    scope: InstanceScope | None = None
    #: cls -> (pre-weave shadow snapshot, pre-weave token, post-weave token);
    #: lets undeploy reinstate the shadow cache instead of forcing a rescan.
    _cache_state: dict = field(default_factory=dict, repr=False)
    #: True when this deployment raised its runtime's cflow-watcher count.
    _tracks_cflow: bool = field(default=False, repr=False)
    #: True while this deployment holds its scope's instance markers.
    _holds_markers: bool = field(default=False, repr=False)
    #: ``(cls, attr)`` marker class defaults this deployment registered.
    _marker_sites: list = field(default_factory=list, repr=False)
    #: The shadow index and watcher count of the runtime that wove this
    #: deployment — undeploy must restore exactly the state it disturbed,
    #: whichever runtime object performs it.
    _index: ShadowIndex | None = field(default=None, repr=False)
    _watchers: _WatcherCount | None = field(default=None, repr=False)

    def woven_signatures(self) -> list[str]:
        """Human-readable list of what this deployment touched."""
        return sorted(f"{m.cls.__name__}.{m.name}" for m in self.members)


def _release_marker_state(deployment: Deployment) -> None:
    """Drop a deployment's scope-marker residue (stamps + class defaults).

    Shared by strict undeploy and the forgiving rollback unwind, so the
    marker lifecycle cannot drift between the two paths: the scope's
    instance stamps are released (last user removes them) and every
    marker class default this deployment registered is unregistered from
    the board (refcounted — shared sites survive).
    """
    if deployment._holds_markers and deployment.scope is not None:
        deployment.scope._release_markers()
        deployment._holds_markers = False
    for cls, attr in deployment._marker_sites:
        _marker_defaults.unregister(cls, attr)
    deployment._marker_sites.clear()


def _rollback_partial_weave(deployment: Deployment, index: ShadowIndex) -> None:
    """Best-effort unwind of a deploy that raised mid-weave.

    Reverts whatever the failing deployment already applied (members LIFO,
    then introductions) and invalidates the touched classes, so a raising
    deploy never leaves class mutations the caller has no deployment
    handle to undo.  Revert errors are swallowed — the original exception
    is the one worth propagating, and the invalidation forces honest
    rescans for anything left inconsistent.
    """
    touched: set[type] = set()
    for member in reversed(deployment.members):
        touched.add(member.cls)
        try:
            member.revert()
        except Exception:
            pass
    for applied in reversed(deployment.introductions):
        touched.add(applied.cls)
        try:
            applied.revert()
        except Exception:
            pass
    deployment.members.clear()
    deployment.introductions.clear()
    deployment._cache_state.clear()
    _release_marker_state(deployment)
    for cls in touched:
        index.invalidate(cls)


# -- wrapper and descriptor factories -----------------------------------------


def make_method_wrapper(
    shadow: MethodShadow,
    advice: list[Advice],
    *,
    watchers: _WatcherCount,
    codegen_cache: "codegen.CodegenCache | None" = None,
    scope: InstanceScope | None = None,
):
    """The wrapper for one method shadow, in the fastest eligible tier.

    With an instance *scope*, the wrapper is a per-shadow dispatch: a
    membership test routes scoped receivers into the advice chain and
    every other instance straight into ``shadow.original`` (the member the
    class had before this deployment — possibly an earlier deployment's
    wrapper, which is how class-wide and instance-scoped deployments
    compose).  The codegen tier fuses the test into the generated wrapper
    (marker attribute when the scope allows it, exact signature when
    renderable); the generic tier gates its usual closures on scope-id
    membership.
    """
    selector = _ChainSelector(advice)
    # Codegen specializes fully-static chains only; dynamic-residue
    # and tracking-only shadows are generic dispatch by construction
    # and share the generic closures in both tiers.
    if advice and not selector.has_dynamic and codegen.codegen_enabled():
        wrapper = codegen.generate_method_wrapper(
            shadow.original,
            shadow.name,
            tuple(advice),
            selector,
            watchers,
            cache=codegen_cache,
            scope=scope,
        )
    else:
        wrapper = _make_generic_method_wrapper(shadow, advice, selector, watchers)
        if scope is not None:
            wrapper = _scope_gate_wrapper(wrapper, shadow, scope.ids, watchers)
        # functools.wraps may have copied codegen/scope introspection
        # attrs from a nested generated original; they describe that one,
        # not this wrapper.
        wrapper.__dict__.pop("__codegen_source__", None)
        wrapper.__dict__.pop("__joinpoint_pool__", None)
        wrapper.__dict__.pop("__scope_marker__", None)
    wrapper.__dict__.pop("__woven_scope__", None)
    wrapper.__woven__ = True  # type: ignore[attr-defined]
    wrapper.__woven_original__ = shadow.original  # type: ignore[attr-defined]
    wrapper.__woven_advice_count__ = len(advice)  # type: ignore[attr-defined]
    if scope is not None:
        wrapper.__woven_scope__ = scope  # type: ignore[attr-defined]
    return wrapper


def make_module_wrapper(
    shadow: ModuleShadow,
    advice: list[Advice],
    *,
    watchers: _WatcherCount,
    codegen_cache: "codegen.CodegenCache | None" = None,
):
    """The wrapper for one module-function shadow, fastest eligible tier.

    The module counterpart of :func:`make_method_wrapper`, minus instance
    scoping (module functions have no receiver, so there is nothing to
    scope to — the runtime rejects ``instances=`` with module targets
    before planning).  Fully-static chains get a generated wrapper; the
    ``REPRO_AOP_CODEGEN=0`` escape hatch and dynamic residues fall back
    to the generic closures below.
    """
    selector = _ChainSelector(advice)
    if advice and not selector.has_dynamic and codegen.codegen_enabled():
        wrapper = codegen.generate_module_wrapper(
            shadow.original,
            shadow.module,
            shadow.name,
            tuple(advice),
            selector,
            watchers,
            cache=codegen_cache,
        )
    else:
        wrapper = _make_generic_module_wrapper(shadow, advice, selector, watchers)
        wrapper.__dict__.pop("__codegen_source__", None)
        wrapper.__dict__.pop("__joinpoint_pool__", None)
        wrapper.__dict__.pop("__scope_marker__", None)
    wrapper.__dict__.pop("__woven_scope__", None)
    wrapper.__woven__ = True  # type: ignore[attr-defined]
    wrapper.__woven_original__ = shadow.original  # type: ignore[attr-defined]
    wrapper.__woven_advice_count__ = len(advice)  # type: ignore[attr-defined]
    return wrapper


def _make_generic_module_wrapper(
    shadow: ModuleShadow,
    advice: list[Advice],
    selector: _ChainSelector,
    watchers: _WatcherCount,
):
    """Generic closures for a module-function shadow (no receiver).

    The same three dispatch tiers as :func:`_make_generic_method_wrapper`
    — tracking-only, static, dynamic — with ``jp.target = None`` and
    ``jp.cls`` bound to the owning module object, so residue selectors
    and cflow frames observe module executions exactly like method ones.
    """
    original = shadow.original
    module = shadow.module
    name = shadow.name

    if not advice:

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION, None, module, name, args, kwargs
            )
            token = push_frame(jp)
            try:
                return original(*args, **kwargs)
            finally:
                pop_frame(token)

    elif not selector.has_dynamic:
        chain = selector.full_chain

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION, None, module, name, args, kwargs
            )

            def proceed(*call_args: Any, **call_kwargs: Any) -> Any:
                return original(*call_args, **call_kwargs)

            if watchers.count:
                token = push_frame(jp)
                try:
                    return chain(jp, proceed)
                finally:
                    pop_frame(token)
            return chain(jp, proceed)

    else:

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION, None, module, name, args, kwargs
            )
            token = push_frame(jp)
            try:
                chain = selector.select(jp)
                if chain is None:
                    return original(*args, **kwargs)

                def proceed(*call_args: Any, **call_kwargs: Any) -> Any:
                    return original(*call_args, **call_kwargs)

                return chain(jp, proceed)
            finally:
                pop_frame(token)

    return wrapper


def _scope_gate_wrapper(
    inner: Callable, shadow: MethodShadow, ids: set[int], watchers: _WatcherCount
):
    """Gate a generic wrapper on scope membership (id dispatch).

    The generic tier keeps its existing closures (tracking, static,
    dynamic) untouched; scoping just prepends the membership test, so the
    semantics matrices pinned against the generic tier stay valid verbatim
    for the scoped branch.  While a cflow watcher is live, unscoped calls
    still push an observable frame — the shadow executes either way, and
    a class-wide woven shadow would expose it to ``cflow()`` residues.
    """
    original = shadow.original
    name = shadow.name

    @functools.wraps(original)
    def dispatch(self: Any, *args: Any, **kwargs: Any) -> Any:
        if id(self) not in ids:
            if not watchers.count:
                return original(self, *args, **kwargs)
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION, self, type(self), name, args, kwargs
            )
            token = push_frame(jp)
            try:
                return original(self, *args, **kwargs)
            finally:
                pop_frame(token)
        return inner(self, *args, **kwargs)

    return dispatch


def make_field_descriptor(
    name: str,
    get_advice: list[Advice],
    set_advice: list[Advice],
    class_default: Any,
    *,
    watchers: _WatcherCount,
    codegen_cache: "codegen.CodegenCache | None" = None,
    scope: InstanceScope | None = None,
) -> _WovenField:
    """The data descriptor for one woven field, in the fastest eligible tier.

    Fully-static get/set chains deploy as a code-generated
    :class:`_WovenField` subclass whose accessors inline the advice
    sequence over pooled join points (same ``REPRO_AOP_CODEGEN=0`` escape
    hatch as method wrappers); anything carrying a runtime residue keeps
    the generic descriptor.  Instance-scoped fields always deploy the
    generic descriptor with an id-dispatch gate: unscoped instances get a
    plain ``__dict__`` read/write, scoped instances run the chains.
    """
    if scope is not None:
        return _WovenField(
            name, get_advice, set_advice, class_default, watchers, scope=scope
        )
    static = not _ChainSelector(get_advice).has_dynamic and not _ChainSelector(
        set_advice
    ).has_dynamic
    if static and (get_advice or set_advice) and codegen.codegen_enabled():
        return codegen.generate_field_descriptor(
            name,
            list(get_advice),
            list(set_advice),
            class_default,
            watchers,
            base=_WovenField,
            missing=_MISSING,
            cache=codegen_cache,
        )
    return _WovenField(name, get_advice, set_advice, class_default, watchers)


def _make_generic_method_wrapper(
    shadow: MethodShadow,
    advice: list[Advice],
    selector: _ChainSelector,
    watchers: _WatcherCount,
):
    """The non-codegen wrappers: generic closures over a compiled chain.

    This is the ``REPRO_AOP_CODEGEN=0`` escape hatch (and the reference
    the generated wrappers are pinned against): same chain, same frame
    semantics, but one generic closure shape per dispatch tier instead of
    a specialized one per shadow, and a fresh join point per call.
    """
    original = shadow.original
    name = shadow.name

    if not advice:
        # Tracking-only wrapper: a cflow entry shadow with no advice of
        # its own.  It exists purely to push a join point frame.
        @functools.wraps(original)
        def wrapper(self, *args: Any, **kwargs: Any) -> Any:
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION,
                self,
                type(self),
                name,
                args,
                kwargs,
            )
            token = push_frame(jp)
            try:
                return original(self, *args, **kwargs)
            finally:
                pop_frame(token)

    elif not selector.has_dynamic:
        # Static path: every pointcut matched fully at the shadow, so
        # the precompiled chain runs with no residue filtering.  Frames
        # are pushed only while some deployment in this runtime carries
        # a cflow residue (exactly when the stack is observable) — the
        # seed pushed them unconditionally.
        chain = selector.full_chain

        @functools.wraps(original)
        def wrapper(self, *args: Any, **kwargs: Any) -> Any:
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION,
                self,
                type(self),
                name,
                args,
                kwargs,
            )

            def proceed(*call_args: Any, **call_kwargs: Any) -> Any:
                return original(self, *call_args, **call_kwargs)

            if watchers.count:
                token = push_frame(jp)
                try:
                    return chain(jp, proceed)
                finally:
                    pop_frame(token)
            return chain(jp, proceed)

    else:
        # Dynamic path: push a frame (cflow may observe this very join
        # point), filter residues, and run the memoized sub-chain.
        @functools.wraps(original)
        def wrapper(self, *args: Any, **kwargs: Any) -> Any:
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION,
                self,
                type(self),
                name,
                args,
                kwargs,
            )
            token = push_frame(jp)
            try:
                chain = selector.select(jp)
                if chain is None:
                    return original(self, *args, **kwargs)

                def proceed(*call_args: Any, **call_kwargs: Any) -> Any:
                    return original(self, *call_args, **call_kwargs)

                return chain(jp, proceed)
            finally:
                pop_frame(token)

    return wrapper
