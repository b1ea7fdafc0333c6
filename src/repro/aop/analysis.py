"""Static weave-plan analysis: find silent mis-weaving before deploying.

The paper's central risk is an aspect whose pointcut quietly matches
nothing (or the wrong shadows): navigation semantics change for an
audience with no error anywhere.  AspectJ answers this with compile-time
``Xlint`` diagnostics (``adviceDidNotMatch``, precedence warnings); this
module is the equivalent for our weaver — an analyzer that computes the
*would-be* weave plan from the same :class:`~repro.aop.weaver.ShadowIndex`
scans :meth:`~repro.aop.runtime.WeaverRuntime.weave` plans from, without
mutating a single class.

Three analysis families, each yielding typed :class:`Diagnostic` records
with stable codes:

**Weave-plan lint** (``APL0xx``) — :func:`analyze_deployment` /
:func:`analyze_runtime`:

- ``APL001 pointcut-matches-nothing`` — an advice whose pointcut matches
  no shadow in any target (the classic typo'd name; ``require_match``
  only catches an aspect *entirely* unmatched, not one advice of many);
- ``APL002 advice-shadowed`` — an outer around advice that never calls
  ``proceed()`` while other advice (inner arounds, earlier deployments)
  sits beneath it on the same shadow and can therefore never run;
- ``APL003 ambiguous-precedence`` — advice from two *different* aspect
  classes at the same ``order`` on one shadow: their nesting is decided
  by deployment order alone (stacking several instances of one aspect
  class — the navigation-stack idiom — is deliberate and not flagged);
- ``APL004 residue-on-hot-shadow`` — advice with a genuinely per-call
  residue (``cflow``/``target``/``args``) landing on a shadow the bench
  marks hot (:data:`DEFAULT_HOT_SHADOWS`), where the generic dispatch
  tier's per-call tests are paid on the serving path;
- ``APL005 scope-unweakrefable`` — instance-scoping members without a
  ``__weakref__`` slot, which the weaver must pin strongly for the life
  of the deployment;
- ``APL006 introduction-conflict`` — an introduction (without
  ``replace=True``) whose member name already exists on a matching
  target, or collides with an earlier introduction in the same plan;
- ``APL008 generator-never-proceeds`` — generator advice
  (``@generator``, the aspectlib protocol) whose body can never yield
  ``proceed``: every advised call returns the generator's ``return_``
  value and the original never runs — legitimate for a deliberate stub,
  but usually a forgotten ``yield proceed``.

**Codegen source verification** (``APL1xx``) —
:func:`verify_codegen_templates` renders every generated-wrapper template
shape (method and field, scoped and unscoped, marker and id dispatch,
rendered and packed signatures), compiles each and walks its AST/symbol
table:

- ``APL101 codegen-syntax-error`` — the source does not compile;
- ``APL102 codegen-free-name`` — a name lookup that is neither a factory
  parameter, a local, nor an allow-listed builtin (an injected free name
  would ``NameError`` only when the wrapper finally runs — or worse,
  silently resolve against a polluted namespace);
- ``APL103 codegen-closure-capture`` — a closure capturing factory-level
  state beyond the factory parameters and its nested functions (shared
  mutable state smuggled across calls);
- ``APL104 codegen-signature-drift`` — a passthrough ``return
  _original(...)`` / ``return _run(...)`` that does not forward the
  wrapper's own parameters exactly, in order.

**Concurrency lint** (``APL2xx``) — :func:`analyze_concurrency`:

- ``APL201 unsynchronized-shared-write`` (advisory) — an advice body
  writing shared (non-``self``, non-local) state outside any obvious
  lock; renders run lock-free and concurrent in the serving layer, so a
  bare read-modify-write on a module global loses updates.

:meth:`~repro.aop.runtime.DeploymentSet.add` runs this analyzer on demand
via its ``lint="warn"|"error"`` mode, and the CLI front is
``python -m repro.tools aop lint`` (see :mod:`repro.tools.cli`).
"""

from __future__ import annotations

import ast
import inspect
import symtable
import textwrap
import warnings
import weakref
from dataclasses import dataclass
from types import FunctionType
from typing import Any, Iterable, Sequence

from .advice import Advice, AdviceKind
from .aspect import Aspect
from .codegen import (
    _FILENAME,
    _field_source,
    _module_static_source,
    _render_signature,
    _scoped_static_source,
    _static_source,
)
from .errors import WeavingError
from .joinpoint import JoinPointKind
from .pointcut import execution
from .weaver import InstanceScope, ShadowIndex

#: Shadows the committed benchmark prices per HTTP request (the serving
#: path's advised renders — ``serve_page_ns`` in the gated bench series).
#: A per-call residue landing here drops the shadow to the generic
#: dispatch tier on the hottest path in the repo.
DEFAULT_HOT_SHADOWS = frozenset(
    {"PageRenderer.render_node", "PageRenderer.render_home"}
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_ADVISORY = "advisory"

#: Builtins the generated templates use deliberately (they are also in
#: ``codegen._RESERVED_PARAM_NAMES`` so original signatures cannot shadow
#: them).  Any *other* global lookup in a generated source is a defect.
_ALLOWED_GLOBALS = frozenset(
    {
        "type",
        "id",
        "len",
        "dict",
        "Exception",
        "IndexError",
        "AttributeError",
        "KeyError",
        # Generator-advice templates (the inlined send/throw protocol).
        "isinstance",
        "RuntimeError",
        "StopIteration",
    }
)


class AopLintWarning(UserWarning):
    """Category for diagnostics surfaced through ``lint="warn"``."""


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, with a stable code and a joinpoint location."""

    #: Stable machine code (``APL001``...); see the module docstring table.
    code: str
    #: Human slug for the code (``pointcut-matches-nothing``...).
    name: str
    #: ``"error"``, ``"warning"`` or ``"advisory"``.
    severity: str
    message: str
    #: Joinpoint location (``Class.member``) when the finding has one.
    site: str | None = None
    #: Owning aspect class name, when the finding belongs to one.
    aspect: str | None = None
    #: Offending advice name, when the finding belongs to one.
    advice: str | None = None

    def format(self) -> str:
        where = f" at {self.site}" if self.site else ""
        owner = f" [{self.aspect}]" if self.aspect else ""
        return (
            f"{self.code} {self.name} ({self.severity}){where}{owner}: "
            f"{self.message}"
        )


@dataclass(frozen=True)
class PlanEntry:
    """One would-be deployment: an aspect over targets, optionally scoped.

    The analyzer's unit of input — :func:`analyze_plan` takes a sequence
    of these in deployment order (later entries wrap earlier ones, like
    sequential :meth:`~repro.aop.runtime.WeaverRuntime.weave` calls).
    """

    aspect: Aspect
    #: Classes and/or modules (module-function weaving) to plan over.
    targets: tuple[Any, ...]
    fields: tuple[str, ...] = ()
    #: Scope members the deployment would cover (None = class-wide).
    scope: Any = None


# -- weave-plan lint -----------------------------------------------------------


def _advice_proceeds(function: Any) -> bool | None:
    """Whether *function* can ever call ``proceed`` (None = unknowable).

    A purely lexical test: any mention of a ``proceed`` attribute or name
    — called or merely referenced — counts as proceeding, so the check
    only flags advice that *cannot* proceed, never advice that might.
    """
    try:
        source = textwrap.dedent(inspect.getsource(function))
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "proceed":
            return True
        if isinstance(node, ast.Name) and node.id == "proceed":
            return True
    return False


def _scope_members(scope: Any) -> list[Any]:
    if scope is None:
        return []
    if isinstance(scope, InstanceScope):
        return scope.instances()
    return list(scope)


def _signature(cls: type, name: str) -> str:
    return f"{cls.__name__}.{name}"


def analyze_plan(
    entries: Sequence[PlanEntry],
    *,
    hot_shadows: Iterable[str] = DEFAULT_HOT_SHADOWS,
    index: ShadowIndex | None = None,
) -> list[Diagnostic]:
    """Compute the would-be weave plan for *entries* and lint it.

    Mirrors :meth:`WeaverRuntime.weave`'s planning — the same
    :class:`ShadowIndex` scans, the same ``matches_shadow`` calls over
    methods, registered fields and introduced members — but never touches
    a class.  Entries are analyzed in deployment order, so cross-entry
    findings (``APL002``/``APL003``/``APL006``) see the same stacking a
    real :class:`~repro.aop.runtime.DeploymentSet` would produce.
    """
    index = index if index is not None else ShadowIndex()
    hot = frozenset(hot_shadows)
    diags: list[Diagnostic] = []
    # (cls, member, kind) -> [(entry_index, aspect_name, advice)], in
    # deployment order; the cross-entry checks below read this back.
    chains: dict[tuple[type, str, JoinPointKind], list[tuple[int, str, Advice]]] = {}
    # cls -> member names introduced by earlier entries in this plan.
    introduced: dict[type, set[str]] = {}
    # cls -> function members introduced earlier (they are weavable
    # shadows for this and later entries, exactly as in weave()).
    introduced_functions: dict[type, set[str]] = {}

    for position, entry in enumerate(entries):
        aspect = entry.aspect
        aspect.validate()
        aspect_name = type(aspect).__name__
        advice = sorted(aspect.advice(), key=lambda a: a.order)

        for introduction in aspect.introductions():
            for cls in entry.targets:
                if not isinstance(cls, type):
                    continue  # introductions graft class members only
                if not introduction.matches(cls):
                    continue
                exists = (
                    introduction.name in cls.__dict__
                    or introduction.name in introduced.get(cls, ())
                )
                if exists and not introduction.replace:
                    diags.append(
                        Diagnostic(
                            code="APL006",
                            name="introduction-conflict",
                            severity=SEVERITY_ERROR,
                            message=(
                                f"introducing {introduction.name!r} into "
                                f"{cls.__name__} would conflict with an "
                                "existing member; deployment raises unless "
                                "replace=True"
                            ),
                            site=_signature(cls, introduction.name),
                            aspect=aspect_name,
                        )
                    )
                    continue
                introduced.setdefault(cls, set()).add(introduction.name)
                if isinstance(introduction.member, FunctionType):
                    introduced_functions.setdefault(cls, set()).add(
                        introduction.name
                    )

        for item in advice:
            if item.generator and _advice_proceeds(item.function) is False:
                diags.append(
                    Diagnostic(
                        code="APL008",
                        name="generator-never-proceeds",
                        severity=SEVERITY_WARNING,
                        message=(
                            f"generator advice {item.name!r} can never yield "
                            "proceed; the original never runs and every "
                            "advised call returns its return_ value — add "
                            "`yield proceed` (or keep a deliberate stub "
                            "silent by mentioning proceed)"
                        ),
                        aspect=aspect_name,
                        advice=item.name,
                    )
                )
            matched: list[tuple[type, str, JoinPointKind]] = []
            for cls in entry.targets:
                names = [shadow.name for shadow in index.shadows(cls)]
                names.extend(introduced_functions.get(cls, ()))
                for name in names:
                    if item.pointcut.matches_shadow(
                        cls, name, JoinPointKind.METHOD_EXECUTION
                    ):
                        matched.append((cls, name, JoinPointKind.METHOD_EXECUTION))
                for field_name in entry.fields:
                    for kind in (JoinPointKind.FIELD_GET, JoinPointKind.FIELD_SET):
                        if item.pointcut.matches_shadow(cls, field_name, kind):
                            matched.append((cls, field_name, kind))
            if not matched:
                targets = ", ".join(t.__name__ for t in entry.targets)
                diags.append(
                    Diagnostic(
                        code="APL001",
                        name="pointcut-matches-nothing",
                        severity=SEVERITY_ERROR,
                        message=(
                            f"{item.kind.value} advice {item.name!r} "
                            f"({item.pointcut!r}) matches no join point "
                            f"shadow in [{targets}] — deployment would "
                            "silently weave nothing for it"
                        ),
                        aspect=aspect_name,
                        advice=item.name,
                    )
                )
                continue
            per_call = item.residue_parts()[1]
            for cls, name, kind in matched:
                chains.setdefault((cls, name, kind), []).append(
                    (position, aspect_name, item)
                )
                signature = _signature(cls, name)
                if per_call is not None and signature in hot:
                    diags.append(
                        Diagnostic(
                            code="APL004",
                            name="residue-on-hot-shadow",
                            severity=SEVERITY_WARNING,
                            message=(
                                f"advice {item.name!r} carries a per-call "
                                f"residue ({per_call!r}) on hot shadow "
                                f"{signature}; the shadow drops to the "
                                "generic dispatch tier and pays the residue "
                                "test on every serve-path call"
                            ),
                            site=signature,
                            aspect=aspect_name,
                            advice=item.name,
                        )
                    )

        flagged_types: set[type] = set()
        for member in _scope_members(entry.scope):
            if type(member) in flagged_types:
                continue
            try:
                weakref.ref(member)
            except TypeError:
                flagged_types.add(type(member))
                diags.append(
                    Diagnostic(
                        code="APL005",
                        name="scope-unweakrefable",
                        severity=SEVERITY_WARNING,
                        message=(
                            f"scope member of type {type(member).__name__!r} "
                            "has no __weakref__ slot; the weaver must pin it "
                            "strongly for the life of the deployment (it "
                            "cannot leave the scope by dying)"
                        ),
                        aspect=type(entry.aspect).__name__,
                    )
                )

    diags.extend(_lint_chains(chains))
    return diags


def _lint_chains(
    chains: dict[tuple[type, str, JoinPointKind], list[tuple[int, str, Advice]]],
) -> list[Diagnostic]:
    """Cross-entry checks over each shadow's stacked chain."""
    diags: list[Diagnostic] = []
    for (cls, name, _kind), chain in chains.items():
        signature = _signature(cls, name)

        # APL002: a never-proceeding around shadows everything that runs
        # strictly inside it — inner arounds of its own deployment, and
        # the entire chains of deployments beneath it (earlier entries,
        # which the later wrapper wraps).
        for position, aspect_name, item in chain:
            if item.kind is not AdviceKind.AROUND:
                continue
            if _advice_proceeds(item.function) is not False:
                continue
            own_arounds = [
                a
                for p, _n, a in chain
                if p == position and a.kind is AdviceKind.AROUND
            ]
            inner = own_arounds[own_arounds.index(item) + 1 :]
            beneath = [a for p, _n, a in chain if p < position]
            shadowed = [a.name for a in (*inner, *beneath)]
            if not shadowed:
                continue
            listed = ", ".join(shadowed[:3]) + ("..." if len(shadowed) > 3 else "")
            diags.append(
                Diagnostic(
                    code="APL002",
                    name="advice-shadowed",
                    severity=SEVERITY_WARNING,
                    message=(
                        f"around advice {item.name!r} never calls proceed(); "
                        f"{len(shadowed)} advice beneath it on {signature} "
                        f"can never run ({listed})"
                    ),
                    site=signature,
                    aspect=aspect_name,
                    advice=item.name,
                )
            )

        # APL003: equal order across *different aspect classes* — their
        # nesting is decided by deployment order alone.  Several
        # instances of one class (the navigation-stack idiom) are
        # ordered by deployment on purpose and stay silent.
        seen_pairs: set[tuple[str, str, int]] = set()
        for i, (pos_a, name_a, advice_a) in enumerate(chain):
            for pos_b, name_b, advice_b in chain[i + 1 :]:
                if pos_a == pos_b or name_a == name_b:
                    continue
                if advice_a.order != advice_b.order:
                    continue
                key = (*sorted((name_a, name_b)), advice_a.order)
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                diags.append(
                    Diagnostic(
                        code="APL003",
                        name="ambiguous-precedence",
                        severity=SEVERITY_WARNING,
                        message=(
                            f"{name_a} and {name_b} both advise {signature} "
                            f"at order={advice_a.order}; their nesting is "
                            "decided by deployment order alone — give one an "
                            "explicit order to pin precedence"
                        ),
                        site=signature,
                        aspect=name_b,
                    )
                )
    return diags


def analyze_deployment(
    aspects: Aspect | Iterable[Aspect],
    targets: Iterable[type],
    *,
    fields: Iterable[str] = (),
    instances: Any = None,
    hot_shadows: Iterable[str] = DEFAULT_HOT_SHADOWS,
    index: ShadowIndex | None = None,
) -> list[Diagnostic]:
    """Lint the deployment ``weave(targets, aspect, ...)`` would perform.

    *aspects* is one aspect or a sequence (analyzed in deployment order,
    like sequential :meth:`~repro.aop.runtime.DeploymentSet.add` calls
    over the same targets); *instances* narrows every entry to the same
    instance scope, exactly as ``weave(..., instances=...)`` would.
    Nothing is woven — classes are only scanned.
    """
    if isinstance(aspects, Aspect):
        aspects = [aspects]
    target_tuple = tuple(targets)
    field_tuple = tuple(fields)
    scope = (
        instances
        if instances is None or isinstance(instances, InstanceScope)
        else list(instances)
    )
    entries = [
        PlanEntry(aspect=a, targets=target_tuple, fields=field_tuple, scope=scope)
        for a in aspects
    ]
    return analyze_plan(entries, hot_shadows=hot_shadows, index=index)


def analyze_runtime(
    runtime: Any,
    *,
    hot_shadows: Iterable[str] = DEFAULT_HOT_SHADOWS,
) -> list[Diagnostic]:
    """Lint a live :class:`~repro.aop.runtime.WeaverRuntime`.

    Rebuilds the plan from the runtime's active deployments (their
    aspects, touched classes and scopes, in deployment order), runs the
    weave-plan and concurrency lints over it, and verifies every
    installed wrapper's ``__codegen_source__`` with the codegen checks —
    the live counterpart of pre-deployment analysis.
    """
    entries: list[PlanEntry] = []
    diags: list[Diagnostic] = []
    for deployment in runtime.deployments:
        touched: list[type] = []
        for member in deployment.members:
            if member.cls not in touched:
                touched.append(member.cls)
        for applied in deployment.introductions:
            if applied.cls not in touched:
                touched.append(applied.cls)
        field_names = tuple(
            member.name
            for member in deployment.members
            if hasattr(member.installed, "__set__")
        )
        entries.append(
            PlanEntry(
                aspect=deployment.aspect,
                targets=tuple(touched),
                fields=field_names,
                scope=deployment.scope,
            )
        )
        stats = runtime.deployment_stats(deployment)
        for signature, source in stats.codegen_sources.items():
            diags.extend(verify_wrapper_source(source, label=signature))
    diags.extend(
        analyze_plan(entries, hot_shadows=hot_shadows, index=runtime.shadow_index)
    )
    diags.extend(analyze_concurrency(entry.aspect for entry in entries))
    return diags


# -- concurrency lint ----------------------------------------------------------


def _collect_locals(fn_node: ast.AST) -> set[str]:
    """Names bound inside *fn_node* (params and any assignment target)."""
    bound: set[str] = set()
    args = getattr(fn_node, "args", None)
    if args is not None:
        for group in (args.posonlyargs, args.args, args.kwonlyargs):
            bound.update(a.arg for a in group)
        for special in (args.vararg, args.kwarg):
            if special is not None:
                bound.add(special.arg)
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.difference_update(node.names)
    return bound


def _write_root(target: ast.AST) -> ast.Name | None:
    """The root ``Name`` of an assignment target (``a.b[c].d`` -> ``a``)."""
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _under_lock(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether *node* sits inside a ``with`` whose context names a lock."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                if "lock" in ast.unparse(item.context_expr).lower():
                    return True
        current = parents.get(current)
    return False


def _function_node(tree: ast.Module) -> ast.AST | None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return node
    return None


def analyze_concurrency(aspects: Aspect | Iterable[Aspect]) -> list[Diagnostic]:
    """Advisory scan of advice bodies for unsynchronized shared writes.

    Flags assignments (plain or augmented) whose target's root is neither
    a local of the advice body nor its ``self`` — a module global or a
    captured object mutated from advice that the serving layer runs
    lock-free and concurrently — unless the write sits inside a ``with``
    block whose context expression names a lock.  Purely lexical and
    intentionally advisory: it cannot see locks taken by callees.
    """
    if isinstance(aspects, Aspect):
        aspects = [aspects]
    diags: list[Diagnostic] = []
    seen_functions: set[int] = set()
    for aspect in aspects:
        aspect_name = type(aspect).__name__
        for item in aspect.advice():
            if id(item.function) in seen_functions:
                continue
            seen_functions.add(id(item.function))
            try:
                source = textwrap.dedent(inspect.getsource(item.function))
                tree = ast.parse(source)
            except (OSError, TypeError, SyntaxError):
                continue
            fn_node = _function_node(tree)
            if fn_node is None:
                continue
            bound = _collect_locals(fn_node)
            args = getattr(fn_node, "args", None)
            self_name = None
            if item.aspect is not None and args is not None and args.args:
                self_name = args.args[0].arg
            parents: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(fn_node):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            for node in ast.walk(fn_node):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    root = _write_root(target)
                    if root is None:
                        continue
                    if isinstance(target, ast.Name):
                        # A bare name is only shared when declared
                        # global/nonlocal (otherwise the store makes it
                        # local); _collect_locals removed declared names.
                        if root.id in bound:
                            continue
                    elif root.id in bound or root.id == self_name:
                        continue
                    if isinstance(target, ast.Name) and root.id in bound:
                        continue
                    if _under_lock(node, parents):
                        continue
                    diags.append(
                        Diagnostic(
                            code="APL201",
                            name="unsynchronized-shared-write",
                            severity=SEVERITY_ADVISORY,
                            message=(
                                f"advice {item.name!r} writes shared state "
                                f"({ast.unparse(target)}) outside any "
                                "obvious lock; advised calls run lock-free "
                                "and concurrently in the serving layer"
                            ),
                            aspect=aspect_name,
                            advice=item.name,
                        )
                    )
    return diags


# -- codegen source verification -----------------------------------------------


def _factory_def(tree: ast.Module) -> ast.FunctionDef | None:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_factory":
            return node
    return None


def _param_names(fn: ast.FunctionDef) -> list[str]:
    names = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]
    if fn.args.vararg is not None:
        names.append(fn.args.vararg.arg)
    names.extend(a.arg for a in fn.args.kwonlyargs)
    if fn.args.kwarg is not None:
        names.append(fn.args.kwarg.arg)
    return names


def _check_globals(source: str, label: str) -> list[Diagnostic]:
    """Every global lookup must be an allow-listed builtin (APL102)."""
    diags: list[Diagnostic] = []
    table = symtable.symtable(source, _FILENAME, "exec")

    def walk(scope: symtable.SymbolTable) -> None:
        if scope.get_type() == "function":
            for symbol in scope.get_symbols():
                if (
                    symbol.is_global()
                    and symbol.is_referenced()
                    and symbol.get_name() not in _ALLOWED_GLOBALS
                ):
                    diags.append(
                        Diagnostic(
                            code="APL102",
                            name="codegen-free-name",
                            severity=SEVERITY_ERROR,
                            message=(
                                f"generated source resolves "
                                f"{symbol.get_name()!r} globally in scope "
                                f"{scope.get_name()!r}; every name in a "
                                "generated wrapper must be a factory "
                                "parameter, a local, or an allow-listed "
                                "builtin"
                            ),
                            site=label,
                        )
                    )
        for child in scope.get_children():
            walk(child)

    walk(table)
    return diags


def _check_captures(
    tree: ast.Module, source: str, label: str
) -> list[Diagnostic]:
    """Closures may capture only factory params and nested defs (APL103).

    A factory-level *assignment* captured by the wrapper would be shared
    mutable state smuggled across every call of the shadow — the exact
    regression this check exists to catch in template edits.
    """
    diags: list[Diagnostic] = []
    factory = _factory_def(tree)
    if factory is None:
        return diags
    allowed = set(_param_names(factory))
    for node in factory.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            allowed.add(node.name)

    table = symtable.symtable(source, _FILENAME, "exec")

    def factory_scope(scope: symtable.SymbolTable) -> symtable.SymbolTable | None:
        for child in scope.get_children():
            if child.get_name() == "_factory":
                return child
            found = factory_scope(child)
            if found is not None:
                return found
        return None

    scope = factory_scope(table)
    if scope is None:
        return diags

    def walk(current: symtable.SymbolTable, bound_above: set[str]) -> None:
        local_names = {
            s.get_name()
            for s in current.get_symbols()
            if s.is_local() or s.is_parameter()
        }
        for child in current.get_children():
            for symbol in child.get_symbols():
                name = symbol.get_name()
                if not symbol.is_free():
                    continue
                if name in local_names or name in bound_above:
                    continue
                diags.append(
                    Diagnostic(
                        code="APL103",
                        name="codegen-closure-capture",
                        severity=SEVERITY_ERROR,
                        message=(
                            f"{child.get_name()!r} captures {name!r}, which "
                            "is not a factory parameter, a nested function, "
                            "or an enclosing call-scope local"
                        ),
                        site=label,
                    )
                )
            walk(child, bound_above | local_names)

    # At factory level only params and nested defs are legitimate
    # closure sources; any other factory-level binding is shared state.
    walk(scope, set())
    for child_table in scope.get_children():
        for symbol in child_table.get_symbols():
            name = symbol.get_name()
            if symbol.is_free() and name not in allowed:
                diags.append(
                    Diagnostic(
                        code="APL103",
                        name="codegen-closure-capture",
                        severity=SEVERITY_ERROR,
                        message=(
                            f"{child_table.get_name()!r} captures factory "
                            f"state {name!r} beyond the factory parameters "
                            "and its nested functions (shared mutable state "
                            "across calls)"
                        ),
                        site=label,
                    )
                )
    return diags


def _expected_forward(fn: ast.FunctionDef, call: ast.Call) -> bool:
    """Whether *call* forwards exactly *fn*'s parameters, in order."""
    expected: list[tuple[str, str]] = [
        ("name", a.arg) for a in (*fn.args.posonlyargs, *fn.args.args)
    ]
    if fn.args.vararg is not None:
        expected.append(("star", fn.args.vararg.arg))
    got: list[tuple[str, str]] = []
    for arg in call.args:
        if isinstance(arg, ast.Name):
            got.append(("name", arg.id))
        elif isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Name):
            got.append(("star", arg.value.id))
        else:
            return False
    if got != expected:
        return False
    if fn.args.kwarg is not None:
        if len(call.keywords) != 1:
            return False
        keyword = call.keywords[0]
        if keyword.arg is not None or not isinstance(keyword.value, ast.Name):
            return False
        return keyword.value.id == fn.args.kwarg.arg
    return not call.keywords


def _check_forwarding(tree: ast.Module, label: str) -> list[Diagnostic]:
    """Passthrough returns must forward the exact signature (APL104).

    Applies to ``return _original(...)`` / ``return _run(...)`` directly
    in a wrapper body — the scoped templates' passthrough/dispatch calls.
    The inlined chain's ``result = _original(self, *jp.args, ...)``
    deliberately forwards the (possibly advice-rewritten) join point
    arguments and is not a passthrough.
    """
    diags: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "wrapper"):
            continue
        returns: list[ast.Return] = []
        stack: list[ast.AST] = list(node.body)
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # _p and around runners forward chain args, not ours
            if isinstance(current, ast.Return):
                returns.append(current)
            stack.extend(ast.iter_child_nodes(current))
        for ret in returns:
            call = ret.value
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in ("_original", "_run")
            ):
                continue
            if not _expected_forward(node, call):
                diags.append(
                    Diagnostic(
                        code="APL104",
                        name="codegen-signature-drift",
                        severity=SEVERITY_ERROR,
                        message=(
                            f"wrapper passthrough `{ast.unparse(ret)}` does "
                            "not forward the wrapper's own parameters "
                            "exactly, in order"
                        ),
                        site=label,
                    )
                )
    return diags


def verify_wrapper_source(source: str, *, label: str = "<source>") -> list[Diagnostic]:
    """Run the codegen checks over one generated-wrapper source."""
    try:
        compile(source, _FILENAME, "exec")
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                code="APL101",
                name="codegen-syntax-error",
                severity=SEVERITY_ERROR,
                message=f"generated source does not compile: {exc.msg}",
                site=label,
            )
        ]
    diags = _check_globals(source, label)
    diags.extend(_check_captures(tree, source, label))
    diags.extend(_check_forwarding(tree, label))
    return diags


def _shape_advice(
    kinds: Sequence[AdviceKind | str], *, bound: bool
) -> tuple[Advice, ...]:
    """Sample advice for template enumeration.

    A kind of ``"generator"`` produces a generator-protocol around advice
    (``generator=True``), so the enumeration covers the inlined
    send/throw drive loop alongside the plain chain shapes.
    """
    aspect = object() if bound else None

    def body(jp: Any) -> Any:  # pragma: no cover - never invoked
        return jp

    def gen_body(jp: Any) -> Any:  # pragma: no cover - never invoked
        yield jp

    return tuple(
        Advice(
            kind=AdviceKind.AROUND if kind == "generator" else kind,
            pointcut=execution("*.run"),
            function=gen_body if kind == "generator" else body,
            name=f"a{i}",
            aspect=aspect,
            generator=kind == "generator",
        )
        for i, kind in enumerate(kinds)
    )


def _sample_original(self: Any, node: Any, depth: int = 1) -> Any:
    """A renderable signature for the exact-forwarding template variants."""
    return (node, depth)  # pragma: no cover - never invoked


def enumerate_template_sources() -> list[tuple[str, str]]:
    """``(label, source)`` for every generated-wrapper template shape.

    Covers method, field and module-function templates, scoped and
    unscoped dispatch, marker and id membership, rendered and packed
    signatures, and every advice-kind mix that changes the rendered code
    path (befores, around nesting, the exception envelope, bound vs
    unbound advice, and the generator-protocol drive loop) — the matrix
    CI verifies so template edits cannot silently regress.
    """
    shapes: list[tuple[str, tuple[Advice, ...]]] = [
        ("before", _shape_advice([AdviceKind.BEFORE], bound=True)),
        ("around", _shape_advice([AdviceKind.AROUND], bound=True)),
        (
            "full",
            _shape_advice(
                [
                    AdviceKind.BEFORE,
                    AdviceKind.AROUND,
                    AdviceKind.AFTER_RETURNING,
                    AdviceKind.AFTER_THROWING,
                    AdviceKind.AFTER,
                ],
                bound=True,
            ),
        ),
        (
            "stacked-arounds",
            _shape_advice(
                [AdviceKind.AROUND, AdviceKind.AROUND, AdviceKind.BEFORE],
                bound=True,
            ),
        ),
        (
            "unbound",
            _shape_advice([AdviceKind.BEFORE, AdviceKind.AROUND], bound=False),
        ),
        ("generator", _shape_advice(["generator"], bound=True)),
        (
            "generator-stacked",
            _shape_advice(
                [AdviceKind.AROUND, "generator", AdviceKind.BEFORE],
                bound=True,
            ),
        ),
        ("generator-unbound", _shape_advice(["generator"], bound=False)),
    ]
    sig = _render_signature(_sample_original)
    assert sig is not None  # the sample is renderable by construction
    sources: list[tuple[str, str]] = []
    for label, advice in shapes:
        sources.append((f"method/{label}/static", _static_source(advice)[0]))
        # Marker templates render the fixed marker slot — the source is
        # scope-independent by design (the real marker is retargeted into
        # the compiled code per wrapper), so one shape per mix suffices.
        for scope_label, marked in (("marker", True), ("id", False)):
            for sig_label, rendered in (("sig", sig), ("packed", None)):
                sources.append(
                    (
                        f"method/{label}/scoped-{scope_label}-{sig_label}",
                        _scoped_static_source(advice, marked, rendered)[0],
                    )
                )
    field_shapes: list[tuple[str, Sequence[AdviceKind], Sequence[AdviceKind]]] = [
        ("get-before", [AdviceKind.BEFORE], []),
        ("set-around", [], [AdviceKind.AROUND]),
        (
            "get-set-full",
            [AdviceKind.BEFORE, AdviceKind.AROUND, AdviceKind.AFTER],
            [
                AdviceKind.BEFORE,
                AdviceKind.AFTER_RETURNING,
                AdviceKind.AFTER_THROWING,
            ],
        ),
        ("get-around-set-after", [AdviceKind.AROUND], [AdviceKind.AFTER]),
    ]
    for label, get_kinds, set_kinds in field_shapes:
        source = _field_source(
            _shape_advice(get_kinds, bound=True),
            _shape_advice(set_kinds, bound=False),
        )[0]
        sources.append((f"field/{label}", source))
    field_gen = _field_source(
        _shape_advice(["generator"], bound=True),
        _shape_advice([AdviceKind.AFTER], bound=True),
    )[0]
    sources.append(("field/get-generator-set-after", field_gen))
    module_shapes: list[tuple[str, Sequence[AdviceKind | str]]] = [
        ("before", [AdviceKind.BEFORE]),
        (
            "full",
            [
                AdviceKind.BEFORE,
                AdviceKind.AROUND,
                AdviceKind.AFTER_RETURNING,
                AdviceKind.AFTER_THROWING,
                AdviceKind.AFTER,
            ],
        ),
        ("generator", ["generator"]),
        ("generator-stacked", [AdviceKind.AROUND, "generator", AdviceKind.BEFORE]),
    ]
    for label, kinds in module_shapes:
        source = _module_static_source(_shape_advice(kinds, bound=True))[0]
        sources.append((f"module/{label}", source))
    return sources


def verify_codegen_templates() -> list[Diagnostic]:
    """Verify every template shape (see :func:`enumerate_template_sources`)."""
    diags: list[Diagnostic] = []
    for label, source in enumerate_template_sources():
        diags.extend(verify_wrapper_source(source, label=label))
    return diags


# -- the deploy-time gate ------------------------------------------------------


def lint_gate(
    aspect: Aspect,
    targets: Iterable[type],
    *,
    fields: Iterable[str] = (),
    instances: Any = None,
    mode: str,
    index: ShadowIndex | None = None,
) -> list[Diagnostic]:
    """The opt-in analyzer behind ``DeploymentSet.add(..., lint=...)``.

    ``mode="warn"`` surfaces every finding as an :class:`AopLintWarning`;
    ``mode="error"`` additionally raises :class:`WeavingError` *before
    anything is woven* when an error-severity finding exists.
    """
    if mode not in ("warn", "error"):
        raise ValueError(
            f"lint mode must be 'warn' or 'error', not {mode!r}"
        )
    diags = analyze_deployment(
        aspect, targets, fields=fields, instances=instances, index=index
    )
    diags.extend(analyze_concurrency(aspect))
    errors = [d for d in diags if d.severity == SEVERITY_ERROR]
    if mode == "error" and errors:
        raise WeavingError(
            "aspect lint failed (nothing was woven):\n"
            + "\n".join(d.format() for d in errors)
        )
    for diagnostic in diags:
        warnings.warn(diagnostic.format(), AopLintWarning, stacklevel=3)
    return diags
