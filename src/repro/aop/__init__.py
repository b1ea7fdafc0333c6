"""An AspectJ-like aspect-oriented programming framework for Python.

The paper's section 5 asks whether aspect-oriented tools are powerful
enough to express navigation separately.  This package is our answer
substrate: join points (method execution, field get/set, module-level
function execution), a composable pointcut language with a textual DSL,
five advice kinds plus aspectlib-style *generator advice*, inter-type
introductions and a reversible runtime weaver — held as a first-class
:class:`WeaverRuntime` you scope, transact against and introspect.
:meth:`WeaverRuntime.weave` is the one deployment entry point::

    from repro.aop import Aspect, WeaverRuntime, generator, proceed, return_

    class Timing(Aspect):
        @generator("execution(*.render)")
        def time_it(self, jp):
            start = perf_counter()
            result = yield proceed          # run the original
            print(jp.signature, perf_counter() - start)
            yield return_(result)

    runtime = WeaverRuntime("timing")
    with runtime.weave(PageRenderer, Timing()):
        renderer.render()          # advice active
    renderer.render()              # original behaviour restored

``weave()`` also accepts modules and plain module-level functions
(``runtime.weave(xmlcore.parser.parse, Timing())``) — module globals are
rebound on deploy and restored exactly on undeploy/rollback.

Several aspects that must go live together share one
:meth:`WeaverRuntime.transaction`, one :meth:`DeploymentSet.add` each.
"""

from .advice import Advice, AdviceKind, proceed, return_
from .analysis import (
    AopLintWarning,
    Diagnostic,
    PlanEntry,
    analyze_concurrency,
    analyze_deployment,
    analyze_plan,
    analyze_runtime,
    verify_codegen_templates,
    verify_wrapper_source,
)
from .codegen import CodegenCache, codegen_enabled
from .aspect import (
    Aspect,
    AspectBuilder,
    DeclareError,
    FluentAspect,
    after,
    after_returning,
    after_throwing,
    around,
    before,
    declare_error,
    generator,
)
from .errors import (
    AopError,
    IntroductionError,
    PointcutSyntaxError,
    WeavingError,
)
from .introduce import Introduction, introduce
from .joinpoint import (
    JoinPoint,
    JoinPointKind,
    JoinPointPool,
    ProceedingJoinPoint,
    current_stack,
)
from .parser import parse_pointcut
from .pointcut import (
    Pointcut,
    args,
    cflow,
    cflowbelow,
    execution,
    field_get,
    field_set,
    target,
    within,
)
from .weaver import (
    CompiledChain,
    Deployment,
    InstanceScope,
    ModuleShadow,
    ShadowIndex,
    method_shadows,
    module_shadows,
    shadow_index,
)
from .runtime import (
    DeploymentSet,
    DeploymentStats,
    Weave,
    WeaverRuntime,
    WovenSite,
    default_runtime,
)

__all__ = [
    "Advice",
    "AdviceKind",
    "AopError",
    "AopLintWarning",
    "Aspect",
    "AspectBuilder",
    "CodegenCache",
    "CompiledChain",
    "DeclareError",
    "Deployment",
    "DeploymentSet",
    "DeploymentStats",
    "Diagnostic",
    "FluentAspect",
    "InstanceScope",
    "Introduction",
    "IntroductionError",
    "JoinPoint",
    "JoinPointKind",
    "JoinPointPool",
    "ModuleShadow",
    "PlanEntry",
    "Pointcut",
    "PointcutSyntaxError",
    "ProceedingJoinPoint",
    "ShadowIndex",
    "Weave",
    "WeaverRuntime",
    "WeavingError",
    "WovenSite",
    "after",
    "after_returning",
    "after_throwing",
    "analyze_concurrency",
    "analyze_deployment",
    "analyze_plan",
    "analyze_runtime",
    "args",
    "around",
    "before",
    "cflow",
    "cflowbelow",
    "codegen_enabled",
    "current_stack",
    "declare_error",
    "default_runtime",
    "execution",
    "field_get",
    "field_set",
    "generator",
    "introduce",
    "method_shadows",
    "module_shadows",
    "parse_pointcut",
    "proceed",
    "return_",
    "shadow_index",
    "target",
    "verify_codegen_templates",
    "verify_wrapper_source",
    "within",
]
