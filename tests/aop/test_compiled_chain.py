"""Compiled advice chains: parity with the seed's per-call path.

The weaver now partitions advice by kind and compiles the around-nesting
once at deployment time (``CompiledChain``), with a static fast path that
skips join point stack bookkeeping when no pointcut has a runtime residue.
These tests pin the semantics: everything observable — ordering, exception
paths, proceed() argument rewriting, undeploy — must be identical to the
old re-partition-on-every-call implementation, reproduced here verbatim as
the reference.

The whole matrix runs twice: with code-generated per-shadow wrappers
(the default) and with ``REPRO_AOP_CODEGEN=0`` (the generic
compiled-chain wrappers).  Both tiers must be behaviorally
indistinguishable — including ordering, exception paths, cflow watcher
and undeploy-snapshot semantics.
"""

import pytest

from repro.aop import (
    Advice,
    AdviceKind,
    Aspect,
    CompiledChain,
    JoinPoint,
    JoinPointKind,
    ProceedingJoinPoint,
    WeaverRuntime,
    after,
    after_returning,
    after_throwing,
    around,
    before,
    current_stack,
    default_runtime,
    execution,
)
from repro.aop.weaver import shadow_index


@pytest.fixture(autouse=True, params=["codegen", "generic"])
def _wrapper_tier(request, monkeypatch):
    """Run every test against both wrapper tiers (checked per deploy)."""
    monkeypatch.setenv("REPRO_AOP_CODEGEN", "0" if request.param == "generic" else "1")
    return request.param


# -- the pre-refactor algorithm, kept as the reference ------------------------


def _legacy_wrap_around(advice, jp, inner):
    def runner(*args, **kwargs):
        pjp = ProceedingJoinPoint(jp, inner)
        pjp.args = args or jp.args      # the falsy-args bug, preserved:
        pjp.kwargs = kwargs or jp.kwargs  # the reference for *non-empty* calls
        return advice.invoke(pjp)

    return runner


def legacy_run_advice_chain(advice, jp, proceed):
    """The seed implementation: re-partitions advice on every call."""
    befores = [a for a in advice if a.kind is AdviceKind.BEFORE]
    arounds = [a for a in advice if a.kind is AdviceKind.AROUND]
    returnings = [a for a in advice if a.kind is AdviceKind.AFTER_RETURNING]
    throwings = [a for a in advice if a.kind is AdviceKind.AFTER_THROWING]
    finallys = [a for a in advice if a.kind is AdviceKind.AFTER]

    chain = proceed
    for around_advice in reversed(arounds):
        chain = _legacy_wrap_around(around_advice, jp, chain)

    for item in befores:
        item.invoke(jp)
    try:
        result = chain(*jp.args, **jp.kwargs)
    except Exception as exc:
        jp.result = exc
        for item in reversed(throwings):
            item.invoke(jp)
        for item in reversed(finallys):
            item.invoke(jp)
        raise
    jp.result = result
    for item in reversed(returnings):
        item.invoke(jp)
    for item in reversed(finallys):
        item.invoke(jp)
    return result


def make_advice(kind, tag, log, *, order=0, proceed_args=None):
    """One advice of *kind* that logs enter/exit (arounds) or its tag."""
    if kind is AdviceKind.AROUND:

        def body(jp):
            log.append(f"enter:{tag}")
            try:
                if proceed_args is None:
                    return jp.proceed()
                return jp.proceed(*proceed_args)
            finally:
                log.append(f"exit:{tag}")

    else:

        def body(jp):
            log.append(tag)

    return Advice(kind=kind, pointcut=execution("*.*"), function=body, order=order)


ADVICE_MIXES = [
    [AdviceKind.BEFORE, AdviceKind.BEFORE, AdviceKind.AFTER],
    [AdviceKind.AROUND, AdviceKind.AROUND],
    [AdviceKind.BEFORE, AdviceKind.AROUND, AdviceKind.AFTER_RETURNING],
    [
        AdviceKind.BEFORE,
        AdviceKind.AROUND,
        AdviceKind.AFTER_THROWING,
        AdviceKind.AFTER,
        AdviceKind.AROUND,
        AdviceKind.AFTER_RETURNING,
    ],
    [AdviceKind.AFTER_THROWING, AdviceKind.AFTER],
]


def run_both(kinds, fail):
    """Run one mix through the legacy and the compiled chain; return logs."""
    logs = []
    results = []
    for runner in (legacy_run_advice_chain, lambda a, jp, p: CompiledChain(a)(jp, p)):
        log = []
        advice = [
            make_advice(kind, f"{kind.value}{i}", log)
            for i, kind in enumerate(kinds)
        ]
        jp = JoinPoint(JoinPointKind.METHOD_EXECUTION, object(), object, "op", (3,))

        def target(x):
            log.append("target")
            if fail:
                raise ValueError("boom")
            return x * 2

        if fail:
            with pytest.raises(ValueError):
                runner(advice, jp, target)
            results.append("raised")
        else:
            results.append(runner(advice, jp, target))
        logs.append(log)
    return logs, results


class TestLegacyParity:
    @pytest.mark.parametrize("kinds", ADVICE_MIXES)
    def test_success_path_identical(self, kinds):
        logs, results = run_both(kinds, fail=False)
        assert logs[0] == logs[1]
        assert results[0] == results[1] == 6

    @pytest.mark.parametrize("kinds", ADVICE_MIXES)
    def test_exception_path_identical(self, kinds):
        logs, results = run_both(kinds, fail=True)
        assert logs[0] == logs[1]
        assert results == ["raised", "raised"]


class TestCompiledOrdering:
    """Ordering invariants asserted directly against a deployed weave."""

    def test_before_outermost_first_after_innermost_first(self):
        log = []

        class Target:
            def op(self):
                log.append("target")

        class A(Aspect):
            @before("execution(Target.op)", order=1)
            def b1(self, jp):
                log.append("before:outer")

            @before("execution(Target.op)", order=2)
            def b2(self, jp):
                log.append("before:inner")

            @after("execution(Target.op)", order=1)
            def a1(self, jp):
                log.append("after:outer")

            @after("execution(Target.op)", order=2)
            def a2(self, jp):
                log.append("after:inner")

        with default_runtime.weave([Target], A()):
            Target().op()
        assert log == [
            "before:outer",
            "before:inner",
            "target",
            "after:inner",
            "after:outer",
        ]

    def test_around_nesting_outermost_wraps(self):
        log = []

        class Target:
            def op(self):
                log.append("target")

        class A(Aspect):
            @around("execution(Target.op)", order=1)
            def outer(self, jp):
                log.append("enter:outer")
                try:
                    return jp.proceed()
                finally:
                    log.append("exit:outer")

            @around("execution(Target.op)", order=2)
            def inner(self, jp):
                log.append("enter:inner")
                try:
                    return jp.proceed()
                finally:
                    log.append("exit:inner")

        with default_runtime.weave([Target], A()):
            Target().op()
        assert log == [
            "enter:outer",
            "enter:inner",
            "target",
            "exit:inner",
            "exit:outer",
        ]

    def test_exception_path_throwing_then_finally(self):
        log = []

        class Target:
            def op(self):
                raise RuntimeError("boom")

        class A(Aspect):
            @after_returning("execution(Target.op)")
            def ret(self, jp):
                log.append("returning")

            @after_throwing("execution(Target.op)")
            def threw(self, jp):
                log.append(f"throwing:{type(jp.result).__name__}")

            @after("execution(Target.op)")
            def fin(self, jp):
                log.append("finally")

        with default_runtime.weave([Target], A()):
            with pytest.raises(RuntimeError):
                Target().op()
        assert log == ["throwing:RuntimeError", "finally"]

    def test_undeploy_restores_original_function(self):
        class Target:
            def op(self):
                return "plain"

        original = Target.__dict__["op"]

        class A(Aspect):
            @around("execution(Target.op)")
            def wrap(self, jp):
                return "woven"

        weaver = WeaverRuntime()
        deployment = weaver.weave([Target], A()).deployments[0]
        assert Target().op() == "woven"
        assert getattr(Target.__dict__["op"], "__woven__", False)
        weaver.undeploy(deployment)
        assert Target.__dict__["op"] is original
        assert Target().op() == "plain"


class TestFalsyProceedArgs:
    """Regression: proceed() with intentionally emptied args must not
    replay the original arguments (the old ``args or jp.args`` bug)."""

    def test_outer_around_can_empty_args_through_inner_around(self):
        class Target:
            def op(self, *args, **kwargs):
                return (args, kwargs)

        class A(Aspect):
            @around("execution(Target.op)", order=1)
            def strip(self, jp):
                jp.args = ()
                jp.kwargs = {}
                return jp.proceed()

            @around("execution(Target.op)", order=2)
            def passthrough(self, jp):
                # The inner advice must observe the emptied arguments, not
                # the original call's.
                assert jp.args == ()
                assert jp.kwargs == {}
                return jp.proceed()

        with default_runtime.weave([Target], A()):
            assert Target().op(1, 2, x=3) == ((), {})

    def test_proceed_with_explicit_falsy_values_is_preserved(self):
        class Target:
            def op(self, payload, **kwargs):
                return (payload, kwargs)

        class A(Aspect):
            @around("execution(Target.op)", order=1)
            def outer(self, jp):
                # Rewrites the payload to a falsy value; 0 is a real
                # argument, not "use the original".
                return jp.proceed(0)

            @around("execution(Target.op)", order=2)
            def inner(self, jp):
                assert jp.args == (0,)
                return jp.proceed()

        with default_runtime.weave([Target], A()):
            assert Target().op(99, flag=True) == (0, {})


class TestStaticFastPath:
    def test_static_advice_skips_joinpoint_stack(self):
        frames = []

        class Target:
            def op(self):
                return "ok"

        class A(Aspect):
            @before("execution(Target.op)")
            def peek(self, jp):
                frames.append(current_stack())

        with default_runtime.weave([Target], A()):
            Target().op()
        # Fully static weave: the fast path does not push a frame.
        assert frames == [()]

    def test_dynamic_residue_still_sees_own_frame(self):
        frames = []

        class Target:
            def op(self):
                return "ok"

        class A(Aspect):
            @before("execution(Target.op) && cflow(execution(Target.op))")
            def peek(self, jp):
                frames.append([f.name for f in current_stack()])

        with default_runtime.weave([Target], A()):
            Target().op()
        # cflow(execution(Target.op)) matches the join point itself, which
        # requires the frame to be pushed before residue filtering.
        assert frames == [["op"]]

    def test_static_advice_keeps_frames_when_cflow_entry(self):
        log = []

        class Target:
            def entry(self):
                return self.op()

            def op(self):
                return "ok"

        class A(Aspect):
            # Static advice on the cflow entry shadow itself...
            @before("execution(Target.entry)")
            def on_entry(self, jp):
                log.append("entry")

            # ...which another advice's cflow residue must still observe.
            @before("execution(Target.op) && cflowbelow(execution(Target.entry))")
            def nested(self, jp):
                log.append("nested")

        with default_runtime.weave([Target], A()):
            Target().op()      # outside the flow: no 'nested'
            Target().entry()   # inside: both
        assert log == ["entry", "nested"]

    def test_fast_path_exception_semantics(self):
        log = []

        class Target:
            def op(self):
                raise KeyError("missing")

        class A(Aspect):
            @after_throwing("execution(Target.op)")
            def threw(self, jp):
                log.append(type(jp.result).__name__)

        with default_runtime.weave([Target], A()):
            with pytest.raises(KeyError):
                Target().op()
        assert log == ["KeyError"]

    def test_negated_pointcut_reevaluates_runtime_class(self):
        """Regression: ~execution(Sub.*) has no dynamic *test* but its
        matches_dynamic re-checks the shadow against the runtime class —
        the fast path must not skip it for subclass instances."""
        log = []

        class Node:
            def render(self):
                return "node"

        class PaintingNode(Node):
            pass

        class A(Aspect):
            @before("execution(Node.render) && !execution(PaintingNode.*)")
            def note(self, jp):
                log.append(type(jp.target).__name__)

        with default_runtime.weave([Node], A()):
            Node().render()
            PaintingNode().render()  # inherited shadow, negated at runtime
        assert log == ["Node"]

    def test_disjunction_keeps_runtime_check(self):
        from repro.aop import execution

        # Or re-evaluates matches_shadow per call; its advice must stay on
        # the residue-checking path even though has_dynamic_test is False.
        pointcut = execution("Node.render") | execution("Index.render")
        assert not pointcut.has_dynamic_test
        assert not pointcut.residue_free()

    def test_later_static_deploy_keeps_cflow_of_earlier_deploy(self):
        """Regression: advice installed over an earlier deployment's
        wrapper must push its frame before running, so calls made *from*
        that advice stay inside the join point's control flow."""
        hits = []

        class C:
            def entry(self):
                return "entry"

            def helper(self):
                return "helper"

        class CflowAspect(Aspect):
            @before("execution(C.helper) && cflow(execution(C.entry))")
            def note(self, jp):
                hits.append("cflow")

        class StaticAspect(Aspect):
            @before("execution(C.entry)")
            def call_helper(self, jp):
                jp.target.helper()  # must already be within entry's flow

        weaver = WeaverRuntime()
        weaver.weave([C], CflowAspect())
        weaver.weave([C], StaticAspect())
        try:
            C().entry()
        finally:
            weaver.undeploy_all()
        # Seed semantics: both the advice-originated helper call and any
        # helper call from entry's body would match; here the advice call
        # alone must be seen.
        assert hits == ["cflow"]

    def test_cflow_watcher_sees_other_deployments_field_frames(self):
        """Regression: a cflow(field_set) residue in one deployment must
        observe field frames pushed by another deployment's woven field."""
        hits = []

        class C:
            def __init__(self):
                self.x = 0

            def compute(self):
                return self.x

        class Watcher(Aspect):
            @before("execution(C.compute) && cflow(set(C.x))")
            def note(self, jp):
                hits.append("cflow-hit")

        class FieldAspect(Aspect):
            @before("set(C.x)")
            def on_set(self, jp):
                jp.target.__dict__.setdefault("x", 0)
                jp.target.compute()  # runs within the FIELD_SET frame

        weaver = WeaverRuntime()
        weaver.weave([C], Watcher(), require_match=False)
        weaver.weave([C], FieldAspect(), fields={"x"})
        try:
            c = C.__new__(C)
            c.x = 5
        finally:
            weaver.undeploy_all()
        assert hits == ["cflow-hit"]

    def test_cflow_watcher_sees_other_deployments_method_frames(self):
        """Regression: a static weave on a class outside a cflow watcher's
        targets must still push the frames the watcher observes."""
        hits = []

        class C:
            def m(self, d):
                return d.n()

        class D:
            def n(self):
                return "n"

        class Watcher(Aspect):
            @before("execution(D.n) && cflow(execution(C.m))")
            def note(self, jp):
                hits.append("hit")

        class StaticOnC(Aspect):
            @before("execution(C.m)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        weaver.weave([D], Watcher())
        weaver.weave([C], StaticOnC())  # C is not in the watcher's targets
        try:
            C().m(D())
        finally:
            weaver.undeploy_all()
        assert hits == ["hit"]

    def test_static_field_access_fast_path(self):
        events = []

        class Target:
            def __init__(self):
                self.level = 1

        class A(Aspect):
            @before("set(Target.level)")
            def on_set(self, jp):
                events.append(("set", jp.value, current_stack()))

            @before("get(Target.level)")
            def on_get(self, jp):
                events.append(("get", None, current_stack()))

        with default_runtime.weave([Target], A(), fields={"level"}):
            t = Target()
            assert t.level == 1
        assert events == [("set", 1, ()), ("get", None, ())]


class TestDeployAll:
    def test_deploy_all_matches_sequential_deploys(self):
        def fresh():
            class Target:
                def op(self):
                    return "base"

            return Target

        def make(tag, log):
            class A(Aspect):
                @around("execution(Target.op)")
                def wrap(self, jp, _tag=tag):
                    log.append(f"enter:{_tag}")
                    try:
                        return jp.proceed()
                    finally:
                        log.append(f"exit:{_tag}")

            return A()

        # Sequential deploys (the reference semantics).
        TargetA, log_a = fresh(), []
        weaver_a = WeaverRuntime()
        for tag in ("first", "second"):
            weaver_a.weave([TargetA], make(tag, log_a))
        TargetA().op()
        weaver_a.undeploy_all()

        # One transaction over the same shape.
        TargetB, log_b = fresh(), []
        weaver_b = WeaverRuntime()
        with weaver_b.transaction([TargetB]) as tx:
            for aspect in (make("first", log_b), make("second", log_b)):
                tx.add(aspect)
        deployments = tx.deployments
        TargetB().op()
        weaver_b.undeploy_all()

        assert len(deployments) == 2
        assert log_a == log_b == [
            "enter:second",
            "enter:first",
            "exit:first",
            "exit:second",
        ]
        assert "op" not in TargetB.__dict__ or TargetB().op() == "base"
        assert TargetB().op() == "base"

    def test_deploy_all_undeploy_all_restores_originals(self):
        class Target:
            def op(self):
                return 1

            def other(self):
                return 2

        original_op = Target.__dict__["op"]
        original_other = Target.__dict__["other"]

        class A(Aspect):
            @before("execution(Target.op)")
            def noop(self, jp):
                pass

        class B(Aspect):
            @before("execution(Target.other)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        with weaver.transaction([Target]) as tx:
            tx.add(A())
            tx.add(B())
        assert Target.__dict__["op"] is not original_op
        assert Target.__dict__["other"] is not original_other
        weaver.undeploy_all()
        assert Target.__dict__["op"] is original_op
        assert Target.__dict__["other"] is original_other


class TestShadowIndex:
    def test_index_reflects_weaver_mutations(self):
        class Target:
            def op(self):
                return 1

        from repro.aop import method_shadows

        baseline = {s.name for s in method_shadows(Target)}
        assert baseline == {"op"}

        class A(Aspect):
            @before("execution(Target.op)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        deployment = weaver.weave([Target], A()).deployments[0]
        woven = {s.name: s.original for s in method_shadows(Target)}
        # The index was invalidated: a rescan sees the wrapper as the
        # shadow (so a later deployment nests around it).
        assert getattr(Target.__dict__["op"], "__woven__", False)
        assert woven["op"] is Target.__dict__["op"]
        weaver.undeploy(deployment)
        restored = {s.name: s.original for s in method_shadows(Target)}
        assert restored["op"] is Target.__dict__["op"]
        assert not hasattr(restored["op"], "__woven__")

    def test_introduced_method_is_weavable_in_same_deploy(self):
        from repro.aop import Introduction

        class Target:
            def op(self):
                return 1

        log = []

        class A(Aspect):
            def introductions(self):
                return [Introduction("Target", "ping", lambda self: "pong")]

            @before("execution(Target.ping)")
            def noop(self, jp):
                log.append("ping-advised")

        with default_runtime.weave([Target], A()):
            assert Target().ping() == "pong"
        assert log == ["ping-advised"]
        assert not hasattr(Target, "ping")

    def test_subclass_entries_invalidated_with_base(self):
        from repro.aop import method_shadows

        class Base:
            def op(self):
                return "base"

        class Sub(Base):
            pass

        # Prime the cache for both classes.
        assert {s.name for s in method_shadows(Sub)} == {"op"}

        class A(Aspect):
            @before("execution(Base.op)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        deployment = weaver.weave([Base], A()).deployments[0]
        sub_shadow = {s.name: s.original for s in method_shadows(Sub)}
        # Weaving Base must invalidate Sub's cached scan too: Sub
        # inherits the wrapper now.
        assert getattr(sub_shadow["op"], "__woven__", False)
        weaver.undeploy(deployment)
        sub_shadow = {s.name: s.original for s in method_shadows(Sub)}
        assert not hasattr(sub_shadow["op"], "__woven__")

    def test_undeploy_restores_cache_snapshot_without_rescan(self):
        """Deploy/undeploy cycles must not rescan unchanged classes."""
        import repro.aop.weaver as weaver_mod

        class Target:
            def op(self):
                return 1

        class A(Aspect):
            @before("execution(Target.op)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        weaver.weave([Target], A()).undeploy()  # prime the snapshot path

        calls = []
        real_scan = weaver_mod._scan_method_shadows

        def counting_scan(cls):
            calls.append(cls)
            return real_scan(cls)

        weaver_mod._scan_method_shadows = counting_scan
        try:
            for _ in range(5):
                weaver.weave([Target], A()).undeploy()
        finally:
            weaver_mod._scan_method_shadows = real_scan
        assert calls == []  # every cycle restored the pre-weave snapshot

    def test_interleaved_deployments_degrade_to_rescan_safely(self):
        """Non-LIFO-friendly interleavings must not restore stale entries."""

        class Target:
            def foo(self):
                return "foo"

            def bar(self):
                return "bar"

        class OnFoo(Aspect):
            @before("execution(Target.foo)")
            def noop(self, jp):
                pass

        class OnBar(Aspect):
            @before("execution(Target.bar)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        first = weaver.weave([Target], OnFoo()).deployments[0]
        second = weaver.weave([Target], OnBar()).deployments[0]
        weaver.undeploy(first)  # out of order, but disjoint names: allowed
        # The restored view must still see OnBar's wrapper on `bar`, or a
        # third deployment would capture (and later "restore") stale state.
        from repro.aop import method_shadows

        originals = {s.name: s.original for s in method_shadows(Target)}
        assert getattr(originals["bar"], "__woven__", False)
        assert not hasattr(originals["foo"], "__woven__")
        weaver.undeploy(second)
        assert not hasattr(Target.__dict__["foo"], "__woven__")
        assert not hasattr(Target.__dict__["bar"], "__woven__")

    def test_base_weave_stamps_uncached_subclass_snapshots(self):
        """Regression: out-of-LIFO undeploy of a subclass deployment must
        not restore a snapshot predating an interleaved base-class weave."""
        log = []

        class Base:
            def bar(self):
                return "bar"

        class Sub(Base):
            def foo(self):
                return "foo"

        def noop_aspect(pointcut, tag):
            class A(Aspect):
                @before(pointcut)
                def note(self, jp, _tag=tag):
                    log.append(_tag)

            return A()

        weaver = WeaverRuntime()
        d1 = weaver.weave(Sub, noop_aspect("execution(Sub.foo)", "A1")).deployments[0]
        weaver.weave(Base, noop_aspect("execution(Base.bar)", "A2"))
        weaver.undeploy(d1)  # non-overlapping out-of-LIFO: allowed
        # A third deployment on Sub must see (and wrap) A2's inherited
        # wrapper, not a stale pre-A2 scan.
        weaver.weave([Sub], noop_aspect("execution(Sub.bar)", "A3"))
        Sub().bar()
        assert sorted(log) == ["A2", "A3"]
        weaver.undeploy_all()

    def test_clear_blocks_stale_snapshot_restore(self):
        """Regression: shadow_index.clear() must make outstanding
        deployments' snapshots unrestorable."""
        from repro.aop import method_shadows

        class Target:
            def op(self):
                return 1

        class A(Aspect):
            @before("execution(Target.*)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        deployment = weaver.weave([Target], A()).deployments[0]
        Target.extra = lambda self: 2  # external mutation while deployed
        shadow_index.clear()
        weaver.undeploy(deployment)
        assert {s.name for s in method_shadows(Target)} == {"op", "extra"}
        deployment = weaver.weave([Target], A()).deployments[0]
        assert sorted(deployment.woven_signatures()) == [
            "Target.extra",
            "Target.op",
        ]
        weaver.undeploy(deployment)

    def test_manual_invalidation_picks_up_external_mutation(self):
        from repro.aop import method_shadows

        class Target:
            def op(self):
                return 1

        assert {s.name for s in method_shadows(Target)} == {"op"}
        Target.extra = lambda self: 2  # mutated outside the weaver
        shadow_index.invalidate(Target)
        assert {s.name for s in method_shadows(Target)} == {"op", "extra"}
