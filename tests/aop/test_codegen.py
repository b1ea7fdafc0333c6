"""Code-generated wrappers: pooling, residue indices, batch planning.

The full chain-semantics matrix lives in ``test_compiled_chain.py`` (it
runs against both wrapper tiers); this module pins what is *specific* to
the codegen tier — that wrappers really are generated, that the per-shadow
join point pool reuses instances without leaking state between calls or
across undeploy, that class-settled residues are memoized per runtime
class instead of re-evaluated per call, and that a transaction plans a
whole batch from one shadow scan per class.
"""

import pytest

from repro.aop import (
    Aspect,
    JoinPointKind,
    JoinPointPool,
    WeaverRuntime,
    after_returning,
    around,
    before,
    codegen_enabled,
    default_runtime,
    execution,
    target,
)
from repro.aop.pointcut import KindedPattern, Not
import repro.aop.weaver as weaver_mod


@pytest.fixture(autouse=True)
def _codegen_on(monkeypatch):
    monkeypatch.setenv("REPRO_AOP_CODEGEN", "1")


def fresh_target():
    class Target:
        def op(self, *args, **kwargs):
            return (args, kwargs)

    return Target


class TestEscapeHatch:
    def test_default_is_enabled(self):
        assert codegen_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "NO", " Off "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_AOP_CODEGEN", value)
        assert not codegen_enabled()

    def test_wrappers_generated_only_when_enabled(self, monkeypatch):
        Target = fresh_target()

        class A(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                pass

        with default_runtime.weave([Target], A()):
            assert hasattr(Target.__dict__["op"], "__codegen_source__")
            assert hasattr(Target.__dict__["op"], "__joinpoint_pool__")
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "0")
        with default_runtime.weave([Target], A()):
            assert not hasattr(Target.__dict__["op"], "__codegen_source__")
        assert not hasattr(Target.__dict__["op"], "__woven__")


class TestJoinPointPooling:
    def test_sequential_calls_reuse_the_pooled_joinpoint(self):
        Target = fresh_target()
        seen = []

        class A(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                seen.append((id(jp), jp.args, dict(jp.kwargs)))

        with default_runtime.weave([Target], A()):
            t = Target()
            t.op(1)
            t.op(2, x=3)
        # Same instance both times (the pool), never stale arguments.
        assert seen[0][0] == seen[1][0]
        assert seen[0][1:] == ((1,), {})
        assert seen[1][1:] == ((2,), {"x": 3})

    def test_released_joinpoint_is_scrubbed(self):
        Target = fresh_target()
        captured = []

        class A(Aspect):
            @after_returning("execution(Target.op)")
            def keep(self, jp):
                captured.append(jp)

        with default_runtime.weave([Target], A()):
            t = Target()
            t.op("payload", key="value")
            jp = captured[0]
            # During the call the advice saw real state; afterwards the
            # released instance holds no references from that call.
            assert jp.target is None
            assert jp.args == ()
            assert jp.kwargs is None
            assert jp.result is None
            assert jp.value is None

    def test_advice_assigned_value_does_not_leak_into_next_call(self):
        Target = fresh_target()
        seen = []

        class A(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                seen.append(jp.value)
                jp.value = object()  # anything advice parks on the slot

        with default_runtime.weave([Target], A()):
            t = Target()
            t.op()
            t.op()
        # The second (pool-reused) join point must not carry the first
        # call's value.
        assert seen == [None, None]

    def test_reentrant_calls_get_distinct_joinpoints(self):
        class Target:
            def op(self, depth):
                if depth:
                    return self.op(depth - 1) + 1
                return 0

        live = []

        class A(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                live.append((id(jp), jp.args))

        with default_runtime.weave([Target], A()):
            assert Target().op(2) == 2
        identities = [entry[0] for entry in live]
        assert len(set(identities)) == 3  # nesting cannot share an instance
        assert [entry[1] for entry in live] == [(2,), (1,), (0,)]

    def test_state_does_not_leak_across_undeploy(self):
        Target = fresh_target()
        seen = []

        class A(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                seen.append(jp.args)

        weaver = WeaverRuntime()
        deployment = weaver.weave([Target], A()).deployments[0]
        Target().op("first")
        weaver.undeploy(deployment)
        assert Target().op("plain") == (("plain",), {})  # original restored
        deployment = weaver.weave([Target], A()).deployments[0]
        Target().op("second")
        weaver.undeploy(deployment)
        assert seen == [("first",), ("second",)]

    def test_pool_acquire_release_contract(self):
        pool = JoinPointPool(JoinPointKind.METHOD_EXECUTION, "op", cap=2)
        holder = object()
        jp = pool.acquire(holder, (1,), {"a": 2})
        assert jp.kind is JoinPointKind.METHOD_EXECUTION
        assert jp.name == "op"
        assert jp.target is holder and jp.cls is object
        assert jp.args == (1,) and jp.kwargs == {"a": 2}
        pool.release(jp)
        assert pool.free == [jp]
        assert jp.target is None and jp.kwargs is None
        # The cap bounds the free list.
        extras = [pool.blank() for _ in range(3)]
        for item in extras:
            pool.release(item)
        assert len(pool.free) <= 2

    def test_frame_pushed_joinpoints_are_never_pooled(self):
        """A stored ``current_stack()`` must stay intact after the call —
        dynamic-residue wrappers therefore allocate, not pool."""
        from repro.aop import current_stack

        class Node:
            def render(self):
                return "node"

        stacks = []

        class A(Aspect):
            @before(execution("Node.render") & target(Node))
            def keep(self, jp):
                stacks.append(current_stack())

        with default_runtime.weave([Node], A()):
            node = Node()
            node.render()
            node.render()
        first, second = stacks
        # Distinct frame instances per call, and the captured frames still
        # carry their call's state (nothing scrubbed or recycled).
        assert first[0] is not second[0]
        assert first[0].cls is Node and first[0].name == "render"
        assert second[0].cls is Node and second[0].name == "render"

    def test_around_advice_pools_the_base_joinpoint(self):
        Target = fresh_target()
        ids = []

        class A(Aspect):
            @around("execution(Target.op)")
            def wrap(self, jp):
                ids.append(id(jp))
                return jp.proceed()

        with default_runtime.weave([Target], A()):
            t = Target()
            assert t.op(1) == ((1,), {})
            assert t.op(2) == ((2,), {})
        # The ProceedingJoinPoint is per-call, but the pooled base join
        # point behind it must not leak state between the calls (results
        # above prove the arguments replayed correctly).
        assert len(ids) == 2


class _CountingExec(KindedPattern):
    """An execution pointcut counting shadow evaluations."""

    calls = 0

    def matches_shadow(self, cls, name, kind):
        type(self).calls += 1
        return super().matches_shadow(cls, name, kind)


class TestResidueMaskIndex:
    def test_class_settled_residue_evaluated_once_per_class(self):
        class Node:
            def render(self):
                return "node"

        class Painting(Node):
            pass

        counting = _CountingExec("Painting.*", JoinPointKind.METHOD_EXECUTION)
        _CountingExec.calls = 0

        class A(Aspect):
            @before(execution("Node.render") & ~counting)
            def note(self, jp):
                pass

        with default_runtime.weave([Node], A()):
            node, painting = Node(), Painting()
            for _ in range(10):
                node.render()
                painting.render()
            after_warmup = _CountingExec.calls
            for _ in range(50):
                node.render()
                painting.render()
            # The negation's shadow re-evaluation is settled per runtime
            # class, not per call.
            assert _CountingExec.calls == after_warmup

    def test_class_settled_negation_still_correct(self):
        log = []

        class Node:
            def render(self):
                return "node"

        class Painting(Node):
            pass

        class A(Aspect):
            @before("execution(Node.render) && !execution(Painting.*)")
            def note(self, jp):
                log.append(type(jp.target).__name__)

        with default_runtime.weave([Node], A()):
            Node().render()
            Painting().render()
            Node().render()
        assert log == ["Node", "Node"]

    def test_conjunction_splits_class_and_call_parts(self):
        class Node:
            def render(self):
                return "node"

        class Painting(Node):
            pass

        pointcut = execution("Node.render") & ~execution("Painting.*") & target(Node)
        class_part, call_part = pointcut.residue_parts()
        assert class_part is not None and isinstance(class_part, Not)
        assert call_part is not None
        jp = type(
            "FakeJp",
            (),
            {"cls": Node, "name": "render", "kind": JoinPointKind.METHOD_EXECUTION},
        )()
        assert class_part.matches_dynamic(jp)
        jp.cls = Painting
        assert not class_part.matches_dynamic(jp)

    def test_dynamic_target_residue_filters_per_call(self):
        log = []

        class Node:
            def render(self):
                return "node"

        class Painting(Node):
            pass

        class A(Aspect):
            @before(execution("Node.render") & target(Painting))
            def note(self, jp):
                log.append(type(jp.target).__name__)

        with default_runtime.weave([Node], A()):
            Node().render()
            Painting().render()
        assert log == ["Painting"]


class TestSingleScanBatchDeploy:
    def _counting_scan(self, monkeypatch):
        calls = []
        real = weaver_mod._scan_method_shadows

        def counting(cls):
            calls.append(cls)
            return real(cls)

        monkeypatch.setattr(weaver_mod, "_scan_method_shadows", counting)
        return calls

    def test_deploy_all_scans_each_class_once(self, monkeypatch):
        class Alpha:
            def op(self):
                return "alpha"

        class Beta:
            def op(self):
                return "beta"

        def make(pattern):
            class A(Aspect):
                @before(pattern)
                def note(self, jp):
                    pass

            return A()

        weaver_mod.shadow_index.clear()
        calls = self._counting_scan(monkeypatch)
        weaver = WeaverRuntime()
        with weaver.transaction([Alpha, Beta]) as tx:
            for pattern in (
                "execution(Alpha.op)",
                "execution(Beta.op)",
                "execution(*.op)",
            ):
                tx.add(make(pattern))
        try:
            assert sorted(calls, key=lambda cls: cls.__name__) == [Alpha, Beta]
        finally:
            weaver.undeploy_all()

    def test_batch_nesting_matches_sequential(self):
        def build(deploy_batch):
            class Target:
                def op(self):
                    log.append("target")

            log = []

            def make(tag):
                class A(Aspect):
                    @around("execution(Target.op)")
                    def wrap(self, jp, _tag=tag):
                        log.append(f"enter:{_tag}")
                        try:
                            return jp.proceed()
                        finally:
                            log.append(f"exit:{_tag}")

                return A()

            weaver = WeaverRuntime()
            aspects = [make("one"), make("two"), make("three")]
            if deploy_batch:
                with weaver.transaction([Target]) as tx:
                    for aspect in aspects:
                        tx.add(aspect)
            else:
                for aspect in aspects:
                    weaver.weave([Target], aspect)
            Target().op()
            weaver.undeploy_all()
            Target().op()
            return log

        assert build(deploy_batch=True) == build(deploy_batch=False)

    def test_batch_base_and_subclass_targets_stay_consistent(self):
        log = []

        class Base:
            def op(self):
                return "base"

        class Sub(Base):
            pass

        def make(pattern, tag):
            class A(Aspect):
                @before(pattern)
                def note(self, jp, _tag=tag):
                    log.append(_tag)

            return A()

        weaver = WeaverRuntime()
        with weaver.transaction([Base, Sub]) as tx:
            tx.add(make("execution(Base.op)", "A1"))
            tx.add(make("execution(Sub.op)", "A2"))
        try:
            Sub().op()
        finally:
            weaver.undeploy_all()
        # Both aspects advise, later wraps earlier: before advice of the
        # later (outer) deployment runs first.
        assert log == ["A2", "A1"]
        assert Sub().op() == "base"
        assert log == ["A2", "A1"]

    def test_deploy_all_rolls_back_on_mid_batch_failure(self):
        from repro.aop.errors import WeavingError

        class Target:
            def op(self):
                return "base"

        original = Target.__dict__["op"]

        class Good(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                pass

        class Typo(Aspect):
            @before("execution(Target.no_such_method)")
            def nope(self, jp):
                pass

        weaver = WeaverRuntime()
        with pytest.raises(WeavingError):
            with weaver.transaction([Target]) as tx:
                for aspect in (Good(), Typo()):
                    tx.add(aspect)
        # The earlier aspect must not stay woven: the caller never got a
        # deployment handle to undeploy it with.
        assert Target.__dict__["op"] is original
        assert weaver.deployments == []

    def test_failing_deploy_reverts_its_partial_introductions(self):
        from repro.aop import Introduction
        from repro.aop.errors import IntroductionError

        class Target:
            def op(self):
                return 1

            def taken(self):
                return "existing"

        class Good(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                pass

        class PartialIntro(Aspect):
            def introductions(self):
                return [
                    Introduction("Target", "fresh", lambda self: "new"),
                    # Clashes with an existing member: apply() raises after
                    # "fresh" was already installed.
                    Introduction("Target", "taken", lambda self: "clash"),
                ]

        weaver = WeaverRuntime()
        with pytest.raises(IntroductionError):
            with weaver.transaction([Target]) as tx:
                for aspect in (Good(), PartialIntro()):
                    tx.add(aspect)
        # Neither the failing aspect's partial introductions nor the
        # earlier aspect survive: the caller has no handles to undo them.
        assert not hasattr(Target, "fresh")
        assert not hasattr(Target.__dict__["op"], "__woven__")
        assert Target().taken() == "existing"
        assert weaver.deployments == []

    def test_batch_with_introduction_falls_back_to_rescan(self):
        from repro.aop import Introduction

        log = []

        class Target:
            def op(self):
                return 1

        class Introducer(Aspect):
            def introductions(self):
                return [Introduction("Target", "ping", lambda self: "pong")]

            @before("execution(Target.ping)")
            def on_ping(self, jp):
                log.append("ping")

        class OnPing(Aspect):
            @before("execution(Target.ping)")
            def also(self, jp):
                log.append("also")

        weaver = WeaverRuntime()
        with weaver.transaction([Target]) as tx:
            tx.add(Introducer())
            tx.add(OnPing())
        try:
            assert Target().ping() == "pong"
        finally:
            weaver.undeploy_all()
        assert sorted(log) == ["also", "ping"]
        assert not hasattr(Target, "ping")


class TestGeneratedWrapperMetadata:
    def test_wrapper_preserves_function_identity_surface(self):
        class Target:
            def op(self):
                """The docstring."""
                return 1

        class A(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                pass

        with default_runtime.weave([Target], A()):
            wrapper = Target.__dict__["op"]
            assert wrapper.__name__ == "op"
            assert wrapper.__doc__ == "The docstring."
            assert wrapper.__woven__
            assert wrapper.__woven_original__ is wrapper.__wrapped__
            assert "def wrapper(self, *args, **kwargs):" in wrapper.__codegen_source__

    def test_exceptionless_chains_generate_no_handler(self):
        class Target:
            def op(self):
                return 1

        class A(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                pass

        with default_runtime.weave([Target], A()):
            source = Target.__dict__["op"].__codegen_source__
        assert "except Exception" not in source


class TestMarkerSlotSharing:
    """Scoped marker templates compile once per advice shape, not per scope.

    The marker attribute name is per-scope, so a per-scope compile would
    tax every new scope with a parse.  The template renders a fixed marker slot instead and the
    real marker is retargeted into a cheap clone of the compiled code.
    """

    def _scoped_pair(self):
        from repro.aop import InstanceScope, WeaverRuntime

        Target = fresh_target()

        def make_aspect():
            class Trail(Aspect):
                def __init__(self):
                    self.seen = []

                @before("execution(Target.op)")
                def note(self, jp):
                    self.seen.append(jp.target)

            return Trail()

        runtime = WeaverRuntime("marker-slot-test")
        return runtime, Target, make_aspect

    def test_second_scope_reuses_the_compiled_shape(self):
        runtime, Target, make_aspect = self._scoped_pair()
        one, two = Target(), Target()
        with runtime.transaction([Target]) as tx:
            tx.add(make_aspect(), instances=[one])
            compiled_once = runtime.codegen_cache.sources_compiled
            retargets = runtime.codegen_cache.markers_retargeted
            tx.add(make_aspect(), instances=[two])
            stats = runtime.codegen_cache.stats()
            assert stats["sources_compiled"] == compiled_once
            assert stats["compile_hits"] >= 1
            assert stats["markers_retargeted"] > retargets
            tx.undeploy()

    def test_each_scope_dispatches_on_its_own_marker(self):
        from repro.aop import InstanceScope

        runtime, Target, make_aspect = self._scoped_pair()
        one, two, outsider = Target(), Target(), Target()
        scope_a, scope_b = InstanceScope([one]), InstanceScope([two])
        a, b = make_aspect(), make_aspect()
        with runtime.transaction([Target]) as tx:
            tx.add(a, instances=scope_a)
            tx.add(b, instances=scope_b)
            one.op()
            two.op()
            outsider.op()
            assert a.seen == [one]
            assert b.seen == [two]
            # The recorded source names the scope's *real* marker (the
            # compiled slot was retargeted), so inspection stays faithful.
            wrapper = Target.__dict__["op"]
            assert scope_b.attr in wrapper.__codegen_source__
            assert "_aop_marker_slot" not in wrapper.__codegen_source__
            tx.undeploy()

    def test_session_churn_never_recompiles(self):
        runtime, Target, make_aspect = self._scoped_pair()
        with runtime.transaction([Target]) as tx:
            tx.add(make_aspect(), instances=[Target()])
            compiled = runtime.codegen_cache.sources_compiled
            for _ in range(5):
                instance = Target()
                aspect = make_aspect()
                deployment = tx.add(aspect, instances=[instance])
                instance.op()
                assert aspect.seen == [instance]
                tx.undeploy([deployment])
            assert runtime.codegen_cache.sources_compiled == compiled
            tx.undeploy()
