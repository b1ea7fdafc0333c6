"""Instance-scoped deployments: dispatch, composition, rollback, scopes.

The scoped dispatch has two membership tiers (marker attribute in the
codegen tier, id-set in the generic tier), so the behavioural matrix here
runs under both ``REPRO_AOP_CODEGEN`` settings: advice fires only for
scoped receivers, unscoped receivers fall through to the previous member,
class-wide deployments compose over instance dispatch in deployment
order, and undeploy/rollback restore classes *and* marker state exactly.
"""

import gc

import pytest

from repro.aop import (
    Aspect,
    InstanceScope,
    WeaverRuntime,
    WeavingError,
    around,
    before,
    field_set,
    introduce,
)


@pytest.fixture(params=["codegen", "generic"])
def tier(request, monkeypatch):
    monkeypatch.setenv("REPRO_AOP_CODEGEN", "1" if request.param == "codegen" else "0")
    return request.param


def fresh_node():
    class Node:
        def render(self, suffix=""):
            return "base" + suffix

        def leaf(self):
            return "leaf"

    return Node


def tag(tag_name):
    class TagAspect(Aspect):
        @around("execution(Node.render)")
        def wrap(self, jp):
            return f"{tag_name}({jp.proceed()})"

    TagAspect.__name__ = f"Tag{tag_name}"
    return TagAspect()


class TestScopedDispatch:
    def test_advice_fires_only_for_scoped_instances(self, tier):
        Node = fresh_node()
        scoped, unscoped = Node(), Node()
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], tag("A"), instances=[scoped]).deployments[0]
        try:
            assert scoped.render() == "A(base)"
            assert unscoped.render() == "base"
            assert Node().render() == "base"
        finally:
            runtime.undeploy(deployment)
        assert scoped.render() == "base"

    def test_two_scopes_coexist_on_one_class(self, tier):
        Node = fresh_node()
        a, b, c = Node(), Node(), Node()
        runtime = WeaverRuntime()
        da = runtime.weave([Node], tag("A"), instances=[a]).deployments[0]
        db = runtime.weave([Node], tag("B"), instances=[b]).deployments[0]
        try:
            assert a.render() == "A(base)"
            assert b.render() == "B(base)"
            assert c.render() == "base"
        finally:
            runtime.undeploy(db)
            runtime.undeploy(da)

    def test_signature_is_forwarded_exactly(self, tier):
        Node = fresh_node()
        scoped, unscoped = Node(), Node()
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], tag("A"), instances=[scoped]).deployments[0]
        try:
            assert scoped.render("!") == "A(base!)"
            assert scoped.render(suffix="?") == "A(base?)"
            assert unscoped.render("!") == "base!"
            assert unscoped.render(suffix="?") == "base?"
        finally:
            runtime.undeploy(deployment)

    def test_before_advice_sees_scoped_args(self, tier):
        Node = fresh_node()
        scoped = Node()
        seen = []

        class Watcher(Aspect):
            @before("execution(Node.render)")
            def note(self, jp):
                seen.append(jp.args)

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Watcher(), instances=[scoped]).deployments[0]
        try:
            scoped.render("!")
            assert seen == [("!",)]
        finally:
            runtime.undeploy(deployment)

    def test_exotic_signatures_fall_back_but_still_scope(self, tier):
        class Node:
            def render(self, *args, **kwargs):
                return ("base", args, tuple(sorted(kwargs)))

        scoped, unscoped = Node(), Node()

        class Wrap(Aspect):
            @around("execution(Node.render)")
            def wrap(self, jp):
                return ("wrapped", jp.proceed())

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Wrap(), instances=[scoped]).deployments[0]
        try:
            assert scoped.render(1, x=2) == ("wrapped", ("base", (1,), ("x",)))
            assert unscoped.render(1, x=2) == ("base", (1,), ("x",))
        finally:
            runtime.undeploy(deployment)

    def test_parameter_named_len_falls_back_safely(self, tier):
        """Template-colliding parameter names must not be rendered.

        The generated release block calls ``len``; a parameter of that
        name would shadow the builtin inside an exact-signature ``_run``,
        so the renderer must fall back to the packing shape.
        """

        class Node:
            def render(self, len=0):
                return len

        scoped, unscoped = Node(), Node()

        class Wrap(Aspect):
            @around("execution(Node.render)")
            def wrap(self, jp):
                return ("W", jp.proceed())

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Wrap(), instances=[scoped]).deployments[0]
        try:
            assert scoped.render(5) == ("W", 5)
            assert unscoped.render(5) == 5
        finally:
            runtime.undeploy(deployment)

    def test_copied_member_follows_its_stamp(self, tier):
        """copy.copy of a member copies the stamp; discard strips it.

        Marker dispatch follows the instance stamp, so the copy is
        advised consistently — including under a live cflow watcher,
        whose slow path re-tests membership by the same rule — until
        ``scope.discard`` removes the stray stamp.
        """
        import copy

        Node = fresh_node()
        member = Node()
        scope = InstanceScope([member])
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], tag("A"), instances=scope).deployments[0]
        marker_tier = any(k.startswith("_aop_scope_") for k in Node.__dict__)
        try:
            clone = copy.copy(member)
            if marker_tier:
                assert clone.render() == "A(base)"

                class Watch(Aspect):
                    @before("execution(Node.render) && cflow(execution(Node.render))")
                    def note(self, jp):
                        pass

                watcher_dep = runtime.weave([Node], Watch()).deployments[0]
                try:
                    # Slow path agrees with the fast path on the stamp.
                    assert clone.render() == "A(base)"
                finally:
                    runtime.undeploy(watcher_dep)
                scope.discard(clone)
                assert clone.render() == "base"
                assert member.render() == "A(base)"
            else:
                # Id dispatch: the copy was never a member.
                assert clone.render() == "base"
        finally:
            runtime.undeploy(deployment)

    def test_slots_instances_use_id_dispatch(self, tier):
        class Node:
            __slots__ = ()

            def render(self):
                return "base"

        scoped, unscoped = Node(), Node()

        class Wrap(Aspect):
            @around("execution(Node.render)")
            def wrap(self, jp):
                return f"W({jp.proceed()})"

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Wrap(), instances=[scoped]).deployments[0]
        try:
            assert scoped.render() == "W(base)"
            assert unscoped.render() == "base"
            # No marker default leaked onto the class.
            assert not any(k.startswith("_aop_scope_") for k in Node.__dict__)
        finally:
            runtime.undeploy(deployment)


class TestComposition:
    def test_class_chain_wraps_instance_chain(self, tier):
        Node = fresh_node()
        scoped, unscoped = Node(), Node()
        runtime = WeaverRuntime()
        di = runtime.weave([Node], tag("I"), instances=[scoped]).deployments[0]
        dc = runtime.weave([Node], tag("C")).deployments[0]
        try:
            assert scoped.render() == "C(I(base))"
            assert unscoped.render() == "C(base)"
        finally:
            runtime.undeploy(dc)
            runtime.undeploy(di)
        assert scoped.render() == "base"

    def test_instance_dispatch_over_class_chain(self, tier):
        Node = fresh_node()
        scoped, unscoped = Node(), Node()
        runtime = WeaverRuntime()
        dc = runtime.weave([Node], tag("C")).deployments[0]
        di = runtime.weave([Node], tag("I"), instances=[scoped]).deployments[0]
        try:
            # The instance dispatch's "original" is the class-wide
            # wrapper, so unscoped receivers still get the class chain.
            assert scoped.render() == "I(C(base))"
            assert unscoped.render() == "C(base)"
        finally:
            runtime.undeploy(di)
            runtime.undeploy(dc)

    def test_transaction_rollback_restores_everything(self, tier):
        Node = fresh_node()
        scoped = Node()
        runtime = WeaverRuntime()
        with pytest.raises(RuntimeError, match="boom"):
            with runtime.transaction([Node]) as tx:
                tx.add(tag("A"), instances=[scoped])
                assert scoped.render() == "A(base)"
                raise RuntimeError("boom")
        assert scoped.render() == "base"
        assert not hasattr(Node.render, "__woven__")
        assert not any(k.startswith("_aop_scope_") for k in Node.__dict__)
        assert not any(k.startswith("_aop_scope_") for k in vars(scoped))

    def test_partial_undeploy_reweaves_scoped_survivors(self, tier):
        Node = fresh_node()
        a, b = Node(), Node()
        runtime = WeaverRuntime()
        tx = runtime.transaction([Node])
        da = tx.add(tag("A"), instances=[a])
        tx.add(tag("B"), instances=[b])
        tx.commit()
        tx.undeploy([da])
        try:
            assert a.render() == "base"
            assert b.render() == "B(base)"
        finally:
            tx.undeploy()
        assert b.render() == "base"

    def test_introductions_refuse_instance_scoping(self, tier):
        Node = fresh_node()

        class WithIntro(Aspect):
            def introductions(self):
                return [introduce("Node", "grafted", lambda self: True)]

        runtime = WeaverRuntime()
        with pytest.raises(WeavingError, match="cannot be instance-scoped"):
            runtime.weave([Node], WithIntro(), instances=[Node()])
        assert not hasattr(Node, "grafted")


class TestCflowParity:
    def test_unscoped_calls_stay_cflow_observable(self, tier):
        """A cflow residue in another deployment sees unscoped calls too.

        The shadow executes whether or not the receiver is scoped, so —
        exactly like a class-wide woven shadow — the dispatch must push
        an observable frame while any watcher is live in the runtime.
        """

        class Other:
            def m(self):
                return "m"

        other = Other()

        class Node:
            def render(self):
                return other.m()

        fired = []

        class CflowWatch(Aspect):
            @before("execution(Other.m) && cflow(execution(Node.render))")
            def note(self, jp):
                fired.append(jp.signature)

        scoped, unscoped = Node(), Node()
        runtime = WeaverRuntime()
        d_scope = runtime.weave([Node], tag("A"), instances=[scoped]).deployments[0]
        # Deployed over [Other] only: no tracking wrapper lands on
        # Node.render, so the frames can only come from the scoped
        # deployment's dispatch wrapper.
        d_cflow = runtime.weave([Other], CflowWatch()).deployments[0]
        try:
            other.m()
            assert fired == []  # outside any render extent
            unscoped.render()
            assert fired == ["Other.m"]
            scoped.render()
            assert fired == ["Other.m", "Other.m"]
        finally:
            runtime.undeploy(d_cflow)
            runtime.undeploy(d_scope)

    def test_scope_deployed_under_live_watchers(self, tier):
        """Reverse order: the watcher is live before the scope weaves."""

        class Other:
            def m(self):
                return "m"

        other = Other()

        class Node:
            def render(self):
                return other.m()

        fired = []

        class CflowWatch(Aspect):
            @before("execution(Other.m) && cflow(execution(Node.render))")
            def note(self, jp):
                fired.append(jp.signature)

        scoped, unscoped = Node(), Node()
        runtime = WeaverRuntime()
        d_cflow = runtime.weave([Other], CflowWatch()).deployments[0]
        d_scope = runtime.weave([Node], tag("A"), instances=[scoped]).deployments[0]
        try:
            unscoped.render()
            scoped.render()
            assert fired == ["Other.m", "Other.m"]
        finally:
            runtime.undeploy(d_scope)
            runtime.undeploy(d_cflow)
        # Watchers gone: the passthrough is fast again and frame-free.
        fired.clear()
        unscoped.render()
        assert fired == []

    def test_scoped_codegen_joinpoints_canonicalize_args(self, monkeypatch):
        """Exact-signature dispatch presents calls in positional form.

        The generated scoped wrapper compiles the shadow's signature, so
        the join point observes bound positional arguments (keywords
        bound, defaults filled) and an empty ``kwargs`` — the AspectJ-like
        normalization documented on ``_scoped_static_source``.
        """
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "1")
        Node = fresh_node()
        scoped = Node()
        seen = []

        class Watch(Aspect):
            @before("execution(Node.render)")
            def note(self, jp):
                seen.append((jp.args, dict(jp.kwargs)))

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Watch(), instances=[scoped]).deployments[0]
        try:
            scoped.render(suffix="!")
            scoped.render()
            assert seen == [(("!",), {}), (("",), {})]
        finally:
            runtime.undeploy(deployment)


class TestScopeObject:
    def test_scope_membership_is_live(self, tier):
        Node = fresh_node()
        a, b = Node(), Node()
        scope = InstanceScope([a])
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], tag("A"), instances=scope).deployments[0]
        try:
            assert a.render() == "A(base)"
            assert b.render() == "base"
            scope.add(b)
            assert b.render() == "A(base)"
            scope.discard(a)
            assert a.render() == "base"
        finally:
            runtime.undeploy(deployment)

    def test_dead_instances_leave_the_scope(self, tier):
        Node = fresh_node()
        a = Node()
        scope = InstanceScope([a])
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], tag("A"), instances=scope).deployments[0]
        try:
            assert len(scope) == 1 and a in scope
            del a
            gc.collect()
            assert len(scope) == 0
            assert scope.instances() == []
            assert Node().render() == "base"
        finally:
            runtime.undeploy(deployment)

    def test_markers_vanish_after_undeploy(self):
        # Codegen tier only: marker dispatch is its optimization.
        Node = fresh_node()
        scoped = Node()
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], tag("A"), instances=[scoped]).deployments[0]
        if getattr(Node.__dict__["render"], "__codegen_source__", None) is None:
            runtime.undeploy(deployment)
            pytest.skip("codegen disabled for this run")
        assert any(k.startswith("_aop_scope_") for k in Node.__dict__)
        assert any(k.startswith("_aop_scope_") for k in vars(scoped))
        runtime.undeploy(deployment)
        assert not any(k.startswith("_aop_scope_") for k in Node.__dict__)
        assert not any(k.startswith("_aop_scope_") for k in vars(scoped))

    def test_pinned_members_are_scoped_too(self, tier):
        """__dict__ without __weakref__: pinned strongly, still dispatched.

        Such instances cannot be weakly referenced but can carry the
        marker, so marker acquisition/release must cover the pinned set
        as well as the weakref set.
        """

        class Node:
            __slots__ = ("__dict__",)

            def render(self):
                return "base"

        scoped, unscoped = Node(), Node()

        class Wrap(Aspect):
            @around("execution(Node.render)")
            def wrap(self, jp):
                return f"W({jp.proceed()})"

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Wrap(), instances=[scoped]).deployments[0]
        try:
            assert scoped.render() == "W(base)"
            assert unscoped.render() == "base"
        finally:
            runtime.undeploy(deployment)
        assert scoped.render() == "base"
        assert not any(k.startswith("_aop_scope_") for k in vars(scoped))

    def test_scoped_fields_gate_on_membership(self, tier):
        class Node:
            def __init__(self):
                self.level = 0

        scoped, unscoped = Node(), Node()
        writes = []

        class FieldWatch(Aspect):
            @before(field_set("Node.level"))
            def on_set(self, jp):
                writes.append(jp.value)

        runtime = WeaverRuntime()
        deployment = runtime.weave(
            [Node], FieldWatch(), fields=["level"], instances=[scoped]
        ).deployments[0]
        try:
            scoped.level = 1
            unscoped.level = 2
            assert writes == [1]
            assert scoped.level == 1 and unscoped.level == 2
        finally:
            runtime.undeploy(deployment)


class TestIntrospection:
    def test_sites_and_stats_report_scopes(self, tier):
        Node = fresh_node()
        scoped = Node()
        runtime = WeaverRuntime()
        scoped_dep = runtime.weave([Node], tag("A"), instances=[scoped]).deployments[0]
        class_dep = runtime.weave([Node], tag("C")).deployments[0]
        try:
            sites = runtime.woven_sites()
            assert {s.scope_instances for s in sites} == {1, None}
            assert all(not s.member.startswith("_aop_scope_") for s in sites)
            assert runtime.deployment_stats(scoped_dep).scope_instances == 1
            assert runtime.deployment_stats(class_dep).scope_instances is None
            assert runtime.stats()["instance_scoped"] == 1
            assert scoped_dep.woven_signatures() == ["Node.render"]
        finally:
            runtime.undeploy(class_dep)
            runtime.undeploy(scoped_dep)
