"""The fluent construction layer: Aspect.builder() and pointcut operators."""

import pytest

from repro.aop import (
    AopError,
    Aspect,
    FluentAspect,
    JoinPointKind,
    WeaverRuntime,
    WeavingError,
    execution,
    target,
    within,
)

EXEC = JoinPointKind.METHOD_EXECUTION


def fresh_node():
    class Node:
        def render(self):
            return "content"

        def as_html(self):
            return "<html>"

    return Node


class TestAspectBuilder:
    def test_before_and_after_without_subclassing(self):
        Node = fresh_node()
        log = []
        aspect = (
            Aspect.builder("Tracing")
            .before("execution(Node.render)", lambda jp: log.append("before"))
            .after("execution(Node.render)", lambda jp: log.append("after"))
            .build()
        )
        runtime = WeaverRuntime()
        with runtime.transaction([Node]) as tx:
            tx.add(aspect)
            assert Node().render() == "content"
            tx.undeploy()
        assert log == ["before", "after"]

    def test_around_advice_proceeds(self):
        Node = fresh_node()
        aspect = (
            Aspect.builder("Decorating")
            .around(execution("Node.render"), lambda jp: f"[{jp.proceed()}]")
            .build()
        )
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], aspect).deployments[0]
        assert Node().render() == "[content]"
        runtime.undeploy(deployment)

    def test_builder_name_shows_in_weaver_errors(self):
        Node = fresh_node()
        aspect = (
            Aspect.builder("MisspelledPointcut")
            .before("execution(Nothing.at_all)", lambda jp: None)
            .build()
        )
        assert type(aspect).__name__ == "MisspelledPointcut"
        assert isinstance(aspect, FluentAspect)
        runtime = WeaverRuntime()
        with pytest.raises(WeavingError, match="MisspelledPointcut matched nothing"):
            runtime.weave([Node], aspect)

    def test_builder_order_controls_nesting(self):
        Node = fresh_node()
        log = []
        outer = (
            Aspect.builder("Outer", order=-10)
            .before("execution(Node.render)", lambda jp: log.append("outer"))
            .build()
        )
        inner = (
            Aspect.builder("Inner", order=10)
            .before("execution(Node.render)", lambda jp: log.append("inner"))
            .build()
        )
        runtime = WeaverRuntime()
        with runtime.transaction([Node]) as tx:
            # Deployed inner-first, but `order` decides precedence within
            # one deployment's chain; deploy both in one aspect to check.
            tx.add(outer)
            tx.add(inner)
            Node().render()
            tx.undeploy()
        # Two stacked deployments: later wraps earlier regardless of order.
        assert log == ["inner", "outer"]
        log.clear()
        combined = (
            Aspect.builder("Combined")
            .before("execution(Node.render)", lambda jp: log.append("late"), order=10)
            .before("execution(Node.render)", lambda jp: log.append("early"), order=-1)
            .build()
        )
        with WeaverRuntime().transaction([Node]) as tx:
            tx.add(combined)
            Node().render()
            tx.undeploy()
        assert log == ["early", "late"]

    def test_builder_introduce_and_declare_error(self):
        Node = fresh_node()
        grafting = (
            Aspect.builder("Grafting")
            .introduce("Node", "kind", lambda self: "grafted")
            .build()
        )
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], grafting, require_match=False).deployments[0]
        assert Node().kind() == "grafted"
        runtime.undeploy(deployment)
        assert not hasattr(Node, "kind")

        policing = (
            Aspect.builder("Policing")
            .declare_error("execution(*.as_html)", "no html builders here")
            .build()
        )
        with pytest.raises(WeavingError, match="no html builders"):
            WeaverRuntime().weave([Node], policing, require_match=False)

    def test_builder_types_environment(self):
        Node = fresh_node()
        log = []
        aspect = (
            Aspect.builder("Typed", types={"Node": Node})
            .before("execution(Node.render) && target(Node)", lambda jp: log.append(1))
            .build()
        )
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], aspect).deployments[0]
        Node().render()
        runtime.undeploy(deployment)
        assert log == [1]

    def test_empty_builder_fails_validation(self):
        aspect = Aspect.builder("Empty").build()
        with pytest.raises(AopError, match="declares no advice"):
            WeaverRuntime().weave([fresh_node()], aspect)

    def test_after_returning_and_throwing(self):
        class Flaky:
            def op(self, fail):
                if fail:
                    raise KeyError("nope")
                return "fine"

        log = []
        aspect = (
            Aspect.builder("Observing")
            .after_returning("execution(Flaky.op)", lambda jp: log.append(jp.result))
            .after_throwing(
                "execution(Flaky.op)", lambda jp: log.append(type(jp.result).__name__)
            )
            .build()
        )
        runtime = WeaverRuntime()
        deployment = runtime.weave([Flaky], aspect).deployments[0]
        assert Flaky().op(False) == "fine"
        with pytest.raises(KeyError):
            Flaky().op(True)
        runtime.undeploy(deployment)
        assert log == ["fine", "KeyError"]


class TestPointcutOperatorCoercion:
    def test_and_with_string_operand(self):
        pc = execution("Node.render") & "within(Node)"
        assert pc.matches_shadow(fresh_node(), "render", EXEC)

    def test_rand_with_string_operand(self):
        Node = fresh_node()
        pc = "within(Node)" & execution("*.render")
        assert pc.matches_shadow(Node, "render", EXEC)
        assert not pc.matches_shadow(Node, "as_html", EXEC)

    def test_or_with_string_operand(self):
        Node = fresh_node()
        pc = execution("Node.render") | "execution(Node.as_html)"
        assert pc.matches_shadow(Node, "render", EXEC)
        assert pc.matches_shadow(Node, "as_html", EXEC)
        pc2 = "execution(Node.render)" | execution("Node.as_html")
        assert pc2.matches_shadow(Node, "render", EXEC)

    def test_composed_pointcut_deploys(self):
        Node = fresh_node()
        log = []
        aspect = (
            Aspect.builder("Composed")
            .before(
                (execution("Node.render") | "execution(Node.as_html)")
                & ~within("Unrelated*"),
                lambda jp: log.append(jp.name),
            )
            .build()
        )
        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], aspect).deployments[0]
        node = Node()
        node.render()
        node.as_html()
        runtime.undeploy(deployment)
        assert log == ["render", "as_html"]

    def test_invalid_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            execution("Node.render") & 5
        with pytest.raises(TypeError):
            execution("Node.render") | object()

    def test_target_still_needs_real_types(self):
        Node = fresh_node()
        pc = execution("Node.render") & target(Node)
        assert pc.matches_shadow(Node, "render", EXEC)


class TestBuilderOrderResolution:
    def test_explicit_order_zero_is_not_remapped(self):
        """Regression: order=0 pinned on an order=10 aspect must stay 0."""
        aspect = (
            Aspect.builder("Pinned", order=10)
            .before("execution(Node.render)", lambda jp: None, order=0)
            .before("execution(Node.render)", lambda jp: None)
            .build()
        )
        orders = [a.order for a in aspect.advice()]
        assert orders == [0, 10]
