"""Tests for the runtime weaver: advice kinds, ordering, fields, undeploy."""

import pytest

from repro.aop import (
    Aspect,
    Introduction,
    IntroductionError,
    WeaverRuntime,
    WeavingError,
    after,
    after_returning,
    after_throwing,
    around,
    before,
    default_runtime,
)


def fresh_classes():
    """Each test weaves into its own classes to avoid cross-test bleed."""

    class Account:
        def __init__(self, balance=0):
            self.balance = balance

        def deposit(self, amount):
            self.balance = self.balance + amount
            return self.balance

        def withdraw(self, amount):
            if amount > self.balance:
                raise ValueError("insufficient funds")
            self.balance = self.balance - amount
            return self.balance

    class Savings(Account):
        def deposit(self, amount):
            return super().deposit(amount)

    return Account, Savings


class TestAdviceKinds:
    def test_before_runs_first(self):
        Account, _ = fresh_classes()
        log = []

        class A(Aspect):
            @before("execution(Account.deposit)")
            def note(self, jp):
                log.append(("before", jp.args[0]))

        with default_runtime.weave([Account], A()):
            Account().deposit(10)
        assert log == [("before", 10)]

    def test_after_returning_sees_result(self):
        Account, _ = fresh_classes()
        seen = []

        class A(Aspect):
            @after_returning("execution(Account.deposit)")
            def note(self, jp):
                seen.append(jp.result)

        with default_runtime.weave([Account], A()):
            Account(5).deposit(10)
        assert seen == [15]

    def test_after_throwing_sees_exception(self):
        Account, _ = fresh_classes()
        seen = []

        class A(Aspect):
            @after_throwing("execution(Account.withdraw)")
            def note(self, jp):
                seen.append(type(jp.result).__name__)

        with default_runtime.weave([Account], A()):
            with pytest.raises(ValueError):
                Account(0).withdraw(10)
        assert seen == ["ValueError"]

    def test_after_throwing_not_run_on_success(self):
        Account, _ = fresh_classes()
        seen = []

        class A(Aspect):
            @after_throwing("execution(Account.deposit)")
            def note(self, jp):
                seen.append("threw")

        with default_runtime.weave([Account], A()):
            Account().deposit(1)
        assert seen == []

    def test_after_finally_runs_both_ways(self):
        Account, _ = fresh_classes()
        seen = []

        class A(Aspect):
            @after("execution(Account.*)")
            def note(self, jp):
                seen.append(jp.name)

        with default_runtime.weave([Account], A()):
            account = Account(10)
            account.deposit(1)
            with pytest.raises(ValueError):
                account.withdraw(100)
        assert seen == ["deposit", "withdraw"]

    def test_around_can_replace_result(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @around("execution(Account.deposit)")
            def double(self, jp):
                return jp.proceed() * 2

        with default_runtime.weave([Account], A()):
            assert Account(0).deposit(10) == 20

    def test_around_can_rewrite_arguments(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @around("execution(Account.deposit)")
            def cap(self, jp):
                (amount,) = jp.args
                return jp.proceed(min(amount, 100))

        with default_runtime.weave([Account], A()):
            assert Account(0).deposit(1000) == 100

    def test_around_can_skip_proceed(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @around("execution(Account.withdraw)")
            def deny(self, jp):
                return "denied"

        with default_runtime.weave([Account], A()):
            account = Account(100)
            assert account.withdraw(10) == "denied"
            assert account.balance == 100  # original never ran


class TestOrderingAndPrecedence:
    def test_declaration_order_within_one_aspect(self):
        Account, _ = fresh_classes()
        log = []

        class A(Aspect):
            @before("execution(Account.deposit)")
            def first(self, jp):
                log.append("first")

            @before("execution(Account.deposit)")
            def second(self, jp):
                log.append("second")

        with default_runtime.weave([Account], A()):
            Account().deposit(1)
        assert log == ["first", "second"]

    def test_aspect_order_controls_precedence(self):
        Account, _ = fresh_classes()
        log = []

        def make(tag, order_value):
            class A(Aspect):
                order = order_value

                @around("execution(Account.deposit)")
                def wrap(self, jp, _tag=tag):
                    log.append(f"enter:{_tag}")
                    result = jp.proceed()
                    log.append(f"exit:{_tag}")
                    return result

            return A()

        weaver = WeaverRuntime()
        inner = weaver.weave([Account], make("inner", 20)).deployments[0]
        outer = weaver.weave([Account], make("outer", 10)).deployments[0]
        Account().deposit(1)
        weaver.undeploy(outer)
        weaver.undeploy(inner)
        # Separate deployments nest by deployment order (LIFO), each one
        # wrapping whatever was there before.
        assert log == ["enter:outer", "enter:inner", "exit:inner", "exit:outer"]

    def test_order_sorts_advice_within_one_deployment(self):
        Account, _ = fresh_classes()
        log = []

        class A(Aspect):
            @before("execution(Account.deposit)", order=5)
            def later(self, jp):
                log.append("later")

            @before("execution(Account.deposit)", order=-5)
            def earlier(self, jp):
                log.append("earlier")

        with default_runtime.weave([Account], A()):
            Account().deposit(1)
        assert log == ["earlier", "later"]

    def test_after_advice_runs_in_reverse_order(self):
        Account, _ = fresh_classes()
        log = []

        class A(Aspect):
            @after_returning("execution(Account.deposit)", order=1)
            def outer(self, jp):
                log.append("outer")

            @after_returning("execution(Account.deposit)", order=2)
            def inner(self, jp):
                log.append("inner")

        with default_runtime.weave([Account], A()):
            Account().deposit(1)
        assert log == ["inner", "outer"]


class TestInheritance:
    def test_subclass_instances_hit_base_pattern(self):
        Account, Savings = fresh_classes()
        log = []

        class A(Aspect):
            @before("execution(Account.deposit)")
            def note(self, jp):
                log.append(type(jp.target).__name__)

        with default_runtime.weave([Account, Savings], A()):
            Savings().deposit(1)
        # Savings.deposit calls super().deposit(); both woven shadows fire
        # but each advice observes the Savings instance.
        assert log == ["Savings", "Savings"]

    def test_inherited_method_woven_as_override(self):
        Account, Savings = fresh_classes()
        log = []

        class A(Aspect):
            @before("execution(Savings.withdraw)")
            def note(self, jp):
                log.append("withdraw")

        with default_runtime.weave([Savings], A()):
            Savings(10).withdraw(5)
            Account(10).withdraw(5)  # base class untouched
        assert log == ["withdraw"]
        assert "withdraw" not in Savings.__dict__  # restored after undeploy


class TestFields:
    def test_field_get_and_set_advice(self):
        Account, _ = fresh_classes()
        events = []

        class A(Aspect):
            @before("set(Account.balance)")
            def on_set(self, jp):
                events.append(("set", jp.value))

            @before("get(Account.balance)")
            def on_get(self, jp):
                events.append(("get", None))

        with default_runtime.weave([Account], A(), fields={"balance"}):
            account = Account(1)     # __init__ sets balance
            account.deposit(2)       # get + set + get (the return reads it)
        assert events == [("set", 1), ("get", None), ("set", 3), ("get", None)]

    def test_around_set_can_veto_by_rewriting(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @around("set(Account.balance)")
            def clamp(self, jp):
                return jp.proceed(max(jp.value, 0))

        with default_runtime.weave([Account], A(), fields={"balance"}):
            account = Account(5)
            account.balance = -10
            assert account.balance == 0

    def test_field_values_survive_undeploy(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @before("set(Account.balance)")
            def noop(self, jp):
                pass

        with default_runtime.weave([Account], A(), fields={"balance"}):
            account = Account(0)
            account.balance = 42
        assert account.balance == 42
        assert "balance" not in Account.__dict__

    def test_unmatched_fields_not_intercepted(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @before("set(Account.balance)")
            def noop(self, jp):
                pass

        with default_runtime.weave([Account], A(), fields={"balance", "unrelated"}):
            assert "unrelated" not in Account.__dict__


class TestIntroductions:
    def test_member_added_and_removed(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            def introductions(self):
                return [Introduction("Account", "as_anchor", lambda self: f"#acct")]

        with default_runtime.weave([Account], A()):
            assert Account(0).as_anchor() == "#acct"
        assert not hasattr(Account, "as_anchor")

    def test_conflicting_introduction_rejected(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            def introductions(self):
                return [Introduction("Account", "deposit", lambda self: None)]

        with pytest.raises(IntroductionError):
            WeaverRuntime().weave([Account], A())

    def test_replace_allows_override_and_restores(self):
        Account, _ = fresh_classes()
        original = Account.deposit

        class A(Aspect):
            def introductions(self):
                return [
                    Introduction(
                        "Account",
                        "deposit",
                        lambda self, amount: "replaced",
                        replace=True,
                    )
                ]

        with default_runtime.weave([Account], A()):
            assert Account(0).deposit(1) == "replaced"
        assert Account.deposit is original


class TestDeploymentLifecycle:
    def test_undeploy_restores_exact_function(self):
        Account, _ = fresh_classes()
        original = Account.__dict__["deposit"]

        class A(Aspect):
            @before("execution(Account.deposit)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        deployment = weaver.weave([Account], A()).deployments[0]
        assert Account.__dict__["deposit"] is not original
        weaver.undeploy(deployment)
        assert Account.__dict__["deposit"] is original

    def test_double_undeploy_is_idempotent(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @before("execution(Account.deposit)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        deployment = weaver.weave([Account], A()).deployments[0]
        weaver.undeploy(deployment)
        weaver.undeploy(deployment)  # no error

    def test_out_of_order_undeploy_rejected(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @before("execution(Account.deposit)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        first = weaver.weave([Account], A()).deployments[0]
        weaver.weave([Account], A())
        with pytest.raises(WeavingError):
            weaver.undeploy(first)

    def test_undeploy_all_unwinds_lifo(self):
        Account, _ = fresh_classes()
        original = Account.__dict__["deposit"]

        class A(Aspect):
            @before("execution(Account.deposit)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        weaver.weave([Account], A())
        weaver.weave([Account], A())
        weaver.undeploy_all()
        assert Account.__dict__["deposit"] is original
        assert weaver.deployments == []

    def test_matching_nothing_raises(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @before("execution(Ghost.nothing)")
            def noop(self, jp):
                pass

        with pytest.raises(WeavingError):
            WeaverRuntime().weave([Account], A())

    def test_matching_nothing_tolerated_when_asked(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @before("execution(Ghost.nothing)")
            def noop(self, jp):
                pass

        handle = WeaverRuntime().weave([Account], A(), require_match=False)
        deployment = handle.deployments[0]
        assert deployment.members == []

    def test_aspect_without_advice_rejected(self):
        Account, _ = fresh_classes()

        class Empty(Aspect):
            pass

        with pytest.raises(Exception):
            WeaverRuntime().weave([Account], Empty())

    def test_woven_signatures_reported(self):
        Account, _ = fresh_classes()

        class A(Aspect):
            @before("execution(Account.*)")
            def noop(self, jp):
                pass

        weaver = WeaverRuntime()
        deployment = weaver.weave([Account], A()).deployments[0]
        assert deployment.woven_signatures() == ["Account.deposit", "Account.withdraw"]
        weaver.undeploy_all()


class TestDynamicResidues:
    def test_cflow_limits_advice_to_nested_calls(self):
        log = []

        class Report:
            def summary(self):
                return self.line()

            def line(self):
                return "line"

        class A(Aspect):
            @before("execution(Report.line) && cflowbelow(execution(Report.summary))")
            def note(self, jp):
                log.append("nested")

        with default_runtime.weave([Report], A()):
            report = Report()
            report.line()      # not within summary: no advice
            report.summary()   # line() within summary: advice
        assert log == ["nested"]

    def test_target_residue(self):
        Account, Savings = fresh_classes()
        log = []

        class A(Aspect):
            @before("execution(Account.deposit)", types={"Savings": Savings})
            def note(self, jp):
                log.append("any")

        class B(Aspect):
            @before(
                "execution(Account.deposit) && target(Savings)",
                types={"Savings": Savings},
            )
            def note(self, jp):
                log.append("savings-only")

        with default_runtime.weave(Account, A()), default_runtime.weave(Account, B()):
            Account().deposit(1)
        assert log == ["any"]


class TestDeclareError:
    def test_forbidden_shape_blocks_deployment(self):
        from repro.aop import declare_error

        Account, _ = fresh_classes()

        class Policy(Aspect):
            def declarations(self):
                return [
                    declare_error(
                        "execution(Account.withdraw)",
                        "withdrawals are forbidden in this build",
                    )
                ]

        with pytest.raises(WeavingError) as info:
            WeaverRuntime().weave([Account], Policy())
        assert "forbidden" in str(info.value)
        assert "Account.withdraw" in str(info.value)

    def test_clean_targets_deploy_fine(self):
        from repro.aop import declare_error

        Account, _ = fresh_classes()

        class Policy(Aspect):
            def declarations(self):
                return [declare_error("execution(*.render_anchor)", "no inline nav")]

        weaver = WeaverRuntime()
        handle = weaver.weave([Account], Policy(), require_match=False)
        weaver.undeploy(handle.deployments[0])

    def test_declaration_only_aspect_is_valid(self):
        from repro.aop import declare_error

        Account, _ = fresh_classes()

        class Policy(Aspect):
            def declarations(self):
                return [declare_error("execution(*.nothing_here)", "x")]

        # validate() accepts an aspect with declarations but no advice.
        Policy().validate()
        WeaverRuntime().weave([Account], Policy(), require_match=False)
