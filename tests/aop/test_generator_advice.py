"""Generator-coroutine advice: the aspectlib protocol, on both tiers.

One generator body plays before/around/after at once: ``yield proceed``
runs the original with the join point's arguments, ``yield
proceed(args...)`` runs it with altered ones, ``yield return_(value)``
finishes the advised call, and an exception from the original surfaces
*at the yield*, so one ``try``/``except`` around it expresses retry
loops and exception translation that the split advice kinds need three
cooperating bodies for.

The conformance matrix below is aspectlib's own (``test_aspect_return``,
``test_aspect_raise``, ``test_aspect_return_but_call``, ...), run
against both wrapper tiers.
"""

import pytest

from repro.aop import (
    AopError,
    Aspect,
    WeaverRuntime,
    after_throwing,
    around,
    before,
    execution,
    generator,
    proceed,
    return_,
)
from repro.aop.advice import drive_generator

@pytest.fixture(autouse=True, params=["codegen", "generic"])
def _wrapper_tier(request, monkeypatch):
    monkeypatch.setenv("REPRO_AOP_CODEGEN", "0" if request.param == "generic" else "1")
    return request.param


def fresh_module():
    class Module:
        def hello(self, arg):
            self.calls.append(arg)
            return arg

        def boom(self):
            raise ZeroDivisionError("original exploded")

        calls: list

    Module.calls = []

    def reset():
        Module.calls = []

    Module.reset = staticmethod(reset)
    return Module


class TestConformance:
    """aspectlib's advice-protocol suite, verbatim semantics."""

    def test_aspect_bad_rejected_at_decoration(self):
        with pytest.raises(AopError):

            class Bad(Aspect):
                @generator(execution("Module.hello"))
                def not_a_generator(self, jp):
                    return "stuff"

    def test_non_generator_advisor_at_drive_time(self):
        with pytest.raises(RuntimeError):
            drive_generator("not-a-generator", None)

    def test_aspect_return(self):
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                yield return_

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            assert Module().hello("first") is None
        assert Module.calls == []  # the original never ran
        assert Module().hello("first") == "first"

    def test_aspect_return_value(self):
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                yield return_("stuff")

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            assert Module().hello("first") == "stuff"
        assert Module.calls == []

    def test_aspect_raise(self):
        Module = fresh_module()
        seen = []

        class A(Aspect):
            @generator(execution("Module.boom"))
            def advice_body(self, jp):
                try:
                    yield proceed
                except ZeroDivisionError as exc:
                    seen.append(exc)
                yield return_("stuff")

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            assert Module().boom() == "stuff"
        assert len(seen) == 1
        with pytest.raises(ZeroDivisionError):
            Module().boom()

    def test_aspect_raise_from_aspect(self):
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                raise RuntimeError("aspect refused")
                yield  # pragma: no cover - makes this a generator function

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            with pytest.raises(RuntimeError, match="aspect refused"):
                Module().hello("first")
        assert Module.calls == []  # the original never ran

    def test_aspect_return_but_call(self):
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                assert "first" == (yield proceed)
                assert "second" == (yield proceed("second"))
                yield return_("stuff")

        rt = WeaverRuntime("t")
        instance = Module()
        with rt.weave(Module, A()):
            assert instance.hello("first") == "stuff"
        assert Module.calls == ["first", "second"]

    def test_bare_proceed_result_becomes_return_value(self):
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                result = yield proceed
                yield return_(result.upper())

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            assert Module().hello("first") == "FIRST"

    def test_generator_ends_after_proceed_returns_result(self):
        # StopIteration right after send(result): the advised call
        # returns the original's result unchanged.
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                yield proceed

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            assert Module().hello("first") == "first"
        assert Module.calls == ["first"]

    def test_exception_translation(self):
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.boom"))
            def advice_body(self, jp):
                try:
                    yield proceed
                except ZeroDivisionError as exc:
                    raise LookupError("translated") from exc

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            with pytest.raises(LookupError, match="translated"):
                Module().boom()

    def test_garbage_yield_raises(self):
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                yield "garbage"

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            with pytest.raises(RuntimeError, match="yielded"):
                Module().hello("first")


class TestRetryAndStacking:
    def test_retry_loop_in_one_body(self):
        class Flaky:
            failures = 2

            def fetch(self):
                if Flaky.failures:
                    Flaky.failures -= 1
                    raise ConnectionError("transient")
                return "payload"

        attempts = []

        class Retry(Aspect):
            @generator(execution("Flaky.fetch"))
            def retry(self, jp):
                for attempt in range(3):
                    attempts.append(attempt)
                    try:
                        result = yield proceed
                    except ConnectionError:
                        continue
                    yield return_(result)

        rt = WeaverRuntime("t")
        with rt.weave(Flaky, Retry()):
            assert Flaky().fetch() == "payload"
        assert attempts == [0, 1, 2]

    def test_generator_stacks_with_split_kinds(self):
        Module = fresh_module()
        order = []

        class Split(Aspect):
            @before(execution("Module.hello"))
            def first(self, jp):
                order.append("before")

            @generator(execution("Module.hello"), order=1)
            def second(self, jp):
                order.append("gen-in")
                result = yield proceed
                order.append("gen-out")
                yield return_(result)

            @around(execution("Module.hello"), order=2)
            def third(self, jp):
                order.append("around-in")
                result = jp.proceed()
                order.append("around-out")
                return result

        rt = WeaverRuntime("t")
        with rt.weave(Module, Split()):
            assert Module().hello("x") == "x"
        assert order == ["before", "gen-in", "around-in", "around-out", "gen-out"]

    def test_parity_with_equivalent_split_stack(self):
        """The one-body generator == the around+after_throwing pair."""

        def run(aspect_factory):
            Module = fresh_module()
            log = []
            rt = WeaverRuntime("t")
            with rt.weave(Module, aspect_factory(log)):
                ok = Module().hello("first")
                try:
                    Module().boom()
                    raised = None
                except Exception as exc:  # noqa: BLE001 - parity capture
                    raised = type(exc).__name__
            return ok, raised, log, Module.calls

        def gen_aspect(log):
            class G(Aspect):
                @generator(execution("Module.*"))
                def body(self, jp):
                    log.append(f"in:{jp.name}")
                    try:
                        result = yield proceed
                    except ZeroDivisionError:
                        log.append(f"err:{jp.name}")
                        raise LookupError("translated")
                    log.append(f"out:{jp.name}")
                    yield return_(result)

            return G()

        def split_aspect(log):
            class S(Aspect):
                @around(execution("Module.*"))
                def body(self, jp):
                    log.append(f"in:{jp.name}")
                    try:
                        result = jp.proceed()
                    except ZeroDivisionError:
                        log.append(f"err:{jp.name}")
                        raise LookupError("translated")
                    log.append(f"out:{jp.name}")
                    return result

            return S()

        assert run(gen_aspect) == run(split_aspect)


class TestCodegenInlining:
    def test_drive_loop_is_inlined(self, _wrapper_tier):
        if _wrapper_tier == "generic":
            pytest.skip("generated sources exist only under codegen")
        Module = fresh_module()

        class A(Aspect):
            @generator(execution("Module.hello"))
            def advice_body(self, jp):
                result = yield proceed
                yield return_(result)

        rt = WeaverRuntime("t")
        with rt.weave(Module, A()):
            source = Module.hello.__codegen_source__
            assert "_gen.send" in source
            assert "_gen.throw" in source
            assert "StopIteration" in source
            # behavior through the generated drive loop
            assert Module().hello("x") == "x"

    def test_fluent_builder_generator(self):
        Module = fresh_module()
        from repro.aop import AspectBuilder

        def body(jp):
            result = yield proceed
            yield return_((result, "fluent"))

        aspect = AspectBuilder("Fluent").generator(
            execution("Module.hello"), body
        ).build()
        rt = WeaverRuntime("t")
        with rt.weave(Module, aspect):
            assert Module().hello("x") == ("x", "fluent")

    def test_after_throwing_still_sees_translated_exception(self):
        Module = fresh_module()
        seen = []

        class Observe(Aspect):
            @after_throwing(execution("Module.boom"))
            def saw(self, jp):
                seen.append(type(jp.result).__name__)

        class Translate(Aspect):
            @generator(execution("Module.boom"), order=1)
            def body(self, jp):
                try:
                    yield proceed
                except ZeroDivisionError:
                    raise KeyError("translated")

        rt = WeaverRuntime("t")
        # Later deployments wrap earlier ones: the observer must deploy
        # second to sit outside the translating generator.
        with rt.weave(Module, Translate()):
            with rt.weave(Module, Observe()):
                with pytest.raises(KeyError):
                    Module().boom()
        assert seen == ["KeyError"]
