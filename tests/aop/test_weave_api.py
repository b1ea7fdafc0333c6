"""The unified ``weave()`` surface.

``runtime.weave(target, aspect)`` is the one entry point for deployment:
it accepts a class, a module, a module-level function, or a list mixing
all three, and returns a context-managed :class:`~repro.aop.Weave`
handle — ``with`` gives aspectlib-style scoped weaving (exception ⇒
rollback), ``.undeploy()`` reverses it imperatively.
"""

import sys
import types

import pytest

from repro.aop import (
    Aspect,
    WeaverRuntime,
    WeavingError,
    before,
    execution,
)


def fresh_renderer():
    class Renderer:
        def render(self):
            return "page"

        def index(self):
            return "index"

    return Renderer


def observing_aspect(log, pattern):
    class Observer(Aspect):
        @before(execution(pattern))
        def observe(self, jp):
            log.append(jp.signature)

    return Observer()


def synthetic_module(name="weavemod"):
    module = types.ModuleType(name)
    namespace = {"__name__": name}
    exec("def fn(x):\n    return x + 1\n", namespace)
    module.fn = namespace["fn"]
    return module


class TestPolymorphicTargets:
    def test_class_target(self):
        Renderer = fresh_renderer()
        log = []
        rt = WeaverRuntime("t")
        with rt.weave(Renderer, observing_aspect(log, "Renderer.render")):
            Renderer().render()
        assert log == ["Renderer.render"]

    def test_module_target(self):
        module = synthetic_module()
        log = []
        rt = WeaverRuntime("t")
        with rt.weave(module, observing_aspect(log, "weavemod.fn")):
            assert module.fn(1) == 2
        assert log == ["weavemod.fn"]

    def test_function_target(self):
        module = synthetic_module()
        sys.modules[module.__name__] = module
        try:
            log = []
            rt = WeaverRuntime("t")
            with rt.weave(module.fn, observing_aspect(log, "weavemod.fn")):
                module.fn(1)
            assert log == ["weavemod.fn"]
        finally:
            del sys.modules[module.__name__]

    def test_mixed_list_target(self):
        Renderer = fresh_renderer()
        module = synthetic_module()
        log = []
        rt = WeaverRuntime("t")
        aspect = observing_aspect(log, "*.render")
        with rt.weave([Renderer, module], aspect, require_match=False):
            Renderer().render()
            module.fn(0)
        assert log == ["Renderer.render"]

    def test_unsupported_target_raises(self):
        rt = WeaverRuntime("t")
        with pytest.raises(WeavingError, match="target"):
            rt.weave(42, observing_aspect([], "*.render"))

    def test_function_target_with_instances_rejected(self):
        module = synthetic_module()
        sys.modules[module.__name__] = module
        try:
            rt = WeaverRuntime("t")
            with pytest.raises(WeavingError):
                rt.weave(
                    module.fn,
                    observing_aspect([], "weavemod.fn"),
                    instances=[object()],
                )
        finally:
            del sys.modules[module.__name__]

    def test_require_match_failure_deploys_nothing(self):
        Renderer = fresh_renderer()
        rt = WeaverRuntime("t")
        with pytest.raises(WeavingError):
            rt.weave(Renderer, observing_aspect([], "Nothing.matches"))
        assert rt.deployments == []
        assert rt.woven_sites() == []


class TestWeaveHandle:
    def test_context_exit_undeploys(self):
        Renderer = fresh_renderer()
        original = Renderer.__dict__["render"]
        rt = WeaverRuntime("t")
        with rt.weave(Renderer, observing_aspect([], "Renderer.render")) as handle:
            assert handle.active
            assert Renderer.__dict__["render"] is not original
        assert Renderer.__dict__["render"] is original
        assert not handle.active

    def test_exception_in_block_rolls_back(self):
        Renderer = fresh_renderer()
        original = Renderer.__dict__["render"]
        rt = WeaverRuntime("t")
        with pytest.raises(ValueError, match="boom"):
            with rt.weave(Renderer, observing_aspect([], "Renderer.render")):
                raise ValueError("boom")
        assert Renderer.__dict__["render"] is original

    def test_imperative_undeploy(self):
        Renderer = fresh_renderer()
        original = Renderer.__dict__["render"]
        rt = WeaverRuntime("t")
        handle = rt.weave(Renderer, observing_aspect([], "Renderer.render"))
        assert handle.deployments and all(d.active for d in handle.deployments)
        handle.undeploy()
        assert Renderer.__dict__["render"] is original

    def test_repr_mentions_state(self):
        Renderer = fresh_renderer()
        rt = WeaverRuntime("t")
        handle = rt.weave(Renderer, observing_aspect([], "Renderer.render"))
        assert "1 deployment(s)" in repr(handle)
        handle.undeploy()


class TestLintThreading:
    def test_weave_forwards_lint_and_apl008_fires(self):
        from repro.aop import AopLintWarning, generator, return_

        Renderer = fresh_renderer()
        rt = WeaverRuntime("t")

        class NeverProceeds(Aspect):
            @generator(execution("Renderer.render"))
            def stub(self, jp):
                yield return_("stubbed")

        with pytest.warns(AopLintWarning, match="APL008"):
            handle = rt.weave(Renderer, NeverProceeds(), lint="warn")
        with handle:
            # The stub weaves anyway: every call returns its return_ value.
            assert Renderer().render() == "stubbed"
        assert Renderer().render() == "page"
