"""Code-generated `_WovenField` accessors: parity, pooling, escape hatch.

The generic descriptor (``REPRO_AOP_CODEGEN=0``) is the reference; every
semantic case runs under both tiers and must agree — values, advice
ordering, proceed overrides, default fallbacks, exception paths.  What is
codegen-specific (pool reuse, metadata, the watcher slow path) is pinned
directly.
"""

import pytest

from repro.aop import (
    Aspect,
    WeaverRuntime,
    after,
    after_returning,
    after_throwing,
    around,
    before,
    cflow,
    current_stack,
    execution,
    field_get,
    field_set,
)
from repro.aop.weaver import _WovenField

BOTH_TIERS = pytest.mark.parametrize(
    "codegen", [True, False], ids=["codegen", "generic"]
)


@pytest.fixture()
def runtime():
    return WeaverRuntime("field-test")


def fresh_holder(default=None):
    if default is None:

        class Holder:
            def __init__(self):
                self.level = 0

            def poke(self):
                return self.level

    else:

        class Holder:
            level = default

            def poke(self):
                return self.level

    return Holder


def set_codegen(monkeypatch, enabled):
    monkeypatch.setenv("REPRO_AOP_CODEGEN", "1" if enabled else "0")


class TestTierParity:
    @BOTH_TIERS
    def test_before_and_after_on_get_and_set(self, runtime, monkeypatch, codegen):
        set_codegen(monkeypatch, codegen)
        Holder = fresh_holder()
        log = []

        class Observing(Aspect):
            @before(field_get("Holder.level"))
            def before_get(self, jp):
                log.append(("before-get", jp.name))

            @after_returning(field_get("Holder.level"))
            def after_get(self, jp):
                log.append(("after-get", jp.result))

            @before(field_set("Holder.level"))
            def before_set(self, jp):
                log.append(("before-set", jp.value))

            @after(field_set("Holder.level"))
            def after_set(self, jp):
                log.append(("after-set", jp.value))

        deployment = runtime.weave(
            [Holder], Observing(), fields=["level"]
        ).deployments[0]
        holder = Holder()  # __init__ writes 0
        holder.level = 3
        assert holder.level == 3
        runtime.undeploy(deployment)
        assert log == [
            ("before-set", 0),
            ("after-set", 0),
            ("before-set", 3),
            ("after-set", 3),
            ("before-get", "level"),
            ("after-get", 3),
        ]

    @BOTH_TIERS
    def test_around_get_rewrites_result(self, runtime, monkeypatch, codegen):
        set_codegen(monkeypatch, codegen)
        Holder = fresh_holder()

        class Doubling(Aspect):
            @around(field_get("Holder.level"))
            def double(self, jp):
                return jp.proceed() * 2

        deployment = runtime.weave(
            [Holder], Doubling(), fields=["level"]
        ).deployments[0]
        holder = Holder()
        holder.level = 21
        assert holder.level == 42
        runtime.undeploy(deployment)
        assert holder.level == 21

    @BOTH_TIERS
    def test_around_set_proceed_overrides_value(self, runtime, monkeypatch, codegen):
        set_codegen(monkeypatch, codegen)
        Holder = fresh_holder()

        class Clamping(Aspect):
            @around(field_set("Holder.level"))
            def clamp(self, jp):
                return jp.proceed(min(jp.value, 10))

        deployment = runtime.weave(
            [Holder], Clamping(), fields=["level"]
        ).deployments[0]
        holder = Holder()
        holder.level = 99
        assert holder.__dict__["level"] == 10
        holder.level = 5
        assert holder.__dict__["level"] == 5
        runtime.undeploy(deployment)

    @BOTH_TIERS
    def test_nested_arounds_on_set(self, runtime, monkeypatch, codegen):
        set_codegen(monkeypatch, codegen)
        Holder = fresh_holder()
        log = []

        class Stacked(Aspect):
            @around(field_set("Holder.level"), order=-1)
            def outer(self, jp):
                log.append("outer-in")
                result = jp.proceed(jp.value + 1)
                log.append("outer-out")
                return result

            @around(field_set("Holder.level"), order=1)
            def inner(self, jp):
                log.append(("inner", jp.value))
                return jp.proceed()

        deployment = runtime.weave([Holder], Stacked(), fields=["level"]).deployments[0]
        holder = Holder()
        log.clear()
        holder.level = 7
        # outer proceeds with 8, which travels in jp.args (jp.value keeps
        # the original assignment); inner proceeds unchanged, writing 8.
        assert holder.__dict__["level"] == 8
        runtime.undeploy(deployment)
        assert log == ["outer-in", ("inner", 7), "outer-out"]

    @BOTH_TIERS
    def test_missing_attribute_raises_through_advice(
        self, runtime, monkeypatch, codegen
    ):
        set_codegen(monkeypatch, codegen)
        Holder = fresh_holder()
        log = []

        class Observing(Aspect):
            @after_throwing(field_get("Holder.level"))
            def saw(self, jp):
                log.append(type(jp.result).__name__)

            @after(field_get("Holder.level"))
            def always(self, jp):
                log.append("finally")

        deployment = runtime.weave(
            [Holder], Observing(), fields=["level"]
        ).deployments[0]
        holder = Holder.__new__(Holder)  # skip __init__: no instance value
        with pytest.raises(AttributeError, match="no attribute 'level'"):
            holder.level
        runtime.undeploy(deployment)
        assert log == ["AttributeError", "finally"]

    @BOTH_TIERS
    def test_class_default_fallback(self, runtime, monkeypatch, codegen):
        set_codegen(monkeypatch, codegen)
        Holder = fresh_holder(default=17)

        class Observing(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                pass

        deployment = runtime.weave(
            [Holder], Observing(), fields=["level"]
        ).deployments[0]
        holder = Holder()
        assert holder.level == 17  # class default, no instance value yet
        holder.level = 4
        assert holder.level == 4
        runtime.undeploy(deployment)
        assert Holder.level == 17

    @BOTH_TIERS
    def test_get_only_advice_leaves_set_plain(self, runtime, monkeypatch, codegen):
        set_codegen(monkeypatch, codegen)
        Holder = fresh_holder()
        log = []

        class GetOnly(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                log.append("get")

        deployment = runtime.weave([Holder], GetOnly(), fields=["level"]).deployments[0]
        holder = Holder()
        holder.level = 5  # descriptor installed, but no set advice
        assert holder.level == 5
        runtime.undeploy(deployment)
        assert log == ["get"]


class TestCodegenSpecifics:
    def test_generated_descriptor_metadata(self, runtime, monkeypatch):
        set_codegen(monkeypatch, True)
        Holder = fresh_holder()

        class Observing(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                pass

        runtime.weave([Holder], Observing(), fields=["level"])
        descriptor = Holder.__dict__["level"]
        assert isinstance(descriptor, _WovenField)
        assert type(descriptor).__name__ == "_WovenFieldCodegen"
        assert "def __get__(self, obj, objtype=None):" in (
            descriptor.__codegen_source__
        )
        assert set(descriptor.__joinpoint_pools__) == {"get", "set"}
        runtime.undeploy_all()

    def test_escape_hatch_yields_generic_descriptor(self, runtime, monkeypatch):
        set_codegen(monkeypatch, False)
        Holder = fresh_holder()

        class Observing(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                pass

        runtime.weave([Holder], Observing(), fields=["level"])
        descriptor = Holder.__dict__["level"]
        assert type(descriptor) is _WovenField
        assert not hasattr(descriptor, "__codegen_source__")
        runtime.undeploy_all()

    def test_dynamic_residue_fields_stay_generic(self, runtime, monkeypatch):
        set_codegen(monkeypatch, True)
        Holder = fresh_holder()

        class Residued(Aspect):
            @before(field_get("Holder.level") & cflow(execution("Holder.poke")))
            def note(self, jp):
                pass

        runtime.weave([Holder], Residued(), fields=["level"])
        assert type(Holder.__dict__["level"]) is _WovenField
        runtime.undeploy_all()

    def test_pool_reuses_joinpoints_across_accesses(self, runtime, monkeypatch):
        set_codegen(monkeypatch, True)
        Holder = fresh_holder()
        seen = []

        class Observing(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                seen.append(id(jp))

        runtime.weave([Holder], Observing(), fields=["level"])
        holder = Holder()
        holder.level  # noqa: B018 - exercising the descriptor
        holder.level  # noqa: B018
        assert seen[0] == seen[1]  # released blank reused, steady state
        pool = Holder.__dict__["level"].__joinpoint_pools__["get"]
        (blank,) = pool.free
        assert blank.target is None and blank.result is None  # scrubbed
        runtime.undeploy_all()

    def test_watcher_slow_path_pushes_observable_frames(self, runtime, monkeypatch):
        """With a cflow watcher live in the runtime, field access must push
        a frame even through a generated descriptor (the cflow residue of
        another deployment may observe it)."""
        set_codegen(monkeypatch, True)
        Holder = fresh_holder()
        depths = []

        class FieldSpy(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                depths.append(len(current_stack()))

        class Watching(Aspect):
            @before(execution("Holder.poke") & cflow(execution("Holder.poke")))
            def watched(self, jp):
                pass

        runtime.weave([Holder], FieldSpy(), fields=["level"])
        holder = Holder()
        holder.level  # noqa: B018 - no watcher: fast path, no frame
        assert depths == [0]
        watching = runtime.weave([Holder], Watching()).deployments[0]
        holder.poke()  # reads .level inside poke's frame
        assert depths[-1] >= 2  # field frame + enclosing method frame
        runtime.undeploy(watching)
        holder.level  # noqa: B018 - watcher gone: fast path again
        assert depths[-1] == 0
        runtime.undeploy_all()

    def test_reweave_keeps_original_class_default(self, runtime, monkeypatch):
        set_codegen(monkeypatch, True)
        Holder = fresh_holder(default=17)

        class First(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                pass

        class Second(Aspect):
            @before(field_get("Holder.level"))
            def note(self, jp):
                pass

        runtime.weave([Holder], First(), fields=["level"])
        runtime.weave([Holder], Second(), fields=["level"])
        assert Holder().level == 17  # default survived the re-weave
        runtime.undeploy_all()
        assert Holder.level == 17
