"""Module-level function weaving: scan, weave, rollback, introspection.

``ModuleShadow`` extends the weaver's target universe beyond classes:
module-level functions are shadows too, woven by rebinding the module
global and restored — transactionally — to the exact original function
object.  The suite covers the new target kind end to end (pointcut
matching against dotted module names, ``DeploymentSet`` rollback,
``woven_sites``/``stats`` introspection) and exercises the paper
workload: tracing and retry over ``xmlcore`` parsing and ``xlink``
resolution.
"""

import sys
import types

import pytest

import repro.xlink.resolver as resolver_mod
import repro.xmlcore.parser as parser_mod
from repro.aop import (
    Aspect,
    ModuleShadow,
    WeaverRuntime,
    WeavingError,
    before,
    execution,
    generator,
    module_shadows,
    proceed,
    return_,
)
from repro.xmlcore.errors import XmlSyntaxError

@pytest.fixture(autouse=True, params=["codegen", "generic"])
def _wrapper_tier(request, monkeypatch):
    monkeypatch.setenv("REPRO_AOP_CODEGEN", "0" if request.param == "generic" else "1")
    return request.param


def synthetic_module(name="synthmod"):
    module = types.ModuleType(name)
    namespace = {"__name__": name}
    exec(
        "def double(x):\n"
        "    return x * 2\n"
        "def shout(text):\n"
        "    return text.upper()\n"
        "def _private(x):\n"
        "    return x\n",
        namespace,
    )
    for key, value in namespace.items():
        setattr(module, key, value)
    return module


class TestScan:
    def test_module_shadows_enumerates_public_functions(self):
        module = synthetic_module()
        shadows = module_shadows(module)
        assert [s.name for s in shadows] == ["double", "shout"]
        assert all(isinstance(s, ModuleShadow) for s in shadows)
        assert shadows[0].original is module.double
        assert shadows[0].cls is module

    def test_foreign_functions_are_not_shadows(self):
        module = synthetic_module()
        module.imported = len  # a builtin bound into the namespace
        assert "imported" not in [s.name for s in module_shadows(module)]


class TestPointcutMatching:
    @pytest.mark.parametrize(
        "pattern",
        [
            "synthmod.double",       # last module segment
            "*.double",              # any module
        ],
    )
    def test_execution_patterns_match_module_functions(self, pattern):
        module = synthetic_module()
        woven = []

        class A(Aspect):
            @before(execution(pattern))
            def observe(self, jp):
                woven.append((jp.cls.__name__, jp.name, jp.target))

        rt = WeaverRuntime("t")
        with rt.weave(module, A()):
            assert module.double(3) == 6
            assert module.shout("hi") == "HI"  # not advised
        assert woven == [("synthmod", "double", None)]

    def test_fully_dotted_pattern(self):
        woven = []

        class A(Aspect):
            @before(execution("repro.xlink.resolver.resolve_uri"))
            def observe(self, jp):
                woven.append(jp.args)

        rt = WeaverRuntime("t")
        with rt.weave(resolver_mod, A()):
            resolver_mod.resolve_uri("a/b.xml", "c.xml")
        assert woven == [("a/b.xml", "c.xml")]


class TestWeaveAndRestore:
    def test_weave_rebinds_and_undeploy_restores_identity(self):
        module = synthetic_module()
        original = module.double

        class A(Aspect):
            @before(execution("synthmod.double"))
            def observe(self, jp):
                pass

        rt = WeaverRuntime("t")
        handle = rt.weave(module, A())
        assert module.double is not original
        assert module.double.__woven__ is True
        assert module.double(2) == 4
        handle.undeploy()
        assert module.double is original

    def test_members_restriction_via_function_target(self):
        module = synthetic_module()
        sys.modules[module.__name__] = module
        try:
            original_shout = module.shout

            class A(Aspect):
                @before(execution("synthmod.*"))
                def observe(self, jp):
                    pass

            rt = WeaverRuntime("t")
            # Function target: only that function is woven even though
            # the pointcut matches every public function in the module.
            with rt.weave(module.double, A()):
                assert module.shout is original_shout
                assert module.double.__woven__ is True
        finally:
            del sys.modules[module.__name__]

    def test_transaction_rollback_restores_module_global(self):
        module = synthetic_module()
        original = module.double

        class A(Aspect):
            @before(execution("synthmod.double"))
            def observe(self, jp):
                pass

        rt = WeaverRuntime("t")
        with pytest.raises(RuntimeError, match="mid-flight"):
            with rt.transaction([module]) as tx:
                tx.add(A())
                assert module.double is not original
                raise RuntimeError("mid-flight")
        assert module.double is original
        assert rt.deployments == []

    def test_mixed_class_and_module_transaction_rolls_back_both(self):
        module = synthetic_module()

        class Renderer:
            def render(self):
                return "page"

        original_fn = module.double
        original_method = Renderer.__dict__["render"]

        class A(Aspect):
            @before(execution("synthmod.double") | execution("Renderer.render"))
            def observe(self, jp):
                pass

        rt = WeaverRuntime("t")
        with pytest.raises(RuntimeError):
            with rt.transaction([module, Renderer]) as tx:
                tx.add(A())
                assert module.double is not original_fn
                assert Renderer.__dict__["render"] is not original_method
                raise RuntimeError("abort")
        assert module.double is original_fn
        assert Renderer.__dict__["render"] is original_method

    def test_instances_scope_rejected_for_module_targets(self):
        module = synthetic_module()

        class A(Aspect):
            @before(execution("synthmod.double"))
            def observe(self, jp):
                pass

        rt = WeaverRuntime("t")
        with pytest.raises(WeavingError, match="instance"):
            rt._deploy(A(), [module], instances=[object()])


class TestIntrospection:
    def test_woven_sites_report_dotted_signatures(self):
        module = synthetic_module()

        class A(Aspect):
            @before(execution("synthmod.*"))
            def observe(self, jp):
                pass

        rt = WeaverRuntime("t")
        with rt.weave(module, A()):
            signatures = [site.signature for site in rt.woven_sites()]
            assert signatures == ["synthmod.double", "synthmod.shout"]
            tiers = {site.tier for site in rt.woven_sites()}
            assert tiers <= {"codegen", "generic"}
        assert rt.woven_sites() == []

    def test_stats_count_module_sites(self):
        module = synthetic_module()

        class A(Aspect):
            @before(execution("synthmod.double"))
            def observe(self, jp):
                pass

        rt = WeaverRuntime("t")
        with rt.weave(module, A()):
            stats = rt.stats()
            assert stats["woven_sites"] == 1
            assert sum(stats["tiers"].values()) == 1


class TestXmlWorkload:
    """The paper workload: tracing/retry over parse and resolution."""

    def test_tracing_and_retry_end_to_end(self):
        trace = []

        class Tracing(Aspect):
            @generator(
                execution("parser.parse") | execution("resolver.resolve_uri")
            )
            def trace_call(self, jp):
                trace.append(f"-> {jp.signature}")
                result = yield proceed
                trace.append(f"<- {jp.signature}")
                yield return_(result)

        failures = {"left": 2}

        class Faults(Aspect):
            @generator(execution("parser.parse"))
            def inject(self, jp):
                if failures["left"]:
                    failures["left"] -= 1
                    raise XmlSyntaxError("injected")
                result = yield proceed
                yield return_(result)

        class Retry(Aspect):
            @generator(execution("parser.parse"))
            def retry(self, jp):
                for _ in range(2):
                    try:
                        result = yield proceed
                    except XmlSyntaxError:
                        continue
                    yield return_(result)
                result = yield proceed
                yield return_(result)

        rt = WeaverRuntime("workload")
        original_parse = parser_mod.parse
        original_resolve = resolver_mod.resolve_uri
        with rt.weave([parser_mod.parse, resolver_mod.resolve_uri], Tracing()):
            doc = parser_mod.parse("<a><b/></a>")
            assert doc.root_element.name.local == "a"
            assert resolver_mod.resolve_uri("x/y.xml", "../z.xml") == "z.xml"
            # Retry wraps the injected faults (deployed later = outer).
            with rt.weave(parser_mod.parse, Faults()):
                with rt.weave(parser_mod.parse, Retry()):
                    doc = parser_mod.parse("<ok/>")
                    assert doc.root_element.name.local == "ok"
            assert failures["left"] == 0
        assert parser_mod.parse is original_parse
        assert resolver_mod.resolve_uri is original_resolve
        assert trace[:2] == [
            "-> repro.xmlcore.parser.parse",
            "<- repro.xmlcore.parser.parse",
        ]

    def test_only_named_function_is_woven_in_real_module(self):
        class A(Aspect):
            @before(execution("parser.*"))
            def observe(self, jp):
                pass

        original_parse_element = parser_mod.parse_element
        rt = WeaverRuntime("t")
        with rt.weave(parser_mod.parse, A()):
            assert parser_mod.parse_element is original_parse_element
            assert parser_mod.parse.__woven__ is True
