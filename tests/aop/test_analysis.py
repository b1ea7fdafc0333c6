"""The static weave-plan analyzer, codegen verifier and lint gate.

Every diagnostic code fires on a seeded defect and stays silent on the
equivalent healthy shape, under **both** dispatch tiers
(``REPRO_AOP_CODEGEN=1`` and ``=0``) — the analyzer never deploys, but
the live-runtime path (:func:`repro.aop.analyze_runtime`) and the
``lint=`` gate do interact with woven state, so the tier matters there.
The clean-plan fixtures assert zero false positives on the navigation
stacks the shipped ``examples/`` weave.
"""

import threading
import warnings

import pytest

from repro.aop import (
    AopLintWarning,
    Aspect,
    WeaverRuntime,
    WeavingError,
    analyze_concurrency,
    analyze_deployment,
    analyze_runtime,
    around,
    before,
    introduce,
    verify_codegen_templates,
    verify_wrapper_source,
)
from repro.aop.advice import AdviceKind
from repro.aop.analysis import (
    _shape_advice,
    enumerate_template_sources,
)
from repro.aop.codegen import (
    _render_signature,
    _scoped_static_source,
    _static_source,
)


@pytest.fixture(params=["1", "0"], ids=["codegen", "generic"])
def codegen_tier(request, monkeypatch):
    monkeypatch.setenv("REPRO_AOP_CODEGEN", request.param)
    return request.param


class Renderer:
    def render(self, node, depth=1):
        return ("render", node, depth)

    def paint(self):
        return "paint"


class Slotted:
    __slots__ = ("x",)


def codes(diags):
    return [d.code for d in diags]


# -- weave-plan lint: APL001-APL006 --------------------------------------------


class TypoAspect(Aspect):
    @before("execution(Renderer.rendr)")
    def note(self, jp):
        pass


class BeforeAspect(Aspect):
    @before("execution(Renderer.render)")
    def note(self, jp):
        pass


class TestPointcutMatchesNothing:
    def test_typo_is_an_error(self, codegen_tier):
        diags = analyze_deployment(TypoAspect(), [Renderer])
        assert codes(diags) == ["APL001"]
        assert diags[0].severity == "error"
        assert "rendr" in diags[0].message
        assert diags[0].aspect == "TypoAspect"

    def test_one_unmatched_advice_among_matching_ones(self, codegen_tier):
        """require_match cannot see this: the aspect as a whole matches."""

        class HalfTypo(Aspect):
            @before("execution(Renderer.render)")
            def good(self, jp):
                pass

            @before("execution(Renderer.rendr)")
            def bad(self, jp):
                pass

        diags = analyze_deployment(HalfTypo(), [Renderer])
        assert codes(diags) == ["APL001"]
        assert diags[0].advice == "bad"

    def test_matching_aspect_is_silent(self, codegen_tier):
        assert analyze_deployment(BeforeAspect(), [Renderer]) == []

    def test_advice_on_introduced_member_matches(self, codegen_tier):
        """An aspect may advise the member it introduces itself."""

        def extra(self):
            return "extra"

        class IntroAndAdvise(Aspect):
            def introductions(self):
                return [introduce("Renderer", "extra", extra)]

            @before("execution(Renderer.extra)")
            def note(self, jp):
                pass

        assert analyze_deployment(IntroAndAdvise(), [Renderer]) == []

    def test_field_advice_matches_registered_fields(self, codegen_tier):
        aspect = (
            Aspect.builder("Fields")
            .before("get(Renderer.depth)", lambda jp: None)
            .build()
        )
        assert analyze_deployment(aspect, [Renderer], fields=("depth",)) == []
        assert codes(analyze_deployment(aspect, [Renderer])) == ["APL001"]


class ShortCircuit(Aspect):
    @around("execution(Renderer.render)", order=-1)
    def short(self, jp):
        return "short"

    @around("execution(Renderer.render)")
    def inner(self, jp):
        return jp.proceed()


class ProceedingAround(Aspect):
    @around("execution(Renderer.render)")
    def run(self, jp):
        return jp.proceed()


class BlockingAround(Aspect):
    # Distinct order keeps APL003 out of these fixtures — the check under
    # test here is only the shadowing one.
    @around("execution(Renderer.render)", order=-5)
    def veto(self, jp):
        return None


class TestAdviceShadowed:
    def test_outer_around_without_proceed(self, codegen_tier):
        diags = analyze_deployment(ShortCircuit(), [Renderer])
        assert codes(diags) == ["APL002"]
        assert diags[0].advice == "short"
        assert "inner" in diags[0].message
        assert diags[0].site == "Renderer.render"

    def test_later_deployment_shadows_earlier_one(self, codegen_tier):
        # The later deployment wraps the earlier one; its non-proceeding
        # around starves the entire inner stack.
        diags = analyze_deployment(
            [ProceedingAround(), BlockingAround()], [Renderer]
        )
        assert codes(diags) == ["APL002"]
        assert diags[0].aspect == "BlockingAround"

    def test_innermost_blocker_shadows_nothing(self, codegen_tier):
        # Deployed first = innermost: nothing runs beneath it, so the
        # bare original replacement is the aspect's documented meaning.
        diags = analyze_deployment(
            [BlockingAround(), ProceedingAround()], [Renderer]
        )
        assert diags == []

    def test_proceeding_stack_is_silent(self, codegen_tier):
        assert (
            analyze_deployment([ProceedingAround(), ProceedingAround()], [Renderer])
            == []
        )


class EqualOrderA(Aspect):
    @around("execution(Renderer.render)")
    def one(self, jp):
        return jp.proceed()


class EqualOrderB(Aspect):
    @around("execution(Renderer.render)")
    def two(self, jp):
        return jp.proceed()


class OrderedB(Aspect):
    @around("execution(Renderer.render)", order=5)
    def two(self, jp):
        return jp.proceed()


class TestAmbiguousPrecedence:
    def test_two_aspect_classes_same_order(self, codegen_tier):
        diags = analyze_deployment([EqualOrderA(), EqualOrderB()], [Renderer])
        assert codes(diags) == ["APL003"]
        assert "EqualOrderA" in diags[0].message
        assert "EqualOrderB" in diags[0].message

    def test_same_class_stacked_is_the_idiom(self, codegen_tier):
        # Stacking several instances of one aspect class is the
        # navigation-stack idiom: ordered by deployment order on purpose.
        assert analyze_deployment([EqualOrderA(), EqualOrderA()], [Renderer]) == []

    def test_distinct_orders_are_silent(self, codegen_tier):
        assert analyze_deployment([EqualOrderA(), OrderedB()], [Renderer]) == []


class CflowResidue(Aspect):
    @around("execution(Renderer.render) && cflow(execution(Renderer.paint))")
    def watch(self, jp):
        return jp.proceed()


class TestResidueOnHotShadow:
    def test_per_call_residue_on_hot_shadow(self, codegen_tier):
        diags = analyze_deployment(
            CflowResidue(), [Renderer], hot_shadows={"Renderer.render"}
        )
        assert codes(diags) == ["APL004"]
        assert "cflow" in diags[0].message

    def test_cold_shadow_is_silent(self, codegen_tier):
        assert (
            analyze_deployment(
                CflowResidue(), [Renderer], hot_shadows={"Other.render"}
            )
            == []
        )

    def test_residue_free_advice_on_hot_shadow_is_silent(self, codegen_tier):
        assert (
            analyze_deployment(
                BeforeAspect(), [Renderer], hot_shadows={"Renderer.render"}
            )
            == []
        )


class TestScopeUnweakrefable:
    def test_slotted_scope_member(self, codegen_tier):
        diags = analyze_deployment(
            BeforeAspect(), [Renderer], instances=[Slotted()]
        )
        assert codes(diags) == ["APL005"]
        assert "Slotted" in diags[0].message

    def test_weakrefable_members_are_silent(self, codegen_tier):
        assert (
            analyze_deployment(BeforeAspect(), [Renderer], instances=[Renderer()])
            == []
        )

    def test_one_finding_per_pinned_type(self, codegen_tier):
        diags = analyze_deployment(
            BeforeAspect(), [Renderer], instances=[Slotted(), Slotted()]
        )
        assert codes(diags) == ["APL005"]


def _shadow_paint(self):
    return "shadow-paint"


class IntroClash(Aspect):
    def introductions(self):
        return [introduce("Renderer", "paint", _shadow_paint)]


class IntroReplace(Aspect):
    def introductions(self):
        return [introduce("Renderer", "paint", _shadow_paint, replace=True)]


class IntroFresh(Aspect):
    def introductions(self):
        return [introduce("Renderer", "glow", _shadow_paint)]


class TestIntroductionConflict:
    def test_existing_member_collision(self, codegen_tier):
        diags = analyze_deployment(IntroClash(), [Renderer])
        assert codes(diags) == ["APL006"]
        assert diags[0].severity == "error"
        assert diags[0].site == "Renderer.paint"

    def test_replace_true_is_silent(self, codegen_tier):
        assert analyze_deployment(IntroReplace(), [Renderer]) == []

    def test_two_plan_entries_introducing_one_name(self, codegen_tier):
        diags = analyze_deployment([IntroFresh(), IntroFresh()], [Renderer])
        assert codes(diags) == ["APL006"]
        assert diags[0].site == "Renderer.glow"


# -- concurrency lint: APL201 --------------------------------------------------

HITS: dict = {}


class SharedWrite(Aspect):
    @before("execution(Renderer.render)")
    def count(self, jp):
        HITS["n"] = HITS.get("n", 0) + 1


class LockedWrite(Aspect):
    _lock = threading.Lock()

    @before("execution(Renderer.render)")
    def count(self, jp):
        with self._lock:
            HITS["n"] = HITS.get("n", 0) + 1


class SelfWrite(Aspect):
    calls = 0

    @before("execution(Renderer.render)")
    def count(self, jp):
        self.calls += 1


class LocalWrite(Aspect):
    @before("execution(Renderer.render)")
    def count(self, jp):
        total = {}
        total["n"] = 1


class TestConcurrencyLint:
    def test_unsynchronized_shared_write(self, codegen_tier):
        diags = analyze_concurrency(SharedWrite())
        assert codes(diags) == ["APL201"]
        assert diags[0].severity == "advisory"
        assert "HITS" in diags[0].message

    def test_lock_guarded_write_is_silent(self, codegen_tier):
        assert analyze_concurrency(LockedWrite()) == []

    def test_self_and_local_writes_are_silent(self, codegen_tier):
        assert analyze_concurrency(SelfWrite()) == []
        assert analyze_concurrency(LocalWrite()) == []


# -- codegen source verification: APL101-APL104 --------------------------------


def _sample(self, node, depth=1):
    return (node, depth)


class TestCodegenVerification:
    def test_every_template_shape_is_clean(self, codegen_tier):
        assert verify_codegen_templates() == []

    def test_shape_matrix_covers_method_and_field_variants(self, codegen_tier):
        labels = [label for label, _ in enumerate_template_sources()]
        assert len(labels) == len(set(labels))
        assert any(label.startswith("method/") for label in labels)
        assert any(label.startswith("field/") for label in labels)
        assert any("scoped-marker-sig" in label for label in labels)
        assert any("scoped-id-packed" in label for label in labels)
        assert len(labels) >= 25

    def test_apl101_syntax_error(self, codegen_tier):
        diags = verify_wrapper_source("def _factory(:", label="broken")
        assert codes(diags) == ["APL101"]
        assert diags[0].site == "broken"

    def test_apl102_free_name_injection(self, codegen_tier):
        advice = _shape_advice([AdviceKind.BEFORE], bound=True)
        source, _ = _static_source(advice)
        seeded = source.replace("jp.target = self", "jp.target = os.environ")
        assert seeded != source
        assert "APL102" in codes(verify_wrapper_source(seeded, label="inject"))

    def test_apl103_closure_capture(self, codegen_tier):
        advice = _shape_advice([AdviceKind.BEFORE], bound=True)
        source, _ = _static_source(advice)
        seeded = source.replace(
            "def wrapper(self, *args, **kwargs):",
            "_shared = {}\n    def wrapper(self, *args, **kwargs):",
        ).replace("jp.kwargs = kwargs", "jp.kwargs = _shared")
        assert seeded != source
        assert "APL103" in codes(verify_wrapper_source(seeded, label="capture"))

    def test_apl104_signature_drift(self, codegen_tier):
        advice = _shape_advice([AdviceKind.BEFORE], bound=True)
        sig = _render_signature(_sample)
        assert sig is not None
        source, _ = _scoped_static_source(advice, "_aop_scope_0", sig)
        seeded = source.replace(
            "return _original(self, node, depth)",
            "return _original(self, depth, node)",
        )
        assert seeded != source
        assert "APL104" in codes(verify_wrapper_source(seeded, label="drift"))


# -- the lint gate on DeploymentSet.add ----------------------------------------


class TestLintGate:
    def test_error_mode_refuses_to_weave(self, codegen_tier):
        runtime = WeaverRuntime("lint-error")
        with runtime.transaction([Renderer]) as tx:
            with pytest.raises(WeavingError, match="APL001"):
                tx.add(TypoAspect(), require_match=False, lint="error")
            assert tx.deployments == []
        assert not hasattr(Renderer.render, "__woven__")

    def test_warn_mode_warns_and_deploys(self, codegen_tier):
        runtime = WeaverRuntime("lint-warn")
        with runtime.transaction([Renderer]) as tx:
            with pytest.warns(AopLintWarning, match="APL001"):
                tx.add(TypoAspect(), require_match=False, lint="warn")
            assert len(tx.deployments) == 1
            tx.undeploy()

    def test_clean_add_is_silent(self, codegen_tier):
        runtime = WeaverRuntime("lint-clean")
        with runtime.transaction([Renderer]) as tx:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tx.add(BeforeAspect(), lint="error")
            assert [w for w in caught if w.category is AopLintWarning] == []
            assert Renderer().render("n") == ("render", "n", 1)
            tx.undeploy()

    def test_invalid_mode_is_rejected_before_weaving(self, codegen_tier):
        runtime = WeaverRuntime("lint-bad-mode")
        with runtime.transaction([Renderer]) as tx:
            with pytest.raises(ValueError, match="lint mode"):
                tx.add(BeforeAspect(), lint="loud")
            assert tx.deployments == []


# -- clean-plan fixtures over the shipped examples' stacks ---------------------


class TestShippedExamplesAreClean:
    """Zero false positives on every stack the examples weave."""

    @pytest.fixture()
    def navigation_aspects(self):
        from repro.baselines import museum_fixture
        from repro.core import NavigationAspect, default_museum_spec
        from repro.core.navspec import ACCESS_KINDS

        fixture = museum_fixture()
        return [
            NavigationAspect(default_museum_spec(kind), fixture)
            for kind in ACCESS_KINDS
        ]

    def test_full_navigation_stack_plan_is_clean(
        self, codegen_tier, navigation_aspects
    ):
        from repro.core import PageRenderer

        diags = analyze_deployment(navigation_aspects, [PageRenderer])
        diags += analyze_concurrency(navigation_aspects)
        assert diags == []

    def test_breadcrumb_aspect_is_clean(self, codegen_tier):
        from repro.core import PageRenderer
        from repro.navigation.session import BreadcrumbAspect, BreadcrumbTrail

        aspect = BreadcrumbAspect(trail=BreadcrumbTrail())
        assert (
            analyze_deployment(
                aspect, [PageRenderer], instances=[Renderer()]
            )
            == []
        )
        assert analyze_concurrency(aspect) == []

    def test_live_runtime_analysis_is_clean(self, codegen_tier, navigation_aspects):
        """Deploy the real stack, analyze the live runtime, find nothing.

        Under the codegen tier this also verifies every installed
        wrapper's ``__codegen_source__`` via the APL1xx checks.
        """
        from repro.core import PageRenderer

        runtime = WeaverRuntime("live-analysis")
        with runtime.transaction([PageRenderer]) as tx:
            for aspect in navigation_aspects:
                tx.add(aspect)
            try:
                assert analyze_runtime(runtime) == []
            finally:
                tx.undeploy()

    def test_lint_gated_site_build_succeeds(self, codegen_tier):
        from repro.baselines import museum_fixture
        from repro.core import build_woven_site, default_museum_spec

        fixture = museum_fixture()
        site = build_woven_site(
            fixture, default_museum_spec("index"), lint="error"
        )
        assert "index.html" in site.as_text()
