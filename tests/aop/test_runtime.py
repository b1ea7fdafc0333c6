"""The first-class runtime API: scoped runtimes, transactions, handles.

Covers the ``WeaverRuntime`` surface — scoped state and cross-runtime
isolation, the transactional ``DeploymentSet`` (incremental add,
context-manager rollback, partial undeploy), the ``weave()`` handle's
exception path, introspection and the vectorized shadow scan.  The full
advice-chain semantics matrix stays in ``test_compiled_chain.py``.
"""

import pytest

from repro.aop import (
    Aspect,
    Introduction,
    WeaverRuntime,
    WeavingError,
    before,
    cflow,
    default_runtime,
    execution,
)
from repro.aop.weaver import _scan_method_shadows


def fresh_target():
    class Target:
        def op(self):
            return "op"

        def other(self):
            return "other"

    return Target


def make_tagger(tag, log):
    class Tagger(Aspect):
        @before("execution(Target.op)")
        def note(self, jp):
            log.append(tag)

    Tagger.__name__ = f"Tagger_{tag}"
    return Tagger()


class TestWeaverRuntime:
    def test_deploy_and_undeploy(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime("t")
        deployment = runtime.weave([Target], make_tagger("a", log)).deployments[0]
        assert Target().op() == "op"
        assert log == ["a"]
        runtime.undeploy(deployment)
        assert Target().op() == "op"
        assert log == ["a"]
        assert runtime.deployments == []

    def test_runtime_state_is_scoped(self):
        runtime = WeaverRuntime("scoped")
        assert runtime.shadow_index is not default_runtime.shadow_index
        assert runtime.watchers is not default_runtime.watchers
        assert runtime.codegen_cache is not default_runtime.codegen_cache

    def test_codegen_cache_statistics_are_per_runtime(self, monkeypatch):
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "1")
        log = []
        a_runtime = WeaverRuntime("a")
        b_runtime = WeaverRuntime("b")
        Target = fresh_target()
        a_runtime.weave(Target, make_tagger("x", log)).undeploy()
        assert a_runtime.codegen_cache.wrappers_built == 1
        assert b_runtime.codegen_cache.wrappers_built == 0

    def test_undeploy_is_idempotent(self):
        Target = fresh_target()
        runtime = WeaverRuntime()
        deployment = runtime.weave([Target], make_tagger("a", [])).deployments[0]
        runtime.undeploy(deployment)
        runtime.undeploy(deployment)  # second call is a no-op
        assert Target().op() == "op"


class TestDeploymentSet:
    def test_incremental_add_then_commit(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        tx = runtime.transaction([Target])
        tx.add(make_tagger("a", log))
        tx.add(make_tagger("b", log))
        handles = tx.commit()
        assert len(handles) == 2
        Target().op()
        # Later aspects wrap earlier ones: b's (outer) before advice first.
        assert log == ["b", "a"]
        runtime.undeploy_all()
        assert Target().op() == "op"

    def test_context_manager_commits_on_clean_exit(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        with runtime.transaction([Target]) as tx:
            tx.add(make_tagger("a", log))
        assert tx.committed
        Target().op()
        assert log == ["a"]
        tx.undeploy()
        assert not hasattr(Target.__dict__["op"], "__woven__")

    def test_context_manager_rolls_back_on_exception(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        original = Target.__dict__["op"]
        with pytest.raises(ValueError, match="boom"):
            with runtime.transaction([Target]) as tx:
                tx.add(make_tagger("a", log))
                tx.add(make_tagger("b", log))
                raise ValueError("boom")
        assert Target.__dict__["op"] is original
        assert runtime.deployments == []
        assert tx.deployments == []

    def test_rollback_reverts_introductions(self):
        Target = fresh_target()

        class Grafting(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                pass

            def introductions(self):
                return [Introduction("Target", "grafted", lambda self: "extra")]

        runtime = WeaverRuntime()
        with pytest.raises(RuntimeError):
            with runtime.transaction([Target]) as tx:
                tx.add(Grafting())
                assert Target().grafted() == "extra"
                raise RuntimeError
        assert not hasattr(Target, "grafted")

    def test_explicit_commit_disables_rollback(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        with pytest.raises(ValueError):
            with runtime.transaction([Target]) as tx:
                tx.add(make_tagger("a", log))
                tx.commit()
                raise ValueError
        Target().op()
        assert log == ["a"]  # still deployed: the commit sealed the set
        runtime.undeploy_all()

    def test_add_requires_targets_somewhere(self):
        runtime = WeaverRuntime()
        tx = runtime.transaction()
        with pytest.raises(WeavingError, match="no targets"):
            tx.add(make_tagger("a", []))

    def test_add_can_override_targets(self):
        TargetA = fresh_target()
        TargetB = fresh_target()
        log = []
        runtime = WeaverRuntime()
        with runtime.transaction([TargetA]) as tx:
            tx.add(make_tagger("a", log))
            tx.add(make_tagger("b", log), [TargetB])
        TargetA().op()
        TargetB().op()
        assert log == ["a", "b"]
        runtime.undeploy_all()

    def test_full_undeploy_unwinds_lifo(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        with runtime.transaction([Target]) as tx:
            tx.add(make_tagger("a", log))
            tx.add(make_tagger("b", log))
        tx.undeploy()
        assert Target().op() == "op"
        assert not hasattr(Target.__dict__["op"], "__woven__")
        assert tx.deployments == []

    def test_partial_undeploy_reweaves_survivors(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        tx = runtime.transaction([Target])
        first = tx.add(make_tagger("a", log))
        tx.add(make_tagger("b", log))
        tx.add(make_tagger("c", log))
        tx.undeploy([first])
        log.clear()
        Target().op()
        # Survivors re-woven in original relative order (c still wraps b).
        assert log == ["c", "b"]
        assert not first.active
        assert len(tx.deployments) == 2
        assert all(d.active for d in tx.deployments)
        tx.undeploy()
        assert Target().op() == "op"

    def test_partial_undeploy_of_middle_subset(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        tx = runtime.transaction([Target])
        tx.add(make_tagger("a", log))
        middle = tx.add(make_tagger("b", log))
        tx.add(make_tagger("c", log))
        tx.undeploy([middle])
        log.clear()
        Target().op()
        assert log == ["c", "a"]
        tx.undeploy()

    def test_partial_undeploy_rejects_foreign_deployment(self):
        Target = fresh_target()
        runtime = WeaverRuntime()
        foreign = runtime.weave([Target], make_tagger("x", [])).deployments[0]
        tx = runtime.transaction([Target])
        tx.add(make_tagger("a", []))
        with pytest.raises(WeavingError, match="not active in this set"):
            tx.undeploy([foreign])
        tx.undeploy()
        runtime.undeploy(foreign)

    def test_deploy_all_is_atomic(self):
        Target = fresh_target()
        log = []

        class NoMatch(Aspect):
            @before("execution(Nothing.matches)")
            def note(self, jp):
                pass

        runtime = WeaverRuntime()
        original = Target.__dict__["op"]
        with pytest.raises(WeavingError, match="matched nothing"):
            with runtime.transaction([Target]) as tx:
                for aspect in (make_tagger("a", log), NoMatch()):
                    tx.add(aspect)
        assert Target.__dict__["op"] is original
        assert runtime.deployments == []


class TestRuntimeIsolation:
    def test_two_runtimes_stack_without_clobbering(self):
        """Two runtimes weaving the same class nest like two deployments."""
        Target = fresh_target()
        original = Target.__dict__["op"]
        log = []
        a_runtime = WeaverRuntime("a")
        b_runtime = WeaverRuntime("b")
        a_dep = a_runtime.weave([Target], make_tagger("a", log)).deployments[0]
        a_wrapper = Target.__dict__["op"]
        b_dep = b_runtime.weave([Target], make_tagger("b", log)).deployments[0]
        assert Target.__dict__["op"] is not a_wrapper  # B wrapped A, not replaced
        Target().op()
        assert log == ["b", "a"]
        b_runtime.undeploy(b_dep)
        assert Target.__dict__["op"] is a_wrapper  # A's wrapper intact
        a_runtime.undeploy(a_dep)
        assert Target.__dict__["op"] is original

    def test_stale_cross_runtime_scan_is_invalidated(self):
        """A runtime's cached scan self-invalidates when another runtime weaves.

        If runtime B planned from its stale pre-A scan it would wrap the
        *unwoven* original and install it over A's wrapper — exactly the
        clobbering the shared token board exists to prevent.
        """
        Target = fresh_target()
        log = []
        a_runtime = WeaverRuntime("a")
        b_runtime = WeaverRuntime("b")
        pre = {s.name: s.original for s in b_runtime.shadow_index.shadows(Target)}
        a_dep = a_runtime.weave([Target], make_tagger("a", log)).deployments[0]
        woven = {s.name: s.original for s in b_runtime.shadow_index.shadows(Target)}
        assert woven["op"] is Target.__dict__["op"]
        assert woven["op"] is not pre["op"]
        # And B deploys against the woven member, so undeploying B restores
        # A's wrapper, not the pre-A original.
        b_dep = b_runtime.weave([Target], make_tagger("b", log)).deployments[0]
        b_runtime.undeploy(b_dep)
        assert Target.__dict__["op"] is woven["op"]
        a_runtime.undeploy(a_dep)
        assert Target.__dict__["op"] is pre["op"]

    def test_snapshot_restore_survives_other_runtimes_cycle(self):
        """A's pre-weave snapshot stays restorable across B's own cycle.

        B weaves and fully unweaves *after* A deploys; A's undeploy must
        still recognize its snapshot (B restored the bytes it disturbed),
        degrading to a rescan only when someone actually left the class
        changed.
        """
        Target = fresh_target()
        log = []
        a_runtime = WeaverRuntime("a")
        b_runtime = WeaverRuntime("b")
        a_dep = a_runtime.weave([Target], make_tagger("a", log)).deployments[0]
        b_dep = b_runtime.weave([Target], make_tagger("b", log)).deployments[0]
        b_runtime.undeploy(b_dep)
        a_runtime.undeploy(a_dep)
        assert {s.name for s in a_runtime.shadow_index.shadows(Target)} == {
            "op",
            "other",
        }
        assert Target().op() == "op"

    def test_out_of_lifo_cross_runtime_undeploy_raises(self):
        Target = fresh_target()
        log = []
        a_runtime = WeaverRuntime("a")
        b_runtime = WeaverRuntime("b")
        a_dep = a_runtime.weave([Target], make_tagger("a", log)).deployments[0]
        b_dep = b_runtime.weave([Target], make_tagger("b", log)).deployments[0]
        with pytest.raises(WeavingError, match="re-woven"):
            a_runtime.undeploy(a_dep)
        b_runtime.undeploy(b_dep)
        a_runtime.undeploy(a_dep)
        assert Target().op() == "op"

    def test_cflow_watchers_are_scoped(self):
        Target = fresh_target()

        class Watching(Aspect):
            @before(execution("Target.op") & cflow(execution("Target.other")))
            def note(self, jp):
                pass

        a_runtime = WeaverRuntime("a")
        b_runtime = WeaverRuntime("b")
        deployment = a_runtime.weave([Target], Watching()).deployments[0]
        assert a_runtime.watchers.count == 1
        assert b_runtime.watchers.count == 0
        assert default_runtime.watchers.count == 0
        a_runtime.undeploy(deployment)
        assert a_runtime.watchers.count == 0


class TestIntrospection:
    def test_woven_sites_report_tiers(self, monkeypatch):
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "1")
        Target = fresh_target()

        class Mixed(Aspect):
            @before("execution(Target.op)")
            def static_note(self, jp):
                pass

            @before(execution("Target.other") & cflow(execution("Target.op")))
            def dynamic_note(self, jp):
                pass

            def introductions(self):
                return [Introduction("Target", "grafted", lambda self: 1)]

        runtime = WeaverRuntime()
        runtime.weave([Target], Mixed())
        sites = {s.signature: s for s in runtime.woven_sites()}
        assert sites["Target.op"].tier in {"codegen", "tracking"}
        assert sites["Target.other"].tier == "generic"
        assert sites["Target.grafted"].tier == "introduction"
        # `op` is both advised and a cflow entry; the advised site must
        # report its dispatch tier, and the generated source line count
        # travels with codegen sites.
        op = sites["Target.op"]
        if op.tier == "codegen":
            assert op.codegen_lines and op.codegen_lines > 5
        runtime.undeploy_all()
        assert runtime.woven_sites() == []

    def test_woven_sites_generic_tier_when_codegen_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "0")
        Target = fresh_target()
        runtime = WeaverRuntime()
        runtime.weave([Target], make_tagger("a", []))
        (site,) = runtime.woven_sites()
        assert site.tier == "generic"
        assert site.codegen_lines is None
        runtime.undeploy_all()

    def test_deployment_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "1")
        Target = fresh_target()
        runtime = WeaverRuntime()
        deployment = runtime.weave([Target], make_tagger("a", [])).deployments[0]
        Target().op()
        stats = runtime.deployment_stats(deployment)
        assert stats.method_members == 1
        assert stats.field_members == 0
        assert stats.codegen_sources  # one generated wrapper
        assert stats.pools == 1
        assert stats.pooled_joinpoints_free >= 1  # the call released one
        runtime.undeploy_all()

    def test_runtime_stats_shape(self, monkeypatch):
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "1")
        Target = fresh_target()
        runtime = WeaverRuntime("stats")
        runtime.weave([Target], make_tagger("a", []))
        stats = runtime.stats()
        assert stats["name"] == "stats"
        assert stats["deployments"] == 1
        assert stats["woven_sites"] == 1
        assert stats["codegen_cache"]["wrappers_built"] == 1
        runtime.undeploy_all()


class TestDeployedRollback:
    """Regression for a ``with runtime.weave(...)`` block's exception path.

    Before the DeploymentSet rewrite, an exception inside the block ran a
    *strict* undeploy: if some other deployment had re-woven the class in
    the meantime, the member revert raised, the introductions were never
    reverted — and the user's exception was replaced by a WeavingError.
    """

    def _grafting_aspect(self):
        class Grafting(Aspect):
            @before("execution(Target.op)")
            def note(self, jp):
                pass

            def introductions(self):
                return [Introduction("Target", "grafted", lambda self: "extra")]

        return Grafting()

    def test_exception_rolls_back_introductions_despite_interference(self):
        Target = fresh_target()
        interferer = WeaverRuntime("interferer")
        with pytest.raises(ValueError, match="user error"):
            with default_runtime.weave([Target], self._grafting_aspect()):
                assert Target().grafted() == "extra"
                # A later deployment by someone else makes our member
                # non-LIFO-revertible...
                interference = interferer.weave(Target, make_tagger("i", []))
                raise ValueError("user error")
        # ...yet the introduction is gone and the *user's* exception won.
        assert not hasattr(Target, "grafted")
        interference.undeploy()

    def test_clean_exit_still_undeploys_strictly(self):
        Target = fresh_target()
        interferer = WeaverRuntime("interferer")
        with pytest.raises(WeavingError, match="re-woven"):
            with default_runtime.weave([Target], self._grafting_aspect()):
                interference = interferer.weave(Target, make_tagger("i", []))
        # Strictness preserved on the no-exception path: the caller hears
        # about the interleaving instead of silently losing wrappers.
        interference.undeploy()


class TestVectorizedShadowScan:
    def test_scan_matches_member_semantics(self):
        class Base:
            def base_method(self):
                return 1

            def overridden(self):
                return "base"

        class Sub(Base):
            rate = 1.5

            def overridden(self):
                return "sub"

            def own_method(self):
                return 2

            @staticmethod
            def a_static():
                return 3

            @classmethod
            def a_class(cls):
                return 4

            @property
            def a_property(self):
                return 5

            def _private(self):
                return 6

        shadows = {s.name: s for s in _scan_method_shadows(Sub)}
        # Plain functions only — no descriptors, no data attributes.
        assert set(shadows) == {"base_method", "overridden", "own_method", "_private"}
        assert shadows["base_method"].inherited
        assert not shadows["overridden"].inherited
        assert shadows["overridden"].original is Sub.__dict__["overridden"]
        assert shadows["base_method"].original is Base.__dict__["base_method"]

    def test_scan_is_name_sorted(self):
        class Zed:
            def zeta(self):
                pass

            def alpha(self):
                pass

            def mid(self):
                pass

        names = [s.name for s in _scan_method_shadows(Zed)]
        assert names == sorted(names)

    def test_non_function_override_hides_base_function(self):
        class Base:
            def op(self):
                return 1

        class Sub(Base):
            op = "not callable"

        assert all(s.name != "op" for s in _scan_method_shadows(Sub))


class TestBatchScansFreshAfterUnweave:
    """Regression: a set's derived scans must not outlive an undeploy.

    The batch view caches post-weave scans derived from installed
    wrappers; once the set unweaves anything, those scans describe dead
    wrappers, and a later add() planning from them would weave over — and
    thereby resurrect — undeployed advice.
    """

    def test_add_after_partial_undeploy_plans_fresh(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        tx = runtime.transaction([Target])
        first = tx.add(make_tagger("a", log))
        tx.undeploy([first])
        tx.add(make_tagger("b", log))
        log.clear()
        Target().op()
        assert log == ["b"]  # 'a' must not be resurrected
        tx.undeploy()
        assert Target().op() == "op"

    def test_add_after_full_undeploy_plans_fresh(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        tx = runtime.transaction([Target])
        tx.add(make_tagger("a", log))
        tx.undeploy()
        tx.add(make_tagger("b", log))
        log.clear()
        Target().op()
        assert log == ["b"]
        tx.undeploy()

    def test_add_after_rollback_plans_fresh(self):
        Target = fresh_target()
        log = []
        runtime = WeaverRuntime()
        tx = runtime.transaction([Target])
        tx.add(make_tagger("a", log))
        tx.rollback()
        tx.add(make_tagger("b", log))
        log.clear()
        Target().op()
        assert log == ["b"]
        tx.undeploy()
