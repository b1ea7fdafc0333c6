"""JoinPointPool under reentrancy and thread pressure.

The ROADMAP's free-threaded audit rung: the pool's free list relies on
``list.pop``/``list.append`` atomicity (GIL today, per-op locks on
no-GIL builds), so these tests hammer acquire/release from many threads —
directly and through a woven shadow whose generated wrapper shares the
pool — and assert the invariants the weaver depends on: no join point is
ever handed to two holders at once, released instances are scrubbed, and
the free list never grows past its cap.
"""

import threading

import pytest

from repro.aop import (
    Aspect,
    JoinPointKind,
    JoinPointPool,
    WeaverRuntime,
    around,
)


class TestPoolReentrancy:
    def test_nested_acquires_never_share_an_instance(self):
        pool = JoinPointPool(JoinPointKind.METHOD_EXECUTION, "render")
        outer = pool.acquire(object(), (), {})
        inner = pool.acquire(object(), (), {})
        assert outer is not inner
        pool.release(inner)
        pool.release(outer)
        # Deep nesting allocates past the free list and releases cleanly.
        held = [pool.acquire(object(), (i,), {}) for i in range(32)]
        assert len(set(map(id, held))) == 32
        for jp in reversed(held):
            pool.release(jp)
        assert len(pool.free) <= 8

    def test_reentrant_advice_through_a_woven_shadow(self):
        class Node:
            def render(self, depth):
                return depth

        class Recurse(Aspect):
            @around("execution(Node.render)")
            def wrap(self, jp):
                (depth,) = jp.args
                if depth > 0:
                    # Re-enter the same shadow while this call's join
                    # point is still checked out of the pool.
                    assert jp.target.render(depth - 1) == depth - 1
                return jp.proceed()

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Recurse()).deployments[0]
        try:
            assert Node().render(12) == 12
        finally:
            runtime.undeploy(deployment)


class TestPoolThreadStress:
    @pytest.mark.parametrize("threads", [4, 8])
    def test_direct_acquire_release_storm(self, threads):
        pool = JoinPointPool(JoinPointKind.METHOD_EXECUTION, "render")
        iterations = 2_000
        errors: list[BaseException] = []
        start = threading.Barrier(threads)

        def worker(worker_id: int) -> None:
            try:
                token = object()
                start.wait()
                for i in range(iterations):
                    jp = pool.acquire(token, (worker_id, i), {"w": worker_id})
                    # The instance is exclusively ours until release: the
                    # slots must hold exactly what acquire wrote.
                    assert jp.target is token
                    assert jp.args == (worker_id, i)
                    assert jp.kwargs == {"w": worker_id}
                    jp.result = worker_id
                    pool.release(jp)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pack = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
        for thread in pack:
            thread.start()
        for thread in pack:
            thread.join()
        assert errors == []
        assert len(pool.free) <= 8
        for jp in pool.free:
            # Everything parked on the free list is scrubbed.
            assert jp.target is None and jp.cls is None
            assert jp.args == () and jp.kwargs is None
            assert jp.value is None and jp.result is None

    def test_woven_shadow_storm_shares_one_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_AOP_CODEGEN", "1")

        class Node:
            def render(self, a, b):
                return (a, b)

        class Echo(Aspect):
            @around("execution(Node.render)")
            def wrap(self, jp):
                return jp.proceed()

        runtime = WeaverRuntime()
        deployment = runtime.weave([Node], Echo()).deployments[0]
        pool = Node.__dict__["render"].__joinpoint_pool__
        errors: list[BaseException] = []
        start = threading.Barrier(6)

        def worker(worker_id: int) -> None:
            try:
                node = Node()
                start.wait()
                for i in range(1_500):
                    assert node.render(worker_id, i) == (worker_id, i)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pack = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        try:
            for thread in pack:
                thread.start()
            for thread in pack:
                thread.join()
        finally:
            runtime.undeploy(deployment)
        assert errors == []
        assert len(pool.free) <= 8
