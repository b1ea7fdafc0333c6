"""F1 — Figure 1: the cost of the aspect-oriented mechanism itself.

The paper's Figure 1 diagrams the weaver composing basic functionality
with aspects.  These benchmarks price that mechanism: advice dispatch
against a plain call, deployment/undeployment cycles, pointcut matching,
and the cflow residue (the most expensive pointcut).

Expected shape: woven calls cost a constant factor over plain calls
(microseconds, not asymptotics); deployment is linear in the number of
matched shadows.
"""

import pytest

from repro.aop import Aspect, WeaverRuntime, around, before, execution
from repro.aop.joinpoint import JoinPointKind


class Node:
    def render(self) -> int:
        return sum(range(25))

    def helper(self) -> int:
        return self.render()


class BeforeAspect(Aspect):
    def __init__(self):
        self.count = 0

    @before("execution(Node.render)")
    def note(self, jp):
        self.count += 1


class AroundAspect(Aspect):
    @around("execution(Node.render)")
    def wrap(self, jp):
        return jp.proceed()


class CflowAspect(Aspect):
    def __init__(self):
        self.count = 0

    @before("execution(Node.render) && cflowbelow(execution(Node.helper))")
    def note(self, jp):
        self.count += 1


def test_baseline_plain_call(benchmark):
    node = Node()
    benchmark(node.render)


def test_woven_call_with_before_advice(benchmark):
    handle = WeaverRuntime().weave(Node, BeforeAspect())
    node = Node()
    try:
        benchmark(node.render)
    finally:
        handle.undeploy()


def test_woven_call_with_around_advice(benchmark):
    handle = WeaverRuntime().weave(Node, AroundAspect())
    node = Node()
    try:
        benchmark(node.render)
    finally:
        handle.undeploy()


def test_woven_call_with_cflow_residue(benchmark):
    handle = WeaverRuntime().weave(Node, CflowAspect())
    node = Node()
    try:
        benchmark(node.helper)
    finally:
        handle.undeploy()


def test_deploy_undeploy_cycle(benchmark):
    weaver = WeaverRuntime()
    aspect = BeforeAspect()

    def cycle():
        weaver.weave(Node, aspect).undeploy()

    benchmark(cycle)


def test_pointcut_shadow_matching(benchmark):
    pointcut = execution("Node.*") & ~execution("*.helper")

    def match_all():
        hits = 0
        for name in ("render", "helper"):
            if pointcut.matches_shadow(Node, name, JoinPointKind.METHOD_EXECUTION):
                hits += 1
        return hits

    assert match_all() == 1  # render matches, helper is excluded
    benchmark(match_all)


@pytest.mark.parametrize("calls", [100, 1000])
def test_advised_call_burst(benchmark, calls):
    """Amortized cost of n advised calls (the site build's inner loop)."""
    handle = WeaverRuntime().weave(Node, BeforeAspect())
    node = Node()

    def burst():
        for _ in range(calls):
            node.render()

    try:
        benchmark(burst)
    finally:
        handle.undeploy()
