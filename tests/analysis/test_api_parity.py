"""Fixture tests for the REPRO82x cross-implementation parity rules."""

import textwrap

from repro.analysis import get_rule
from repro.analysis.engine import analyze_project

NETWORK = "src/repro/noc/network.py"
ROUTER = "src/repro/noc/router.py"


def run_project(rule_name, sources):
    dedented = {path: textwrap.dedent(src)
                for path, src in sources.items()}
    return analyze_project(dedented, [get_rule(rule_name)])


ROUTER_PAIR = """\
    class Router:
        def __init__(self):
            self.router_id = 0

        def audit(self):
            return 0

        def flush_pipeline(self):
            return 1

        def occupancy(self, port, vc):
            return 0


    class SoaRouter:
        def __init__(self):
            self.router_id = 0

        def audit(self):
            return 0

        def occupancy(self, port, vc):
            return 0
    """


class TestRouterSurfaceParity:
    def test_one_sided_member_flags(self):
        findings = run_project("router-surface-parity", {
            ROUTER: ROUTER_PAIR,
            NETWORK: """\
                class Network:
                    def sweep(self):
                        for router in self.routers:
                            router.flush_pipeline()
                """,
        })
        assert len(findings) == 1
        assert "flush_pipeline" in findings[0].message
        assert "SoaRouter" in findings[0].message

    def test_shared_member_passes(self):
        assert run_project("router-surface-parity", {
            ROUTER: ROUTER_PAIR,
            NETWORK: """\
                class Network:
                    def sweep(self):
                        for router in self.routers:
                            router.audit()
                            total = router.router_id
                """,
        }) == []

    def test_arity_mismatch_flags(self):
        findings = run_project("router-surface-parity", {
            ROUTER: ROUTER_PAIR,
            NETWORK: """\
                class Network:
                    def sweep(self):
                        for router in self.routers:
                            router.occupancy(0)
                """,
        })
        assert len(findings) == 1
        assert "missing required argument" in findings[0].message

    def test_method_vs_property_mismatch_flags(self):
        findings = run_project("router-surface-parity", {
            ROUTER: """\
                class Router:
                    def buffer_occupancy(self):
                        return 0


                class SoaRouter:
                    @property
                    def buffer_occupancy(self):
                        return 0
                """,
            NETWORK: """\
                class Network:
                    def probe(self, router):
                        return router.buffer_occupancy()
                """,
        })
        assert len(findings) == 1
        assert "property" in findings[0].message

    def test_missing_implementation_disables_rule(self):
        # With only one router class in scope there is no parity claim.
        assert run_project("router-surface-parity", {
            ROUTER: """\
                class Router:
                    def only_here(self):
                        return 0
                """,
            NETWORK: """\
                class Network:
                    def sweep(self, router):
                        router.only_here()
                        router.not_anywhere()
                """,
        }) == []

    def test_inline_allow_suppresses(self):
        assert run_project("router-surface-parity", {
            ROUTER: ROUTER_PAIR,
            NETWORK: """\
                class Network:
                    def sweep(self):
                        for router in self.routers:
                            # repro: allow[router-surface-parity]
                            router.flush_pipeline()
                """,
        }) == []

