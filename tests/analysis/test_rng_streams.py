"""Fixture tests for the REPRO81x RNG stream-isolation taint pass."""

import textwrap

from repro.analysis import get_rule
from repro.analysis.engine import analyze_project, analyze_source

FAULTS = "src/repro/faults/fixture.py"
TRAFFIC = "src/repro/traffic/fixture.py"


def run_rule(rule_name, path, source):
    return analyze_source(path, textwrap.dedent(source),
                          [get_rule(rule_name)])


def run_project(rule_name, sources):
    dedented = {path: textwrap.dedent(src)
                for path, src in sources.items()}
    return analyze_project(dedented, [get_rule(rule_name)])


class TestStreamIsolation:
    def test_fault_stream_drawn_in_workload_flags(self):
        # The fault injector hands its (fault-family) stream to a
        # workload generator, which then draws from it: the taint must
        # survive the constructor-argument hop and the self-attribute
        # store before the draw is flagged.
        findings = run_project("rng-stream-isolation", {
            FAULTS: """\
                from repro.util.rng import DeterministicRng

                class Injector:
                    def __init__(self, seed):
                        self.rng = DeterministicRng(seed)

                    def build_generator(self):
                        return Generator(self.rng.fork(2))
                """,
            TRAFFIC: """\
                class Generator:
                    def __init__(self, rng):
                        self.rng = rng

                    def next_packet(self):
                        return self.rng.randint(0, 7)
                """,
        })
        assert len(findings) == 1
        assert findings[0].path == TRAFFIC
        assert "fault-class stream" in findings[0].message

    def test_workload_owns_its_stream_passes(self):
        assert run_rule("rng-stream-isolation", TRAFFIC, """\
            from repro.util.rng import DeterministicRng

            class Generator:
                def __init__(self, seed):
                    self.rng = DeterministicRng(seed).fork(1)

                def next_packet(self):
                    return self.rng.randint(0, 7)
            """) == []

    def test_fault_code_drawing_workload_stream_flags(self):
        findings = run_project("rng-stream-isolation", {
            TRAFFIC: """\
                from repro.util.rng import DeterministicRng

                def make_stream(seed):
                    return build_models(DeterministicRng(seed))
                """,
            FAULTS: """\
                def build_models(rng):
                    return rng.random()
                """,
        })
        assert len(findings) == 1
        assert findings[0].path == FAULTS
        assert "workload stream" in findings[0].message

    def test_fault_code_drawing_fault_stream_passes(self):
        assert run_rule("rng-stream-isolation", FAULTS, """\
            from repro.util.rng import DeterministicRng
            from repro.faults.config import BITFLIP_SALT

            class Injector:
                def __init__(self, seed):
                    self._bitflip_rng = DeterministicRng(seed).fork(
                        BITFLIP_SALT)

                def flip(self):
                    return self._bitflip_rng.randbits(5)
            """) == []


class TestSaltCollision:
    def test_duplicate_literal_salts_flag(self):
        findings = run_rule("rng-salt-collision", FAULTS, """\
            from repro.util.rng import DeterministicRng

            def make(seed):
                rng = DeterministicRng(seed)
                first = rng.fork(3)
                second = rng.fork(3)
                return first, second
            """)
        assert len(findings) == 1
        assert "collides" in findings[0].message

    def test_constant_aliasing_literal_flags(self):
        # BITFLIP_SALT == 1 in repro.faults.config: forking with the
        # literal and the named constant yields the same stream.
        findings = run_rule("rng-salt-collision", FAULTS, """\
            from repro.util.rng import DeterministicRng
            from repro.faults.config import BITFLIP_SALT

            def make(seed):
                rng = DeterministicRng(seed)
                a = rng.fork(1)
                b = rng.fork(BITFLIP_SALT)
                return a, b
            """)
        assert len(findings) == 1

    def test_distinct_salts_pass(self):
        assert run_rule("rng-salt-collision", FAULTS, """\
            from repro.util.rng import DeterministicRng
            from repro.faults.config import BITFLIP_SALT, DROP_SALT

            def make(seed):
                rng = DeterministicRng(seed)
                a = rng.fork(BITFLIP_SALT)
                b = rng.fork(DROP_SALT)
                return a, b
            """) == []

    def test_unresolvable_salts_pass(self):
        # Data-dependent salts (per-router, per-port) cannot collide
        # statically; the rule stays silent rather than guessing.
        assert run_rule("rng-salt-collision", FAULTS, """\
            from repro.util.rng import DeterministicRng

            def make(seed, rid, port):
                rng = DeterministicRng(seed)
                a = rng.fork(rid)
                b = rng.fork(port)
                return a, b
            """) == []

    def test_loop_fork_is_single_site(self):
        # One syntactic fork site executed many times is not a
        # collision — the salts differ at runtime.
        assert run_rule("rng-salt-collision", FAULTS, """\
            from repro.util.rng import DeterministicRng

            def make(seed):
                rng = DeterministicRng(seed)
                return [rng.fork(7) for _ in range(4)]
            """) == []


class TestDrawAccessor:
    def test_bound_draw_accessor_on_fault_stream_flags(self):
        # A hot loop binds the stream's raw draw function once and calls
        # it bare; the accessor load is the audited draw site.
        findings = run_project("rng-stream-isolation", {
            FAULTS: """\
                from repro.util.rng import DeterministicRng

                class Injector:
                    def __init__(self, seed):
                        self.rng = DeterministicRng(seed)

                    def build_generator(self):
                        return Generator(self.rng.fork(2))
                """,
            TRAFFIC: """\
                class Generator:
                    def __init__(self, rng):
                        self.rng = rng

                    def draw(self, n):
                        uniform = self.rng.uniform
                        return [uniform() < 0.5 for _ in range(n)]
                """,
        })
        assert len(findings) == 1
        assert findings[0].path == TRAFFIC
        assert "(uniform)" in findings[0].message

    def test_called_accessor_is_one_draw_site(self):
        findings = run_project("rng-stream-isolation", {
            FAULTS: """\
                from repro.util.rng import DeterministicRng

                class Injector:
                    def __init__(self, seed):
                        self.rng = DeterministicRng(seed)

                    def build_generator(self):
                        return Generator(self.rng.fork(2))
                """,
            TRAFFIC: """\
                class Generator:
                    def __init__(self, rng):
                        self.rng = rng

                    def draw(self):
                        return self.rng.uniform() < 0.5
                """,
        })
        assert len(findings) == 1

    def test_workload_accessor_on_own_stream_passes(self):
        assert run_rule("rng-stream-isolation", TRAFFIC, """\
            from repro.util.rng import DeterministicRng

            class Generator:
                def __init__(self, seed):
                    self.rng = DeterministicRng(seed).fork(1)

                def draw(self):
                    uniform = self.rng.uniform
                    return uniform() < 0.5
            """) == []
