"""Per-rule good/bad fixture tests for the invariant linter.

Every rule gets at least one *failing* fixture (the rule fires) and one
*passing* fixture (the idiomatic fix is accepted), plus scope checks that
the rule stays inside its intended packages.  Fixtures are inline source
strings so scanning ``tests/`` with the linter itself stays clean.
"""

import textwrap

import pytest

from repro.analysis import Severity, all_rules, get_rule
from repro.analysis.engine import analyze_source

#: Synthetic paths that land fixtures in each scope of interest.
NOC = "src/repro/noc/fixture.py"
CORE = "src/repro/core/fixture.py"
UTIL_RNG = "src/repro/util/rng.py"
UTIL_BITOPS = "src/repro/util/bitops.py"
HARNESS = "src/repro/harness/fixture.py"
APPS = "src/repro/apps/fixture.py"


def run_rule(rule_name, path, source):
    """Findings of one rule over one in-memory fixture module."""
    return analyze_source(path, textwrap.dedent(source),
                          [get_rule(rule_name)])


class TestBannedEntropyImport:
    def test_import_random_flags(self):
        findings = run_rule("banned-import", NOC, "import random\n")
        assert len(findings) == 1
        assert findings[0].rule == "banned-import"
        assert findings[0].severity is Severity.ERROR

    def test_from_import_flags(self):
        assert run_rule("banned-import", APPS,
                        "from random import Random\n")

    def test_uuid_flags(self):
        assert run_rule("banned-import", CORE, "import uuid\n")

    def test_rng_module_is_exempt(self):
        assert run_rule("banned-import", UTIL_RNG, "import random\n") == []

    def test_clean_import_passes(self):
        assert run_rule("banned-import", NOC,
                        "from repro.util.rng import DeterministicRng\n") == []


class TestWallClock:
    BAD = """\
        import time

        def stamp():
            return time.time()
        """

    def test_time_time_flags(self):
        findings = run_rule("wall-clock", NOC, self.BAD)
        assert len(findings) == 1
        assert "time.time()" in findings[0].message

    def test_datetime_now_flags(self):
        assert run_rule("wall-clock", CORE, """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """)

    def test_os_urandom_flags(self):
        assert run_rule("wall-clock", NOC, """\
            import os

            def entropy():
                return os.urandom(4)
            """)

    def test_harness_is_out_of_scope(self):
        # Progress timers in the harness are presentation, not simulation.
        assert run_rule("wall-clock", HARNESS, self.BAD) == []

    def test_cycle_counter_passes(self):
        assert run_rule("wall-clock", NOC, """\
            def stamp(network):
                return network.stats.cycles
            """) == []


class TestUnorderedIteration:
    def test_set_literal_iteration_flags(self):
        findings = run_rule("unordered-iter", NOC, """\
            def visit(nodes):
                for node in {1, 2, 3}:
                    nodes.append(node)
            """)
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR

    def test_set_valued_local_flags(self):
        assert run_rule("unordered-iter", NOC, """\
            def visit(items):
                pending = set(items)
                return [x for x in pending]
            """)

    def test_keys_iteration_warns(self):
        findings = run_rule("unordered-iter", NOC, """\
            def visit(table):
                for key in table.keys():
                    yield key
            """)
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING

    def test_sorted_wrapper_passes(self):
        assert run_rule("unordered-iter", NOC, """\
            def visit(items):
                pending = set(items)
                return [x for x in sorted(pending)]
            """) == []

    def test_harness_is_out_of_scope(self):
        assert run_rule("unordered-iter", HARNESS, """\
            def visit():
                return [x for x in {1, 2}]
            """) == []


class TestShiftRange:
    def test_shift_32_on_variable_flags(self):
        findings = run_rule("shift-range", NOC, """\
            def overflow(word):
                return word << 32
            """)
        assert len(findings) == 1
        assert "32" in findings[0].message

    def test_negative_shift_flags(self):
        assert run_rule("shift-range", CORE, """\
            def bad(word):
                return word >> -1
            """)

    def test_constant_modulus_passes(self):
        # ``1 << 32`` builds the two's-complement modulus: deliberate.
        assert run_rule("shift-range", CORE, """\
            MODULUS = 1 << 32
            """) == []

    def test_known_constant_amount_flags(self):
        # WORD_BITS folds to 32 via the known-constants table.
        assert run_rule("shift-range", CORE, """\
            def bad(word):
                return word << WORD_BITS
            """)

    def test_in_range_shift_passes(self):
        assert run_rule("shift-range", NOC, """\
            def ok(word):
                return (word << 16) & 0xFFFFFFFF
            """) == []


class TestUnmaskedWordArithmetic:
    def test_unmasked_add_flags(self):
        findings = run_rule("unmasked-word-arith", NOC, """\
            def bump(word):
                return word + 1
            """)
        assert len(findings) == 1
        assert "WORD_MASK" in findings[0].message

    def test_masked_add_passes(self):
        assert run_rule("unmasked-word-arith", NOC, """\
            def bump(word):
                return (word + 1) & WORD_MASK
            """) == []

    def test_to_unsigned_normalizer_passes(self):
        assert run_rule("unmasked-word-arith", CORE, """\
            def bump(word):
                return to_unsigned(word + 1)
            """) == []

    def test_non_wordish_names_pass(self):
        assert run_rule("unmasked-word-arith", NOC, """\
            def bump(count):
                return count + 1
            """) == []

    def test_traffic_is_out_of_scope(self):
        assert run_rule("unmasked-word-arith",
                        "src/repro/traffic/fixture.py", """\
            def bump(word):
                return word + 1
            """) == []


class TestFloatEquality:
    def test_float_literal_eq_flags(self):
        findings = run_rule("float-eq", NOC, """\
            def check(x):
                return x == 1.0
            """)
        assert len(findings) == 1

    def test_float_call_ne_flags(self):
        assert run_rule("float-eq", APPS, """\
            def check(x):
                return x != float("inf")
            """)

    def test_bitops_is_exempt(self):
        assert run_rule("float-eq", UTIL_BITOPS, """\
            def check(x):
                return x == 1.0
            """) == []

    def test_int_eq_passes(self):
        assert run_rule("float-eq", NOC, """\
            def check(x):
                return x == 1
            """) == []

    def test_isclose_passes(self):
        assert run_rule("float-eq", NOC, """\
            import math

            def check(x):
                return math.isclose(x, 1.0)
            """) == []


class TestNonPicklablePayload:
    def test_lambda_into_parallel_map_flags(self):
        findings = run_rule("parallel-payload", HARNESS, """\
            def sweep(specs):
                return parallel_map(lambda s: s, specs)
            """)
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_nested_function_flags(self):
        assert run_rule("parallel-payload", HARNESS, """\
            def sweep(specs):
                def worker(spec):
                    return spec
                return parallel_map(worker, specs)
            """)

    def test_generator_into_executor_map_flags(self):
        assert run_rule("parallel-payload", HARNESS, """\
            def sweep(executor, specs):
                return executor.map(run_one, (s for s in specs))
            """)

    def test_module_level_function_passes(self):
        assert run_rule("parallel-payload", HARNESS, """\
            def run_one(spec):
                return spec

            def sweep(specs):
                return parallel_map(run_one, specs)
            """) == []

    def test_tests_are_in_scope(self):
        assert run_rule("parallel-payload", "tests/harness/fixture.py", """\
            def test_sweep(specs):
                return parallel_map(lambda s: s, specs)
            """)

    def test_open_handle_into_runspec_flags(self):
        findings = run_rule("parallel-payload", HARNESS, """\
            def shard(path):
                return RunSpec(trace=TraceFile(path))
            """)
        assert len(findings) == 1
        assert "open handle" in findings[0].message
        assert "path" in findings[0].message

    def test_open_call_into_executor_submit_flags(self):
        assert run_rule("parallel-payload", HARNESS, """\
            def sweep(executor, path):
                return executor.submit(run_one, open(path))
            """)

    def test_mmap_attribute_call_flags(self):
        assert run_rule("parallel-payload", HARNESS, """\
            import mmap

            def sweep(path, fh):
                return parallel_map(run_one,
                                    mmap.mmap(fh.fileno(), 0))
            """)

    def test_path_and_offsets_pass(self):
        assert run_rule("parallel-payload", HARNESS, """\
            def shard(path):
                return RunSpec(trace_path=str(path), trace_start=0,
                               trace_stop=1000)
            """) == []


class TestMutableModuleState:
    def test_empty_dict_flags_as_warning(self):
        findings = run_rule("mutable-global", NOC, "cache = {}\n")
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING

    def test_constructor_call_flags(self):
        assert run_rule("mutable-global", CORE,
                        "registry = dict()\n")

    def test_populated_allcaps_registry_passes(self):
        assert run_rule("mutable-global", NOC,
                        'PATTERNS = {"zero": 0}\n') == []

    def test_empty_allcaps_still_flags(self):
        # Empty ALL_CAPS containers accumulate state after import: flagged.
        assert run_rule("mutable-global", NOC, "PATTERNS = {}\n")

    def test_dunder_passes(self):
        assert run_rule("mutable-global", NOC,
                        '__all__ = ["a", "b"]\n') == []

    def test_apps_is_out_of_scope(self):
        assert run_rule("mutable-global", APPS, "cache = {}\n") == []


class TestMutableDefaultArg:
    def test_list_default_flags(self):
        findings = run_rule("mutable-default", NOC, """\
            def collect(items=[]):
                return items
            """)
        assert len(findings) == 1

    def test_constructor_default_flags(self):
        assert run_rule("mutable-default", HARNESS, """\
            def collect(items=list()):
                return items
            """)

    def test_kwonly_dict_default_flags(self):
        assert run_rule("mutable-default", CORE, """\
            def collect(*, table={}):
                return table
            """)

    def test_none_default_passes(self):
        assert run_rule("mutable-default", NOC, """\
            def collect(items=None):
                return items if items is not None else []
            """) == []


class TestBlanketExcept:
    def test_bare_except_flags(self):
        findings = run_rule("bare-except", NOC, """\
            def load(path):
                try:
                    return open(path)
                except:
                    return None
            """)
        assert len(findings) == 1

    def test_blanket_exception_flags(self):
        assert run_rule("bare-except", HARNESS, """\
            def load(path):
                try:
                    return open(path)
                except Exception:
                    return None
            """)

    def test_reraise_passes(self):
        assert run_rule("bare-except", HARNESS, """\
            def load(path):
                try:
                    return open(path)
                except Exception:
                    cleanup()
                    raise
            """) == []

    def test_specific_exception_passes(self):
        assert run_rule("bare-except", NOC, """\
            def load(path):
                try:
                    return open(path)
                except FileNotFoundError:
                    return None
            """) == []


class TestMissingSlots:
    def test_plain_dataclass_under_noc_flags(self):
        findings = run_rule("missing-slots", NOC, """\
            from dataclasses import dataclass

            @dataclass
            class Credit:
                count: int = 0
            """)
        assert len(findings) == 1
        assert "slots=True" in findings[0].message

    def test_dataclass_with_slots_passes(self):
        assert run_rule("missing-slots", NOC, """\
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Credit:
                count: int = 0
            """) == []

    def test_hot_class_without_slots_flags(self):
        assert run_rule("missing-slots", NOC, """\
            class Flit:
                def __init__(self):
                    self.kind = 0
            """)

    def test_hot_class_with_slots_passes(self):
        assert run_rule("missing-slots", NOC, """\
            class Flit:
                __slots__ = ("kind",)

                def __init__(self):
                    self.kind = 0
            """) == []

    def test_core_is_out_of_scope(self):
        assert run_rule("missing-slots", CORE, """\
            from dataclasses import dataclass

            @dataclass
            class Summary:
                count: int = 0
            """) == []


class TestUntypedDef:
    def test_unannotated_function_flags(self):
        findings = run_rule("untyped-def", CORE, """\
            def scale(value):
                return value * 2
            """)
        assert len(findings) == 1
        assert "'value'" in findings[0].message
        assert "return type" in findings[0].message

    def test_missing_return_only_flags(self):
        findings = run_rule("untyped-def", CORE, """\
            def scale(value: int):
                return value * 2
            """)
        assert len(findings) == 1
        assert "return type" in findings[0].message

    def test_fully_annotated_passes(self):
        assert run_rule("untyped-def", CORE, """\
            def scale(value: int) -> int:
                return value * 2
            """) == []

    def test_self_and_init_are_exempt(self):
        assert run_rule("untyped-def", CORE, """\
            class Engine:
                def __init__(self, size: int):
                    self.size = size

                def reset(self) -> None:
                    self.size = 0
            """) == []

    def test_noc_is_out_of_scope(self):
        # repro.noc is hot-path code outside the strict typing gate.
        assert run_rule("untyped-def", NOC, """\
            def scale(value):
                return value * 2
            """) == []


class TestNocStateMutation:
    def test_direct_credit_write_flags(self):
        findings = run_rule("noc-state-mutation", HARNESS, """\
            def hack(router):
                router.out_credits[4][0] += 1
            """)
        assert len(findings) == 1
        assert "out_credits" in findings[0].message
        assert findings[0].severity is Severity.ERROR

    def test_occupancy_cache_assignment_flags(self):
        assert run_rule("noc-state-mutation", NOC, """\
            def reset(router):
                router._buffered = 0
            """)

    def test_container_method_mutation_flags(self):
        assert run_rule("noc-state-mutation", NOC, """\
            def poke(router, port, vc):
                router._occupied.add(port * 4 + vc)
            """)

    def test_delete_flags(self):
        assert run_rule("noc-state-mutation", HARNESS, """\
            def strip(ni):
                del ni._credits[0]
            """)

    def test_reads_pass(self):
        assert run_rule("noc-state-mutation", HARNESS, """\
            def peek(router, port, vc):
                free = router.out_credits[port][vc]
                owner = router.out_owner[port][vc]
                return free, owner
            """) == []

    def test_router_module_is_exempt(self):
        assert run_rule("noc-state-mutation", "src/repro/noc/router.py", """\
            def credit(self, port, vc):
                self.out_credits[port][vc] += 1
            """) == []

    def test_ni_module_is_exempt(self):
        assert run_rule("noc-state-mutation", "src/repro/noc/ni.py", """\
            def restore(self, vc):
                self._credits[vc] += 1
            """) == []


class TestConfigFieldValidation:
    CONFIG = "src/repro/noc/config.py"

    def test_unregistered_field_flags(self):
        findings = run_rule("config-field-validation", self.CONFIG, """\
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class NocConfig:
                mesh_width: int = 4
                brand_new_knob: int = 7
            """)
        assert len(findings) == 1
        assert "brand_new_knob" in findings[0].message

    def test_registered_fields_pass(self):
        assert run_rule("config-field-validation", self.CONFIG, """\
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class NocConfig:
                mesh_width: int = 4
                mesh_height: int = 4
                sanitize: bool = False
            """) == []

    def test_classvar_and_private_fields_skipped(self):
        assert run_rule("config-field-validation", self.CONFIG, """\
            from typing import ClassVar
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class NocConfig:
                SCHEMA: ClassVar[int] = 1
                _scratch: int = 0
            """) == []

    def test_other_classes_ignored(self):
        assert run_rule("config-field-validation", self.CONFIG, """\
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class SomethingElse:
                mystery_knob: int = 3
            """) == []

    def test_other_modules_out_of_scope(self):
        assert run_rule("config-field-validation", NOC, """\
            class NocConfig:
                mystery_knob: int = 3
            """) == []


class TestAsyncBlocking:
    """REPRO313: no blocking calls on the campaign service's event loop."""

    SERVICE = "src/repro/service/fixture.py"

    def test_time_sleep_in_async_def_flags(self):
        findings = run_rule("async-blocking", self.SERVICE, """\
            import time

            async def tick():
                time.sleep(0.1)
            """)
        assert len(findings) == 1
        assert "asyncio.sleep" in findings[0].message

    def test_from_import_sleep_flags(self):
        assert run_rule("async-blocking", self.SERVICE, """\
            from time import sleep

            async def tick():
                sleep(0.1)
            """)

    def test_sync_open_in_async_def_flags(self):
        findings = run_rule("async-blocking", self.SERVICE, """\
            async def slurp(path):
                with open(path) as fh:
                    return fh.read()
            """)
        assert len(findings) == 1
        assert "run_in_executor" in findings[0].message

    def test_submit_result_chain_flags(self):
        findings = run_rule("async-blocking", self.SERVICE, """\
            async def run(pool, spec):
                return pool.submit(go, spec).result()
            """)
        assert len(findings) == 1
        assert "result()" in findings[0].message

    def test_await_asyncio_sleep_passes(self):
        assert run_rule("async-blocking", self.SERVICE, """\
            import asyncio

            async def tick():
                await asyncio.sleep(0.1)
            """) == []

    def test_sync_function_is_out_of_scope(self):
        """Blocking calls in ordinary sync helpers are exactly where the
        blocking work is supposed to live (run_in_executor targets)."""
        assert run_rule("async-blocking", self.SERVICE, """\
            import time

            def tick():
                time.sleep(0.1)

            def slurp(path):
                with open(path) as fh:
                    return fh.read()
            """) == []

    def test_nested_sync_helper_passes(self):
        assert run_rule("async-blocking", self.SERVICE, """\
            async def outer(loop):
                def helper(path):
                    with open(path) as fh:
                        return fh.read()
                return await loop.run_in_executor(None, helper, "x")
            """) == []

    def test_awaited_executor_future_passes(self):
        assert run_rule("async-blocking", self.SERVICE, """\
            async def run(loop, pool, spec):
                return await loop.run_in_executor(pool, go, spec)
            """) == []

    def test_other_packages_out_of_scope(self):
        assert run_rule("async-blocking", HARNESS, """\
            import time

            async def tick():
                time.sleep(0.1)
            """) == []


class TestRegistry:
    def test_at_least_twelve_rules(self):
        assert len(all_rules()) >= 12

    def test_codes_and_names_unique(self):
        rules = all_rules()
        assert len({r.code for r in rules}) == len(rules)
        assert len({r.name for r in rules}) == len(rules)

    def test_every_rule_states_its_invariant(self):
        for rule in all_rules():
            assert rule.invariant, rule.name

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("no-such-rule")
