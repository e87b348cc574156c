"""numpy is an optional extra: the simulator must run without it.

The SoA and object cores are pure stdlib; only ``repro.apps`` and the
figures need numpy.  The check runs in a subprocess with a meta-path
blocker so an ambient numpy installation cannot mask a stray import.
"""

import subprocess
import sys
import textwrap

_BLOCKER = """
import sys

class _BlockNumpy:
    def find_module(self, name, path=None):  # pragma: no cover - trivial
        return None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")
        return None

sys.meta_path.insert(0, _BlockNumpy())
"""


def _run_blocked(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _BLOCKER + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=300)


def test_soa_and_object_cores_run_without_numpy():
    proc = _run_blocked("""
        from repro.harness.experiment import run_trace
        from repro.noc import NocConfig
        from repro.traffic import SyntheticTraffic, record_trace

        config = NocConfig(mesh_width=2, mesh_height=2, concentration=1)
        source = SyntheticTraffic(config, injection_rate=0.05, seed=3)
        trace = record_trace(source, 300)
        ref = run_trace(config, "FP-VAXX", trace, 20, 300, core="object")
        got = run_trace(config, "FP-VAXX", trace, 20, 300, core="soa")
        assert got.simulation_outputs() == ref.simulation_outputs()
        assert ref.packets_delivered > 0
        print("OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout

