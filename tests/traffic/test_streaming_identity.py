"""Network-level bit-identity of streamed binary replay (DESIGN.md §17).

``StreamingTraceTraffic`` must be indistinguishable from ``TraceTraffic``
to the simulator: identical ``simulation_outputs()`` AND identical
delivered word streams, on every core backend.
"""

import pytest

from repro.harness.experiment import (
    benchmark_trace,
    make_scheme,
    run_trace,
)
from repro.noc import Network, NocConfig
from repro.traffic import (
    StreamingTraceTraffic,
    TraceTraffic,
    save_trace,
    write_trace,
)

CONFIG = NocConfig(mesh_width=4, mesh_height=4)


CORES = ["object", "soa"]


@pytest.fixture(scope="module")
def trace_paths(tmp_path_factory):
    """One recorded benchmark trace in all three representations."""
    tmp = tmp_path_factory.mktemp("traces")
    records = benchmark_trace(CONFIG, "blackscholes", cycles=400, seed=9)
    jsonl = tmp / "trace.jsonl"
    binary = tmp / "trace.rpt"
    save_trace(records, jsonl)
    write_trace(records, binary, n_nodes=CONFIG.n_nodes, chunk_records=64)
    return records, str(jsonl), str(binary)


class TestRunTraceIdentity:
    @pytest.mark.parametrize("core", CORES)
    def test_all_representations_identical(self, trace_paths, core):
        records, jsonl, binary = trace_paths
        outputs = [
            run_trace(CONFIG, "DI-VAXX", trace, warmup=100, measure=250,
                      core=core).simulation_outputs()
            for trace in (records, jsonl, binary)
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_approx_override_identical(self, trace_paths):
        records, _jsonl, binary = trace_paths
        from_list = run_trace(CONFIG, "FP-VAXX", records, warmup=100,
                              measure=250, approx_override=0.6)
        from_binary = run_trace(CONFIG, "FP-VAXX", binary, warmup=100,
                                measure=250, approx_override=0.6)
        assert from_list.simulation_outputs() == \
            from_binary.simulation_outputs()

    def test_record_window_identical(self, trace_paths):
        records, _jsonl, binary = trace_paths
        ordered = sorted(records, key=lambda r: r.cycle)
        from_list = run_trace(CONFIG, "Baseline", ordered[40:160],
                              warmup=50, measure=150)
        windowed = run_trace(CONFIG, "Baseline", binary, warmup=50,
                             measure=150, trace_start=40, trace_stop=160)
        assert from_list.simulation_outputs() == \
            windowed.simulation_outputs()


class TestDeliveredWordStreams:
    def _delivered(self, source):
        deliveries = []

        def on_deliver(packet, block, now):
            deliveries.append((
                packet.src, packet.dst, packet.kind,
                tuple(block.words) if block is not None else None, now))

        network = Network(CONFIG, make_scheme("DI-VAXX", CONFIG.n_nodes),
                          on_deliver=on_deliver)
        network.set_traffic(source)
        network.run(600)
        return deliveries, network.stats.simulation_outputs()

    def test_streamed_words_bit_identical(self, trace_paths):
        records, _jsonl, binary = trace_paths
        ref_deliveries, ref_outputs = self._delivered(
            TraceTraffic(list(records), loop=True))
        stream_deliveries, stream_outputs = self._delivered(
            StreamingTraceTraffic(binary, loop=True))
        assert ref_outputs == stream_outputs
        assert ref_deliveries == stream_deliveries
        assert ref_deliveries  # the workload actually delivered data

