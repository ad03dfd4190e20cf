"""The shared benchmark harness: timing core, registry, artifact format."""

import json

import pytest

from repro.bench import (
    BenchResult,
    TimingStats,
    benchmark_names,
    run_benchmarks,
    time_callable,
    write_result,
)
from repro.errors import ConfigError


class TestTimeCallable:
    def test_counts_and_stats(self):
        calls = []
        stats = time_callable(lambda: calls.append(1), warmup=2, repeats=5)
        assert len(calls) == 7
        assert stats.repeats == 5 and len(stats.times_s) == 5
        assert stats.best_s <= stats.median_s
        assert stats.best_s <= stats.mean_s
        assert all(t >= 0 for t in stats.times_s)

    def test_setup_runs_outside_timing(self):
        order = []
        time_callable(
            lambda: order.append("fn"),
            warmup=1,
            repeats=2,
            setup=lambda: order.append("setup"),
        )
        assert order == ["setup", "fn", "setup", "fn", "setup", "fn"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            time_callable(lambda: None, warmup=-1)
        with pytest.raises(ConfigError):
            time_callable(lambda: None, repeats=0)

    def test_median_odd(self):
        stats = TimingStats(warmup=0, repeats=3, times_s=(3.0, 1.0, 2.0))
        assert stats.median_s == 2.0
        assert stats.best_s == 1.0


class TestRegistry:
    def test_builtin_suites_registered(self):
        names = benchmark_names()
        for expected in (
            "emulator_forward",
            "fft_matvec",
            "spectral_matvec",
            "engine_cache",
        ):
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            run_benchmarks(["no-such-suite"])

    def test_quick_suite_runs(self):
        (result,) = run_benchmarks(["engine_cache"], quick=True)
        assert result.name == "engine_cache"
        assert result.quick
        assert result.metrics["speedup"] > 0
        assert set(result.timings) == {"cold_build", "cached_build"}


class TestArtifacts:
    def test_write_result_schema(self, tmp_path):
        result = BenchResult("demo", metrics={"speedup": 2.0}, notes="n")
        result.add_timing(
            "fast", TimingStats(warmup=1, repeats=2, times_s=(0.1, 0.2))
        )
        path = write_result(result, tmp_path)
        assert path.name == "BENCH_demo.json"
        payload = json.loads(path.read_text())
        assert payload["name"] == "demo"
        assert payload["metrics"]["speedup"] == 2.0
        assert payload["timings"]["fast"]["repeats"] == 2
        assert payload["timings"]["fast"]["median_s"] == pytest.approx(0.15)
        assert payload["timings"]["fast"]["times_s"] == [0.1, 0.2]
        assert "python" in payload["environment"]
        assert "cpus" in payload["environment"]
        assert payload["created_unix"] > 0

    def test_describe_mentions_timings_and_metrics(self):
        result = BenchResult("demo", metrics={"speedup": 2.0})
        result.add_timing(
            "fast", TimingStats(warmup=0, repeats=1, times_s=(0.5,))
        )
        text = result.describe()
        assert "demo" in text and "fast" in text and "speedup" in text


class TestScalingPeak:
    """Worker-scaling is only reportable when the box has the cores.

    The guard behind the netserver suite's ``scaling_peak_vs_1w``: a
    1-CPU container once recorded a straight-faced ``1.0``, which reads
    as "scaling is broken" when it actually means "nothing was measured".
    """

    def test_measurable_box_reports_peak_ratio(self):
        from repro.bench.suites import _scaling_peak

        peak, note = _scaling_peak(8, (1, 2, 4), {1: 100.0, 2: 180.0, 4: 310.0})
        assert peak == 3.1
        assert note is None

    def test_underprovisioned_box_reports_null_with_reason(self):
        from repro.bench.suites import _scaling_peak

        peak, note = _scaling_peak(1, (1, 2), {1: 100.0, 2: 101.0})
        assert peak is None
        assert "1 CPU(s) < 2 workers" in note
        assert "re-record" in note

    def test_unknown_cpu_count_is_not_measurable(self):
        from repro.bench.suites import _scaling_peak

        peak, note = _scaling_peak(None, (1, 2), {1: 100.0, 2: 150.0})
        assert peak is None
        assert note is not None

    def test_exact_core_match_is_measurable(self):
        from repro.bench.suites import _scaling_peak

        peak, note = _scaling_peak(2, (1, 2), {1: 100.0, 2: 150.0})
        assert peak == 1.5
        assert note is None


class TestCpuGatedKeysAreStable:
    """A suite writes the same metric keys on every box.

    ``repro bench --compare`` counts a vanished key as a dropped probe, so
    a note key written only on small boxes made a fresh 2-CPU run of the
    gateway suite fail against the committed 1-CPU artifact.  The
    committed ``BENCH_netserver.json`` (2 CPUs, under 4 workers) was
    recorded below its suite's CPU gate; a quick run that believes it has
    8 CPUs must write exactly the committed metric keys of every serving
    suite, gated or not.
    """

    @pytest.mark.parametrize("suite", ["gateway", "netserver",
                                       "runtime_session", "rnnlm_generate"])
    def test_eight_cpu_run_writes_the_committed_keys(self, suite,
                                                     monkeypatch):
        from pathlib import Path

        from repro.bench import environment_info, suites

        committed = json.loads(
            (Path(__file__).parents[2] / f"BENCH_{suite}.json").read_text()
        )
        monkeypatch.setattr(suites, "environment_info",
                            lambda: {**environment_info(), "cpus": 8})
        (result,) = run_benchmarks([suite], quick=True)
        assert set(result.metrics) == set(committed["metrics"])

    def test_added_hop_gate(self):
        from repro.bench.suites import _added_hop

        assert _added_hop(8, 900.0, 1000.0) == (100.0, None)
        hop, note = _added_hop(1, 900.0, 1000.0)
        assert hop is None and "1 CPU(s)" in note and "re-record" in note


class TestServedGateTrips:
    """A serving suite's byte gate raises when a served output differs."""

    def test_perturbed_baseline_raises(self, monkeypatch):
        from repro.runtime import drills

        baseline = drills.PushPlan.baseline

        def perturbed(plan):
            expected = baseline(plan)
            expected[1] = expected[1] + 1e-3
            return expected

        monkeypatch.setattr(drills.PushPlan, "baseline", perturbed)
        with pytest.raises(AssertionError,
                           match=r"differ from the baseline on stream\(s\) \[1\]"):
            run_benchmarks(["runtime_session"], quick=True)
