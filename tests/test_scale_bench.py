"""The synthetic-mall generator and the scale bench harness."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench import scale as S
from repro.bench.scale import run_scale, run_scale_size
from repro.bench.reporting import latency_percentiles
from repro.datasets.synth import (SynthMallConfig, build_synth_mall,
                                  mall_stats, venue_diameter)
from repro.space.serialize import space_to_dict


class TestSynthMall:
    def test_deterministic(self):
        cfg = SynthMallConfig(floors=2, rooms_per_floor=16,
                              words_per_room=4, seed=3)
        a_space, a_kindex = build_synth_mall(cfg)
        b_space, b_kindex = build_synth_mall(cfg)
        assert (space_to_dict(a_space, a_kindex)
                == space_to_dict(b_space, b_kindex))

    def test_seed_changes_assignment(self):
        base = SynthMallConfig(floors=2, rooms_per_floor=16,
                               words_per_room=4, seed=3)
        other = SynthMallConfig(floors=2, rooms_per_floor=16,
                                words_per_room=4, seed=4)
        a = space_to_dict(*build_synth_mall(base))
        b = space_to_dict(*build_synth_mall(other))
        assert a["partitions"] == b["partitions"]  # geometry is seedless
        assert a["keywords"] != b["keywords"]

    def test_floors_scale_the_venue(self):
        small, _ = build_synth_mall(SynthMallConfig(
            floors=1, rooms_per_floor=16, words_per_room=4))
        tall, _ = build_synth_mall(SynthMallConfig(
            floors=3, rooms_per_floor=16, words_per_room=4))
        assert len(tall.partitions) > 2 * len(small.partitions)
        assert venue_diameter(tall) > venue_diameter(small)

    def test_mall_stats_keys(self):
        space, kindex = build_synth_mall(SynthMallConfig(
            floors=1, rooms_per_floor=16, words_per_room=4))
        stats = mall_stats(space, kindex)
        assert set(stats) == {"partitions", "doors", "iwords", "twords"}
        assert stats["doors"] > stats["partitions"] > 0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SynthMallConfig(floors=0)
        with pytest.raises(ValueError):
            SynthMallConfig(rooms_per_floor=4)


class TestLatencyPercentiles:
    def test_empty(self):
        assert latency_percentiles([]) == {}

    def test_nearest_rank(self):
        pct = latency_percentiles([0.001 * (i + 1) for i in range(100)])
        assert pct["p50_ms"] == pytest.approx(50.0)
        assert pct["p95_ms"] == pytest.approx(95.0)
        assert pct["p99_ms"] == pytest.approx(99.0)
        assert pct["max_ms"] == pytest.approx(100.0)

    def test_single_sample(self):
        pct = latency_percentiles([0.002])
        assert pct["p50_ms"] == pct["p99_ms"] == pytest.approx(2.0)


@pytest.mark.slow
class TestScaleBench:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scale_size(floors=2, rooms_per_floor=16,
                              words_per_room=4, seed=7, pool=4, repeat=1,
                              qw_size=3)

    def test_identity_verified_across_modes(self, result):
        assert result["verified_identical"] is True
        assert result["mode"] == "scale"
        assert result["queries"] == 4
        assert result["non_empty_frac"] == 1.0

    def test_entry_carries_all_series(self, result):
        for key in ("array_qps", "dict_qps", "snapshot_v2_qps",
                    "speedup_vs_dict", "floors", "partitions", "doors",
                    "venue_build_seconds", "index_build_seconds"):
            assert key in result, key
        for mode in ("array", "dict", "snapshot_v2"):
            pct = result["latency_ms"][mode]
            assert {"p50_ms", "p95_ms", "p99_ms"} <= set(pct)
        cold = result["cold_start"]
        assert cold["json_load_s"] > 0 and cold["binary_load_s"] > 0
        assert cold["json_bytes"] > 0 and cold["binary_bytes"] > 0

    def test_trajectory_append(self, tmp_path):
        artifact = tmp_path / "traj.json"
        results = run_scale(floors=[1], rooms_per_floor=16,
                            words_per_room=4, pool=3, repeat=1,
                            qw_size=2, artifact=str(artifact))
        assert len(results) == 1
        doc = json.loads(artifact.read_text())
        assert doc["format"] == "repro-bench-trajectory"
        entries = [e for e in doc["entries"] if e.get("mode") == "scale"]
        assert len(entries) == 1
        assert entries[0]["verified_identical"] is True

    def test_smoke_gate_passes_on_paper_queries(self, tmp_path):
        assert S.main(["--smoke", "--artifact",
                       str(tmp_path / "smoke.json")]) == 0

    def test_smoke_gate_fails_on_empty_answers(self, tmp_path,
                                               monkeypatch, capsys):
        """A stream whose every answer is empty — Δ far below the
        endpoint separation — is identical across the cores and must
        still fail the smoke."""
        paper_stream = S.build_scale_stream

        def infeasible_stream(engine, **kwargs):
            return [dataclasses.replace(q, delta=1e-3)
                    for q in paper_stream(engine, **kwargs)]

        monkeypatch.setattr(S, "build_scale_stream", infeasible_stream)
        artifact = tmp_path / "smoke.json"
        assert S.main(["--smoke", "--artifact", str(artifact)]) == 1
        assert "non-empty answer share [0.0]" in capsys.readouterr().out
        entry = json.loads(artifact.read_text())["entries"][-1]
        assert entry["verified_identical"] is True
        assert entry["non_empty_frac"] == 0.0
