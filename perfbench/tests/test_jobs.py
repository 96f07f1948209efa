import itertools
import json
import os
from collections import Counter

import pytest

from perfbench import run
from perfbench.workloads import BLOCK, WORKLOADS, jobs


def _first(workload, seed, n=12, work_dir="w"):
    return list(itertools.islice(jobs(workload, seed, work_dir), n))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_jobs(workload):
    assert _first(workload, 7) == _first(workload, 7)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_other_jobs(workload):
    assert _first(workload, 7) != _first(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warmup_stream_is_seeded_and_apart_from_timed_jobs(workload):
    first = next(jobs(workload, 7, "w", warmup=True))
    assert first == next(jobs(workload, 7, "w", warmup=True))
    if workload == "oracle":
        timed = {j.params["t"] for j in _first(workload, 7, n=60)}
        assert first.params["t"] not in timed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_orders_come_in_balanced_blocks(workload):
    ells = [j.params["ell"] for j in _first(workload, 3, n=30)]
    block = BLOCK.get(workload, 3)
    for start in range(0, 30, block):
        counts = Counter(ells[start : start + block])
        assert len(counts) == 3 and len(set(counts.values())) == 1
    assert set(Counter(ells).values()) == {10}


def test_oracle_heights_cover_every_sixth_of_the_window():
    heights = [j.params["t"] for j in _first("oracle", 4, n=30)]
    for start in range(0, 30, 6):
        bins = {int((t / 1e5 - 1.0) * 6) for t in heights[start : start + 6]}
        assert bins == set(range(6))


def test_jobs_write_only_under_work_dir(tmp_path):
    for workload in WORKLOADS:
        for job in _first(workload, 1, n=3, work_dir=str(tmp_path)):
            for argv, out in zip(job.steps, job.outputs):
                assert argv[-2:] == ("--output", out)
                assert os.path.dirname(out) == str(tmp_path)


def test_oracle_heights_in_window():
    for job in _first("oracle", 5, n=30):
        assert 1e5 <= job.params["t"] <= 2e5


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("x,b", [(3, 3), (13, 2), (17, 3)])
def test_log_derivative_reference_matches_enumeration(x, b):
    from rzeta.resonator import ResonatorSpec, S_brute, resonator_cardinality

    from perfbench.workloads import s_over_m_reference

    spec = ResonatorSpec(x, b)
    size = resonator_cardinality(spec)
    for ell, value in enumerate(s_over_m_reference(x, b, 3)):
        assert float(value) * size == pytest.approx(S_brute(spec, ell), rel=1e-12)
