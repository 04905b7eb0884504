"""The common random numbers are pinned: the BER records of a fixed sweep must
hash to the values stored with the benchmark (linkbench/reference.json).  A
change to any random stream (payload, noise) or to the link's arithmetic
fails here, not only in a benchmark run."""

import json
import sys
from pathlib import Path

import pytest

LINKBENCH = Path(__file__).resolve().parents[1] / "linkbench"
sys.path.insert(0, str(LINKBENCH))

import workloads  # noqa: E402

from mslink.harness import ExperimentConfig, run_ber_sweep  # noqa: E402


@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
def test_ber_records_match_the_benchmark_reference(mode):
    ref = json.loads(workloads.REFERENCE.read_text())
    cfg = ExperimentConfig(mode=mode, snr_list=workloads.GRID,
                           frames_per_point=workloads.CHECK_FRAMES,
                           base_seed=ref["seed"])
    assert workloads.ber_hash(run_ber_sweep(cfg)) == ref[mode]
