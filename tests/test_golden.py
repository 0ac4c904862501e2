"""Golden outputs of small sweeps, pinned byte for byte.

Each digest is the SHA-256 of one file that ``skipchurn`` writes.  The runs
cover what the one-topology benchmark workloads do not reach: dispersion
across several topologies, merging topology runs, the config-file path,
uniform churn, and per-search traces and predictor tables written from
worker processes.  A change to any simulated number, report format or random
stream changes a digest, so such a change has to re-pin these on purpose.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from skipchurn import cli
from skipchurn.bench import run_predictor_bench
from skipchurn.engine import Counters
from skipchurn.predictors import PREDICTOR_KINDS

RESULTS = ("results.csv", "results.json")

STABILIZER_SWEEP = [
    "run", "--capacity", "64", "--slots", "12", "--topologies", "3", "--search-cap", "40",
    "--interarrival-mean-seconds", "300", "--seed", "1", "--workers", "1",
    "--stabilizer", "interlaced,kademlia,dks,none", "--predictor", "swdbg", "--backup-size", "8,40",
]

# Tiny backup tables under heavy traffic: thousands of evictions per cell,
# hundreds of them among entries of equal score.
EVICTION_SWEEP = [
    "run", "--capacity", "64", "--slots", "24", "--topologies", "2", "--search-cap", "40",
    "--interarrival-mean-seconds", "300", "--seed", "1", "--workers", "1",
    "--stabilizer", "interlaced", "--predictor", "swdbg,lifetime", "--backup-size", "2,3",
]

# Kademlia buckets and DKS lists under heavy traffic with tiny budgets: at b 2
# and 3 only the lowest one or two levels hold one entry a side; at b 16 every
# level holds one or two.
SMALL_STORE_SWEEP = [
    "run", "--capacity", "64", "--slots", "24", "--topologies", "2", "--search-cap", "40",
    "--interarrival-mean-seconds", "300", "--seed", "1", "--workers", "1",
    "--stabilizer", "kademlia,dks", "--predictor", "swdbg", "--backup-size", "2,3,16",
]

PREDICTOR_SWEEP_CONFIG = """\
# lifetime, LUDP and DBG-3 under uniform churn
capacity = 64
slots = 12
topologies = 3
search-cap = 40
seed = 2
stabilizer = interlaced
predictor = lifetime,ludp,dbg3
backup-size = 8
churn-kind = uniform
uniform-q = 0.3
workers = 1
"""

PREDICTOR_TABLE = [
    "predict-bench", "--capacity", "64", "--slots", "16", "--topologies", "2",
    "--interarrival-mean-seconds", "300", "--seed", "1", "--workers", "1",
]

# The same table under the other churn law: uniform redraws.
PREDICTOR_TABLE_CHURN = {
    "uniform": ["--churn-kind", "uniform", "--uniform-q", "0.3"],
}

GOLDEN = {
    "stabilizer_sweep": {
        "results.csv": "4c676ddc32038e2c34ecf16d71c86dabfb02be3aaaf4d96fa3d136a52047354a",
        "results.json": "dffc5d6fa75cca6ee4e6594a99268df7ce2ba4b1bc69ce3ea5118090c1f9f70c",
    },
    "eviction_sweep": {
        "results.csv": "879e4c4c5fff62098fda637b0a348a82dc891eb0e38659dda0cb59a9a32aa935",
        "results.json": "bc3d7c1038fcd61addf93dae8cf42970e06c1089a67f4629621ca15d9d36d7be",
    },
    "small_store_sweep": {
        "results.csv": "8c26ca4d50e7fc1625daa0304d9d5d6ddb4c527ee78c93ceff07df8f31fafbc7",
        "results.json": "1a8d8755ad8b242ace2524071b3e9b5b4c1f5a0df22217319abd6197f8ceb0a9",
    },
    "predictor_sweep": {
        "results.csv": "19122232dc70c9759d2bfb2c7a3181b42fa6128bb6af8cb89f1ae2e413640ae8",
        "results.json": "f6ab0e4516eea9037b9a6214d7f05bbd6f7f0cd3d87e08915f3ff5fd2aeddac4",
    },
    "predictor_sweep_trace": {
        "trace.ndjson": "d14cf33cf01c4d31b6b07423a88169b2aa1d05ed1d2d6fc9aec6984fb1f902ac",
    },
    "predictor_table": {
        "predictor_errors.csv": "6ad2f689f3efed69f3b98a78efcd4e396385aa231e777972ccad4889583fa4b2",
    },
    "predictor_table_uniform": {
        "predictor_errors.csv": "6eb359d43a596ab96f6c6da3053717fb2680d7938005574ec978c7771263a688",
    },
}


def _digests(out_dir: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def _config_file(tmp_path: Path) -> Path:
    path = tmp_path / "sweep.conf"
    path.write_text(PREDICTOR_SWEEP_CONFIG, encoding="utf-8")
    return path


def test_stabilizer_sweep_over_three_topologies(tmp_path):
    assert cli.main(STABILIZER_SWEEP + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, RESULTS) == GOLDEN["stabilizer_sweep"]


def test_interlaced_sweep_with_heavy_eviction(tmp_path):
    assert cli.main(EVICTION_SWEEP + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, RESULTS) == GOLDEN["eviction_sweep"]


def test_kademlia_and_dks_sweep_with_small_budgets(tmp_path):
    assert cli.main(SMALL_STORE_SWEEP + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, RESULTS) == GOLDEN["small_store_sweep"]


def test_predictor_sweep_from_config_file(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_config_file(tmp_path)), "--out", str(out)]) == 0
    assert _digests(out, RESULTS) == GOLDEN["predictor_sweep"]


def test_traced_run_with_two_workers_gives_same_results(tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--config", str(_config_file(tmp_path)), "--workers", "2", "--trace", "--out", str(out)]
    assert cli.main(argv) == 0
    assert _digests(out, RESULTS) == GOLDEN["predictor_sweep"]
    assert _digests(out, ["trace.ndjson"]) == GOLDEN["predictor_sweep_trace"]


def test_predictor_table(tmp_path):
    assert cli.main(PREDICTOR_TABLE + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, ["predictor_errors.csv"]) == GOLDEN["predictor_table"]


def test_predictor_table_with_two_workers(tmp_path):
    assert cli.main(PREDICTOR_TABLE + ["--workers", "2", "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, ["predictor_errors.csv"]) == GOLDEN["predictor_table"]


@pytest.mark.parametrize("churn", sorted(PREDICTOR_TABLE_CHURN))
def test_predictor_table_under_other_churn(tmp_path, churn):
    assert cli.main(PREDICTOR_TABLE + PREDICTOR_TABLE_CHURN[churn] + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, ["predictor_errors.csv"]) == GOLDEN[f"predictor_table_{churn}"]


@pytest.mark.parametrize("workers", [1, 2])
def test_predictor_table_wide_end_totals(workers):
    # predictor_errors.csv has no wide-end column, so these sums are pinned here.
    args = cli.build_parser().parse_args(PREDICTOR_TABLE)
    config = cli.parse_config(None, cli._overrides_from_args(args)).base
    per_topology = run_predictor_bench(config, PREDICTOR_KINDS, workers)
    total = Counters.sum_of(t for runs in per_topology.values() for t in runs)
    assert total.right_size_sum == 6396.0
    assert total.right_size_samples == 2048
