"""Measure a commit's baseline and write it to ``perfbench/reference.json``.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 --seconds 40 [--traced]

Runs ``run.py`` once per workload and seed (untraced), and with
``--traced`` once more per workload with ``--trace 1`` on the first
seed.  ``--workloads`` re-measures only the named workloads and keeps
the others' recorded baselines.  It records, per workload and end-to-end metric, the median and
quartiles over the seeds and their spread (quartile distance over the
median), next to everything a later comparison needs: the workload
settings and seeds, the tail percentiles, the metric bounds, the
layer-to-metric map and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark's own settings)

#: The seed kept out of tuning, for checking later claims.
HELD_OUT_SEED = 2027

#: Which end-to-end metric each layer metric should move, on which
#: workload (and where it should stay flat).
LAYER_MAP = {
    "matchers.vote.*, voting.merge.*, matchers.profile.*, match.engine.*": {
        "moves": {"case_study": ["mean_ms_at_ref", "ops_per_s_at_ref", "full_match_s (report)"]},
        "flat": ["corpus_query", "served_mix mean_ms_at_ref"],
    },
    "matchers.score_pairs.*, batch.blocking.*, batch.warm.*, batch.runner.*, batch.candidate_fraction": {
        "moves": {
            "case_study": ["auto_match_s (report)", "ops_per_s_at_ref"],
            "corpus_query": ["mean_ms_at_ref"],
            "served_mix": ["tail_ms_at_ref"],
        },
    },
    "corpus.retrieve.*, corpus.refresh.*, service.resolve.*, repository.read.*, reuse.rematch.*, "
    "corpus.matched_per_returned": {
        "moves": {"corpus_query": ["mean_ms_at_ref", "tail_ms_at_ref", "ops_per_s_at_ref"]},
    },
    "repository.write.*": {
        "moves": {
            "corpus_query": ["write_p50_ms (report)"],
            "served_mix": ["write_p50_ms (report)", "tail_ms_at_ref"],
        },
    },
    "server.handler.*, server.cache.get.*, server.cache.put.*, server.cache.hit_ratio, "
    "server.cache.invalidations, server.key.*, client.decode.*, server.wait_ms, loadgen.late_ms, "
    "network.route.*, network.refresh.*": {
        "moves": {"served_mix": ["mean_ms_at_ref", "p50_ms (report)", "max_rps (report)", "ops_per_s_at_ref"]},
        "flat": ["case_study", "corpus_query"],
    },
}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": first,
        "q3": third,
        "spread": (third - first) / median if median else None,
        "values": values,
    }


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=BENCH / "reference.json")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    sys.path.insert(0, str(ROOT / "src"))

    # Re-measuring some workloads keeps the recorded others.
    previous = json.loads(args.out.read_text()) if args.out.exists() else {}
    record = {
        "seeds": seeds,
        "held_out_seed": HELD_OUT_SEED,
        "environment": environment(),
        # Unit, direction and regression bound of each gated metric.
        "metrics": {
            metric.pop("name"): metric
            for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        },
        "layer_map": LAYER_MAP,
        "workloads": previous.get("workloads", {}),
    }
    for workload in args.workloads.split(","):
        settings = {k: v for k, v in run.WORKLOADS[workload].items()}
        outcomes = [one_run(workload, seed, args.seconds, 0) for seed in seeds]
        values: dict[str, list[float]] = {}
        for outcome in outcomes:
            for name, metric in outcome["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {
            "seconds": args.seconds,
            "settings": settings,
            "tail_percentile": settings["tail_percentile"],
            "correct": all(o["correct"] for o in outcomes),
            "attempted": sum(o["attempted"] for o in outcomes),
            "failed": sum(o["failed"] for o in outcomes),
            "baseline": {name: summarise(v) for name, v in values.items()},
        }
        if args.traced:
            traced = one_run(workload, seeds[0], args.seconds, 1)
            entry["traced"] = {
                "seed": seeds[0],
                "correct": traced["correct"],
                "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
            }
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
