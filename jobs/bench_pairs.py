"""Paired before/after benchmark: ``perfbench/run.py`` from two checkouts.

Run from the root of the repository::

    python jobs/bench_pairs.py --parent ../parent --change . --out BENCH_5.json \\
        --claim large-fields:hpez.compress_mbps --parent-commit <sha> \\
        --desc "what the change does"

``--claim`` is left out for a change that claims no gain.

The workloads, the run length and each end-to-end metric's ``bound``
come from the change's ``BENCHMARK.json``. For every workload and seed
in ``SEEDS``, one *pair* runs ``perfbench/run.py --trace 0`` once in
each checkout, alternating which side goes first (the parent on the 1st,
3rd, ... pair). ``HELD_OUT_SEED`` gives one more pair per workload, and
``TRACED_SEED`` (the seed the change was profiled on while it was
written) one ``--trace 1`` pair per workload. Nothing is reused between
invocations: every figure in ``--out`` comes from this one run, and
``trees`` records a digest of each checkout's ``src/`` and
``perfbench/``.

The summary (``--out``) follows ``BENCH_3.json``: per workload and
end-to-end metric the parent's and the change's median, quartiles
(``numpy.percentile`` 25/75) and per-run values, how many pairs the
change wins (reads better, by the metric's ``better`` in
``BENCHMARK.json``), the parent's IQR, a verdict against the metric's
``bound`` (see :func:`verdict`), whether the payload fingerprints of
every pair are equal, whether every run (pairs, held-out and traced)
reported ``correct``, and the claim (``null`` without ``--claim``): met
when every run is correct, the change wins at least 9 of at least 10
pairs, the median gap exceeds the parent's IQR and the held-out pair
gains. The exit status is non-zero when any run is not correct, any
verdict is ``worse`` or a claim is not met.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SEEDS = list(range(101, 111))
HELD_OUT_SEED = 211
TRACED_SEED = 101
SIDES = ("parent", "change")


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result and report lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "fingerprints": report["fingerprints"],
        "machine": report["machine"],
    }


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "runs": [round(x, 4) for x in xs]}


def verdict(stats: dict, sign: float, bound: float) -> str:
    """``worse`` when the change's median reads worse than the parent's
    by more than ``bound`` times the parent's median; else
    ``unresolved`` when either side's IQR exceeds that margin, unless
    every change run reads better than every parent run; else ``ok``."""
    par, chg = stats["parent"], stats["change"]
    margin = bound * abs(par["median"])
    if sign * (chg["median"] - par["median"]) < -margin:
        return "worse"
    spread = max(s["q3"] - s["q1"] for s in (par, chg))
    separated = min(sign * c for c in chg["runs"]) > max(sign * p for p in par["runs"])
    if spread > margin and not separated:
        return "unresolved"
    return "ok"


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per-metric statistics over the pairs of one workload."""
    metrics = {}
    for name, direction in better.items():
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        gaps = [sign * (c - p) for p, c in zip(side["parent"], side["change"])]
        stats = {s: quartiles(side[s]) for s in SIDES}
        metrics[name] = {
            **stats,
            "change_wins": sum(g > 0 for g in gaps),
            "ties": sum(g == 0 for g in gaps),
            "median_ratio_change_over_parent": (
                stats["change"]["median"] / stats["parent"]["median"]
                if stats["parent"]["median"] else float("nan")
            ),
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "bound": bounds[name],
            "verdict": verdict(stats, sign, bounds[name]),
        }
    return metrics


def fingerprints_equal(pair: dict) -> bool:
    return pair["parent"]["fingerprints"] == pair["change"]["fingerprints"]


def tree_digest(checkout: Path) -> str:
    """sha256 over the paths and bytes of the ``.py`` files under
    ``src/`` and ``perfbench/``: what a run of ``perfbench/run.py`` executes."""
    h = hashlib.sha256()
    files = [f for d in ("src", "perfbench") for f in sorted((checkout / d).rglob("*.py"))]
    for f in files:
        h.update(f.relative_to(checkout).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--claim", help="WORKLOAD:METRIC; leave out to claim no gain")
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--desc", required=True)
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    claimed = args.claim.split(":") if args.claim else None

    incorrect: list[str] = []

    def pair(workload: str, seed: int, trace: int, parent_first: bool) -> dict:
        out = {}
        for side in SIDES if parent_first else SIDES[::-1]:
            checkout = args.parent if side == "parent" else args.change
            run = run_side(checkout, workload, seed, seconds, trace)
            print(f"{workload}/{seed}/{trace}/{side}",
                  json.dumps({k: round(v, 3) for k, v in run["metrics"].items()
                              if k in better}), flush=True)
            if not run["correct"]:
                incorrect.append(f"{workload}/{seed}/{trace}/{side}")
            out[side] = run
        return out

    end_to_end, held_out, fp_equal = {}, {}, {}
    for workload in workloads:
        pairs = [pair(workload, s, 0, i % 2 == 0) for i, s in enumerate(SEEDS)]
        end_to_end[workload] = {
            "seeds": SEEDS,
            "n_pairs": len(pairs),
            "correct": all(q[s]["correct"] for q in pairs for s in SIDES),
            "metrics": summarize(pairs, better, bounds),
        }
        h = pair(workload, HELD_OUT_SEED, 0, True)
        held_out[workload] = {
            "seed": HELD_OUT_SEED,
            **{m: {s: h[s]["metrics"][m] for s in SIDES} for m in better},
            "fingerprints_equal": fingerprints_equal(h),
        }
        fp_equal[workload] = all(fingerprints_equal(q) for q in pairs + [h])

    traced = {}
    for workload in workloads:
        t = pair(workload, TRACED_SEED, 1, True)
        traced[workload] = {
            "seed": TRACED_SEED,
            **{m: {s: t[s]["metrics"][m] for s in SIDES} for m in t["change"]["metrics"]},
        }

    claim = None
    if claimed:
        cw, cm = claimed
        c = end_to_end[cw]["metrics"][cm]
        sign = 1.0 if better[cm] == "higher" else -1.0
        gap = sign * (c["change"]["median"] - c["parent"]["median"])
        claim = {
            "metric": cm,
            "workload": cw,
            "parent_median": c["parent"]["median"],
            "change_median": c["change"]["median"],
            "parent_iqr": c["parent_iqr"],
            "median_gap": gap,
            "change_wins": c["change_wins"],
            "pairs": end_to_end[cw]["n_pairs"],
            "held_out_gain": sign * (held_out[cw][cm]["change"] - held_out[cw][cm]["parent"]),
        }
        claim["met"] = (
            not incorrect
            and claim["pairs"] >= 10
            and c["change_wins"] >= 0.9 * claim["pairs"]
            and gap > c["parent_iqr"]
            and claim["held_out_gain"] > 0
        )
    verdicts = {
        w: {m: v["verdict"] for m, v in end_to_end[w]["metrics"].items()} for w in workloads
    }
    summary = {
        "change": args.desc,
        "parent_commit": args.parent_commit,
        "trees": {"parent": tree_digest(args.parent), "change": tree_digest(args.change)},
        "command": "python3 perfbench/run.py --workload {%s} --seed SEED --seconds %g "
                   "--trace {0,1}" % (",".join(workloads), seconds),
        "method": "Each side ran from its own checkout. One pair per seed and workload, "
                  "alternating which side runs first (parent first on the 1st, 3rd, ... "
                  "pair). Quartiles are numpy.percentile 25/75 (linear) over the per-run "
                  "values; each per-run value is the run's own median over its rounds. A "
                  "win is the change reading better than the parent of the same pair; "
                  "ties count for neither side.",
        "seeds": SEEDS,
        "seed_used_while_writing": TRACED_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "claim": claim,
        "incorrect_runs": incorrect,
        "verdicts": verdicts,
        "end_to_end": end_to_end,
        "held_out": held_out,
        "payload_fingerprints_equal": fp_equal,
        "traced": traced,
        "machine": t["change"]["machine"],
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"claim": claim, "incorrect_runs": incorrect, "verdicts": verdicts}))
    worse = any(v == "worse" for w in verdicts.values() for v in w.values())
    return 1 if incorrect or worse or (claim is not None and not claim["met"]) else 0


if __name__ == "__main__":
    sys.exit(main())
