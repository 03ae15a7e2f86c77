#!/usr/bin/env python3
"""The full-stack RPC cost ledger (see README.md beside this file).

    python3 benchmarks/ledger/run.py [--seed N] [--workload NAME] [--smoke]
        every workload: an untraced pass of 3 x 30 fixed rounds (end-to-end
        metrics), then a traced pass of 10 rounds (per-layer metrics and
        a span file); writes out/ledger.json.
    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
        the BENCHMARK.json contract: one pass of whole rounds for S
        seconds; the last line of output is the result object.
    python3 benchmarks/ledger/run.py --compare A.json B.json
        two ledger files side by side, against the bounds.

Every child runs in a fresh interpreter (child.py); this file only
spawns them, scores their rounds, prints and compares, and imports
nothing from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Fresh interpreters per untraced pass.  ``setup_s`` is the median of
#: their set-ups and the timing metrics pool the rounds of all of them;
#: without --seconds the repeats of all workloads are interleaved, so a
#: workload's rounds are spread over the whole command.
REPEATS = 3
#: Fixed-work mode (no --seconds): rounds per untraced child, rounds of
#: the traced child, rounds of the unpinned child.
ROUNDS = 30
TRACED_ROUNDS = 10
UNPINNED_ROUNDS = 10
#: --smoke runs a tenth of the rounds in one child per pass.
SMOKE_SHRINK = 10
#: What ``child.speed_kernel_s`` reads on the box the first baseline was
#: measured on when nothing disturbs it.  A constant, so every run on
#: every commit is scaled to the same speed.
REFERENCE_KERNEL_S = 0.000215
CHILD_TIMEOUT_S = 170


def run_child(mode: str, workload: str, seed: int, *, rounds: int = 0,
              seconds: float = 0.0, spans: str = "", unpinned: bool = False) -> dict:
    """One child in a fresh interpreter; returns the object it printed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
        "--seconds", str(seconds), "--spans", spans,
        # Wall-clock, because the child's own clocks start after its
        # interpreter did: set-up time includes process start.
        "--spawned-at", repr(time.time()),
    ]
    if unpinned:
        command.append("--unpinned")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timings(rounds: List[dict]) -> Dict[str, float]:
    """The three timing metrics of a pass from its rounds' rows.

    Each is the **best round**: disturbance on a shared box only ever
    adds time, and of ~80 rounds of 0.15 s some run undisturbed.  What
    is left is the box as a whole running slower for a while, which
    moves the floor of the speed kernel by the same factor; so CPU time
    is scaled by ``reference / fastest kernel of the pass``.  Time a
    round spent waiting (wall - CPU; all threads share one CPU) is left
    as measured.  README, "How a run is timed", has the measurements.
    """
    speed = REFERENCE_KERNEL_S / min(r["kernel_s"] for r in rounds)

    def at_reference(r: dict) -> float:
        busy = min(1.0, r["cpu_s"] / r["wall_s"])
        return 1.0 - busy + busy * speed

    return {
        "calls_per_s": 1.0 / min(r["wall_s"] / r["calls"] * at_reference(r) for r in rounds),
        "call_p50_ms": min(r["p50_ms"] * at_reference(r) for r in rounds),
        "cpu_ms_per_call": min(r["cpu_s"] / r["calls"] for r in rounds) * speed * 1e3,
        "speed": speed,
    }


def metric(spec: dict, value: float) -> dict:
    return {"value": value, "unit": spec["unit"]}


def untraced_pass(children: List[dict]) -> dict:
    """End-to-end metrics of one workload from its untraced children."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    run = {
        "attempted": attempted,
        "failed": failed,
        "violations": [line for c in children for line in c["violations"]],
        "rounds": [row for c in children for row in c["rounds"]],
        "setups_s": [c["setup_s"] for c in children],
    }
    values = {
        **timings(run["rounds"]),
        "setup_s": statistics.median(run["setups_s"]),
        "wire_bytes_per_call": sum(c["wire_bytes"] for c in children) / attempted,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "verified_share": (attempted - failed) / attempted,
    }
    run["speed"] = values["speed"]
    run["end_to_end"] = {name: metric(spec, values[name]) for name, spec in END_TO_END.items()}
    return run


def traced_pass(traced: dict, unpinned: dict, untraced_p50_ms: float) -> dict:
    """Per-layer metrics: span times, counts at the same boundaries, tails."""
    values = {
        **traced["counts"],
        **traced["layer_times"],
        "channel.call_p90_ms": traced["call_p90_ms"],
        "channel.call_p99_ms": traced["call_p99_ms"],
        "frontend.unpinned_calls_per_s": timings(unpinned["rounds"])["calls_per_s"],
        "trace.overhead_share":
            (timings(traced["rounds"])["call_p50_ms"] - untraced_p50_ms) / untraced_p50_ms,
    }
    run = dict(traced)
    run["samples"] = traced["attempted"]
    for key in ("attempted", "failed", "violations"):
        run[key] = traced[key] + unpinned[key]
    run["per_layer"] = {name: metric(spec, values[name]) for name, spec in PER_LAYER.items()}
    return run


def show(title: str, metrics: Dict[str, dict], note: str) -> None:
    print(f"  -- {title} ({note})")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")


def show_failures(workload: str, run: dict) -> None:
    for line in run["violations"]:
        print(f"  LEFT ITS PATH  {workload}: {line}")
    if run["failed"]:
        print(f"  FAILED CALLS   {workload}: {run['failed']} of {run['attempted']}")


def is_correct(run: dict) -> bool:
    return run["failed"] == 0 and not run["violations"]


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def ledger(args) -> int:
    """Both passes for the chosen workloads; the contract's result line
    when exactly one workload and one pass were asked for."""
    names = [args.workload] if args.workload else WORKLOADS
    out_dir = Path(args.out)
    repeats = 1 if args.smoke else REPEATS
    if args.seconds > 0:
        untraced_how = {"seconds": args.seconds / repeats}
        # A traced pass on its own spends a quarter of its time on the
        # untraced rounds its latency is compared with.
        reference_how = unpinned_how = {"seconds": args.seconds / 4}
        traced_how = {"seconds": args.seconds / 2}
    else:
        shrink = SMOKE_SHRINK if args.smoke else 1
        untraced_how = reference_how = {"rounds": max(1, ROUNDS // shrink)}
        traced_how = {"rounds": max(1, TRACED_ROUNDS // shrink)}
        unpinned_how = {"rounds": max(1, UNPINNED_ROUNDS // shrink)}

    results: Dict[str, dict] = {name: {} for name in names}
    if args.trace != 1:
        children: Dict[str, List[dict]] = {name: [] for name in names}
        for _ in range(repeats):
            for name in names:
                children[name].append(run_child("untraced", name, args.seed, **untraced_how))
        for name in names:
            results[name]["untraced"] = untraced_pass(children[name])
    if args.trace != 0:
        for name in names:
            if "untraced" in results[name]:
                reference = results[name]["untraced"]["rounds"]
            else:
                reference = run_child("untraced", name, args.seed, **reference_how)["rounds"]
            spans = str(out_dir / f"spans-{name}.json")
            results[name]["traced"] = traced_pass(
                run_child("traced", name, args.seed, spans=spans, **traced_how),
                run_child("untraced", name, args.seed, unpinned=True, **unpinned_how),
                timings(reference)["call_p50_ms"],
            )

    for name, entry in results.items():
        print(f"== {name}")
        if "untraced" in entry:
            run = entry["untraced"]
            entry["end_to_end"] = run["end_to_end"]
            rounds = run["rounds"]
            show("end to end", run["end_to_end"],
                 f"timings: best of {len(rounds)} rounds of {rounds[0]['calls']} calls in "
                 f"{repeats} fresh interpreters, CPU time x {run['speed']:.3f} to reference "
                 f"speed; {run['attempted']} latency samples")
            show_failures(name, run)
        if "traced" in entry:
            run = entry["traced"]
            entry["per_layer"] = run["per_layer"]
            show("per layer", run["per_layer"],
                 f"traced, median per call over the {run['layer_calls']} calls of the "
                 f"quiet rounds; tails pooled over {run['samples']} samples; "
                 f"{run['spans']} spans in {run['span_file']}")
            show_failures(name, run)

    passes = [e[k] for e in results.values() for k in ("untraced", "traced") if k in e]
    correct = all(is_correct(run) for run in passes)
    if args.trace is None:
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / "ledger.json"
        target.write_text(json.dumps({
            "meta": {
                "seed": args.seed,
                "git_sha": git_sha(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "nproc": os.cpu_count(),
                "transport": "loopback, in-process server",
                "load": "closed loop, one client thread, one connection, "
                        "all threads pinned to one CPU",
                "smoke": args.smoke,
                "seconds": args.seconds,
                "calls_per_round": {
                    n: e["untraced"]["rounds"][0]["calls"] for n, e in results.items()
                },
                "rounds": {n: len(e["untraced"]["rounds"]) for n, e in results.items()},
            },
            "workloads": results,
        }, indent=1))
        print(f"wrote {target}")
    elif len(names) == 1:
        run = passes[-1]
        key = "per_layer" if args.trace == 1 else "end_to_end"
        print(json.dumps({
            "correct": correct,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": results[names[0]][key],
        }))
    return 0 if correct else 1


def compare(path_a: str, path_b: str) -> int:
    """B against A per workload × end-to-end metric; non-zero past a bound."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse: List[str] = []
    print(f"{'workload':22s}{'metric':22s}{'A':>14s}{'B':>14s}{'B vs A':>10s}{'bound':>8s}")
    for name in WORKLOADS:
        if name not in a or name not in b:
            continue
        for metric_name, spec in END_TO_END.items():
            va = a[name]["end_to_end"][metric_name]["value"]
            vb = b[name]["end_to_end"][metric_name]["value"]
            change = (vb - va) / va
            regress = -change if spec["better"] == "higher" else change
            flag = ""
            if regress > spec["bound"]:
                flag = "  WORSE"
                worse.append(f"{name}/{metric_name}")
            print(f"{name:22s}{metric_name:22s}{va:14.6g}{vb:14.6g}"
                  f"{change:+10.2%}{spec['bound']:8.3f}{flag}")
    if worse:
        print("past its bound: " + ", ".join(worse))
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the rounds, one set-up; never compare smoke numbers")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run whole rounds for this long instead of a fixed count")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only; 1: traced pass only; default both")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for ledger.json and the span files")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # Internal: what run_child() passes to the spawned interpreter.
    parser.add_argument("--child", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spans", default="", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--unpinned", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.child:
        import child

        return child.main(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
