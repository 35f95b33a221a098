#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark between two git revisions.

    python3 tools/perf_ab.py BASE CHANGE [--workload W ...] [--pairs N]
        [--seed0 K] [--scratch DIR]

Run from anywhere inside the repository. Each revision is exported with
`git archive` into its own tree under the scratch directory (default
.bench_ab/, gitignored) and builds perfbench/ there with its own
CARGO_TARGET_DIR, so neither side touches the checkout. A warm-up run per
side builds the driver before any timed run. Then, per workload, N pairs of
`perfbench/run.py --trace 0` runs of BENCHMARK.json's run_seconds, one per
side, with seed K+i for pair i; the side that runs first alternates between
pairs so that drift on the host favours neither.

Printed per pair: every end-to-end metric of BENCHMARK.json on both sides
and the change. Printed per workload and metric: the wins and losses of
CHANGE (in the metric's `better` direction; ties are neither), the losses
beyond the metric's bound (>bound), both medians, the median change with
the IQR of the per-pair changes, BASE's own IQR relative to its median, and
the exact two-sided sign-test p over the pairs that were not ties.

The exit status is 1 when a run fails (non-zero exit, no result, or a
correctness check failed) or when an end-to-end metric loses in most pairs
(more than half of them) by more than its BENCHMARK.json bound, which is
how much it may worsen before it counts as a regression. A loss inside the
bound is counted and printed but does not fail the run: on a noisy host
some metric of an untouched workload loses most pairs by a percent or two
quite often. It is 2 on a usage or build error.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile


def sign_test_p(wins, losses):
    """Exact two-sided sign test: P(a split at least this uneven | p=1/2)."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def quartiles(values):
    """(Q1, median, Q3) by linear interpolation between order statistics."""
    ordered = sorted(values)

    def at(q):
        pos = q * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def relative_change(base, change):
    return change / base - 1.0 if base != 0 else 0.0


def value(result, name):
    """One metric of a run.py result: {"metrics": {name: {"value": v}}}."""
    return result["metrics"][name]["value"]


def summarize(pairs, metrics):
    """One row per metric over `pairs`, a list of (base, change) result
    dicts as run.py prints them; `metrics` is BENCHMARK.json's end_to_end
    list. Pairs in which either run failed are left out."""
    ok = [(b, c) for b, c in pairs if run_ok(b) and run_ok(c)]
    rows = []
    for metric in metrics:
        name = metric["name"]
        higher = metric["better"] == "higher"
        base = [value(b, name) for b, _ in ok]
        change = [value(c, name) for _, c in ok]
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        losses = sum(1 for b, c in zip(base, change)
                     if (c < b if higher else c > b))
        # Worse by more than the bound: c/b - 1 beyond it in the bad
        # direction.
        bound = metric.get("bound", 0.0)
        over_bound = sum(
            1 for b, c in zip(base, change)
            if (-relative_change(b, c) if higher
                else relative_change(b, c)) > bound)
        row = {"metric": name, "better": metric["better"], "pairs": len(ok),
               "wins": wins, "losses": losses, "over_bound": over_bound,
               "sign_p": sign_test_p(wins, losses)}
        if ok:
            deltas = [relative_change(b, c) for b, c in zip(base, change)]
            d1, dmed, d3 = quartiles(deltas)
            b1, bmed, b3 = quartiles(base)
            row.update(base_median=bmed,
                       change_median=quartiles(change)[1],
                       median_delta=dmed, delta_iqr=d3 - d1,
                       base_iqr=(b3 - b1) / bmed if bmed else 0.0)
        rows.append(row)
    return rows


def run_ok(result):
    return (result is not None and result.get("correct") is True
            and result.get("failed", 0) == 0 and "metrics" in result)


def gate(rows):
    """Names of metrics worse than their bound in more than half the
    pairs."""
    return [r["metric"] for r in rows if 2 * r["over_bound"] > r["pairs"]]


def format_pair(index, total, seed, order, base, change, metrics):
    lines = [f"  pair {index + 1}/{total} seed {seed} ({order} first)"]
    for side, result in (("base", base), ("change", change)):
        if not run_ok(result):
            lines.append(f"    {side} run FAILED: {json.dumps(result)}")
    if run_ok(base) and run_ok(change):
        for metric in metrics:
            name = metric["name"]
            b = value(base, name)
            c = value(change, name)
            lines.append(f"    {name:<12} {b:>14.6g} -> {c:>14.6g}  "
                         f"{100 * relative_change(b, c):+8.2f}%")
    return "\n".join(lines)


def format_summary(workload, rows, failures):
    lines = [f"{workload}: {rows[0]['pairs'] if rows else 0} pairs"
             + (f", {failures} failed" if failures else "")]
    lines.append(f"  {'metric':<12} {'better':<6} {'wins':>5} {'losses':>6} "
                 f"{'>bound':>6} {'base':>12} {'change':>12} {'median':>8} "
                 f"{'IQR':>7} {'baseIQR':>7} {'sign p':>7}")
    for r in rows:
        if r["pairs"] == 0:
            lines.append(f"  {r['metric']:<12} no complete pair")
            continue
        lines.append(
            f"  {r['metric']:<12} {r['better']:<6} {r['wins']:>5} "
            f"{r['losses']:>6} {r['over_bound']:>6} "
            f"{r['base_median']:>12.6g} {r['change_median']:>12.6g} "
            f"{100 * r['median_delta']:>+7.1f}% "
            f"{100 * r['delta_iqr']:>6.1f}% {100 * r['base_iqr']:>6.1f}% "
            f"{r['sign_p']:>7.3g}")
    return "\n".join(lines)


def compare(workloads, pairs, seed0, metrics, runner, out=print):
    """Run and report `pairs` alternating pairs per workload through
    runner(side, workload, seed) -> result dict or None; returns the exit
    status."""
    status = 0
    for workload in workloads:
        out(f"== {workload}")
        results = []
        for i in range(pairs):
            seed = seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {side: runner(side, workload, seed) for side in order}
            results.append((got["base"], got["change"]))
            out(format_pair(i, pairs, seed, order[0], got["base"],
                            got["change"], metrics))
        failures = sum(1 for b, c in results if not (run_ok(b) and run_ok(c)))
        rows = summarize(results, metrics)
        out(format_summary(workload, rows, failures))
        lost = gate(rows)
        if failures or lost or not rows or rows[0]["pairs"] == 0:
            status = 1
        for name in lost:
            out(f"  REGRESSED: {name} worse than its bound in most pairs")
    return status


def export_rev(repo, rev, dest):
    """The tree of `rev` as a plain directory at `dest`. A tree already
    exported from the same commit is kept, so its build stays warm."""
    commit = subprocess.run(
        ["git", "-C", repo, "rev-parse", "--verify", rev + "^{commit}"],
        check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    marker = dest + ".commit"
    if os.path.isdir(dest) and os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == commit:
                return
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = dest + ".tar"
    subprocess.run(["git", "-C", repo, "archive", "--format=tar", "-o",
                    archive, commit], check=True)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    os.remove(archive)
    with open(marker, "w") as f:
        f.write(commit + "\n")


def make_runner(trees, seconds):
    def run(side, workload, seed, run_seconds=None):
        tree, target = trees[side]
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        proc = subprocess.run(
            [sys.executable, os.path.join(tree, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(run_seconds or seconds), "--trace", "0"],
            cwd=tree, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is not None and proc.returncode != 0:
            result["correct"] = False
        return result
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--scratch", default=None,
                        help="default <repo>/.bench_ab")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    try:
        repo = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                              check=True, stdout=subprocess.PIPE,
                              text=True).stdout.strip()
        scratch = os.path.abspath(args.scratch or
                                  os.path.join(repo, ".bench_ab"))
        trees = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            tree = os.path.join(scratch, side)
            export_rev(repo, rev, tree)
            trees[side] = (tree, os.path.join(scratch, side + "-target"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 2

    with open(os.path.join(trees["change"][0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runner = make_runner(trees, seconds)
    for side in ("base", "change"):  # builds the driver, untimed
        if not run_ok(runner(side, workloads[0], 0, run_seconds=1)):
            print(f"perf_ab: the {side} warm-up run failed", file=sys.stderr)
            return 2
    print(f"perf_ab: {args.base} -> {args.change}, {args.pairs} pairs of "
          f"{seconds:g} s, seeds {args.seed0}..."
          f"{args.seed0 + args.pairs - 1}", flush=True)
    return compare(workloads, args.pairs, args.seed0, spec["end_to_end"],
                   runner, out=lambda s: print(s, flush=True))


if __name__ == "__main__":
    sys.exit(main())
