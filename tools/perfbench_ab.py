#!/usr/bin/env python3
"""A/B comparison of two checkouts on the client-seen benchmark.

    python3 tools/perfbench_ab.py --base <dir> --change <dir> \\
        --workload <name> --seed <n> --seconds <s> --pairs <N> [--log <dir>]
    python3 tools/perfbench_ab.py --self-test

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in each checkout (for example a worktree of the parent commit and the
working tree) for N pairs, alternating which side runs first: pair 0 runs
base then change, pair 1 change then base, and so on, so slow drift of the
host does not favour one side. Each checkout builds its own benchmark (in
its own .bench_build), and nothing under perfbench/ is modified.

Every run that succeeds must print the same `counts:` line (ops, buffer
misses, result hash, cache hits) as every other run: the tool refuses to
compare runs that did different work, and exits 2. A run that fails (a
non-zero exit, for example a timeout on a slow host) drops its pair from
the comparison; the failed runs are listed, and the exit code is 1 if
any pair was dropped.

For each end-to-end metric of the change checkout's BENCHMARK.json it
prints the median of each side, the relative gap, how many pairs the
change won (strictly better in the metric's direction), the interquartile
range of the base runs, and `~` when the median gap is inside that range
(the difference is not distinguishable from the base's own spread).
Exit 0 after a complete comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 400


def parse_run(stdout):
    """(metrics dict name -> value, counts line) from a run.py output."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    counts = None
    for line in lines:
        if line.startswith("counts:"):
            counts = line[len("counts:"):].strip()
    if not lines:
        raise ValueError("empty output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not result.get("correct"):
        raise ValueError("run not marked correct")
    if counts is None:
        raise ValueError("no counts: line")
    metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
    return metrics, counts


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[1], q[2]


def compare(metric_specs, base_runs, change_runs):
    """Rows of the comparison table. `*_runs` are lists of metric dicts,
    index-aligned by pair; `metric_specs` the BENCHMARK.json end_to_end."""
    rows = []
    for spec in metric_specs:
        name = spec["name"]
        lower = spec["better"] == "lower"
        base = [r[name] for r in base_runs]
        change = [r[name] for r in change_runs]
        q1, base_med, q3 = quartiles(base)
        change_med = statistics.median(change)
        wins = sum(1 for b, c in zip(base, change)
                   if (c < b if lower else c > b))
        gap = change_med - base_med
        rows.append({
            "name": name,
            "unit": spec.get("unit", ""),
            "base": base_med,
            "change": change_med,
            "rel": gap / base_med if base_med else float("nan"),
            "wins": wins,
            "pairs": len(base),
            "iqr": q3 - q1,
            "inside_spread": abs(gap) <= (q3 - q1),
        })
    return rows


def format_rows(rows):
    out = ["%-14s %12s %12s %8s %6s %10s" %
           ("metric", "base", "change", "gap", "wins", "base IQR")]
    for r in rows:
        out.append("%-14s %12.4f %12.4f %+7.1f%% %3d/%-2d %10.4f %s" %
                   (r["name"], r["base"], r["change"], 100 * r["rel"],
                    r["wins"], r["pairs"], r["iqr"],
                    "~" if r["inside_spread"] else ""))
    return "\n".join(out)


def check_counts(counts):
    """Raises ValueError unless every run printed the same counts line."""
    distinct = sorted(set(counts))
    if len(distinct) != 1:
        raise ValueError("runs did different work; counts lines differ:\n  "
                         + "\n  ".join(distinct))


def run_side(checkout, args, log_dir, tag):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            timeout=RUN_TIMEOUT_S)
    if log_dir:
        with open(os.path.join(log_dir, tag + ".log"), "w") as f:
            f.write(result.stdout)
    if result.returncode != 0:
        sys.stderr.write(result.stderr[-2000:])
        raise RuntimeError(f"{tag}: run.py exited {result.returncode}")
    return parse_run(result.stdout)


def main_compare(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    if args.log:
        os.makedirs(args.log, exist_ok=True)
    base_runs, change_runs, counts, failed = [], [], [], []
    for p in range(args.pairs):
        order = [("base", args.base), ("change", args.change)]
        if p % 2:
            order.reverse()
        pair = {}
        for side, checkout in order:
            tag = f"pair{p}_{side}"
            try:
                pair[side] = run_side(checkout, args, args.log, tag)
            except (RuntimeError, ValueError,
                    subprocess.TimeoutExpired) as e:
                print(f"{tag}: FAILED ({e})", flush=True)
                failed.append(tag)
                continue
            metrics = pair[side][0]
            print(f"{tag}: " +
                  " ".join(f"{s['name']}={metrics[s['name']]:.4g}"
                           for s in specs), flush=True)
        for side in pair:
            counts.append(pair[side][1])
        if len(pair) == 2:
            base_runs.append(pair["base"][0])
            change_runs.append(pair["change"][0])
    try:
        check_counts(counts)
    except ValueError as e:
        print(f"perfbench_ab: refusing to compare: {e}", file=sys.stderr)
        return 2
    if failed:
        print(f"failed runs ({len(failed)}), their pairs dropped: "
              + " ".join(failed))
    if not base_runs:
        print("perfbench_ab: no complete pair", file=sys.stderr)
        return 1
    print(f"counts: {counts[0]}")
    print(format_rows(compare(specs, base_runs, change_runs)))
    return 1 if failed else 0


CANNED = """network: canned
counts: {"ops": 10, "buffer_misses": 5, "result_hash": "ab", "cache_hits": 0}
{"correct": true, "attempted": 10, "failed": 0, "metrics": {%s}}"""


def canned(values, counts_hash="ab"):
    body = ", ".join(f'"{k}": {{"value": {v}, "unit": "x"}}'
                     for k, v in values.items())
    return (CANNED % body).replace('"ab"', f'"{counts_hash}"')


def self_test():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    specs = [{"name": "p50_ms", "better": "lower", "unit": "ms"},
             {"name": "qps", "better": "higher", "unit": "1/s"}]
    base = [parse_run(canned({"p50_ms": v, "qps": q}))
            for v, q in [(0.40, 500), (0.44, 480), (0.42, 510), (0.46, 490)]]
    change = [parse_run(canned({"p50_ms": v, "qps": q}))
              for v, q in [(0.28, 505), (0.30, 470), (0.45, 512), (0.29, 489)]]
    rows = {r["name"]: r for r in
            compare(specs, [m for m, _ in base], [m for m, _ in change])}
    p50 = rows["p50_ms"]
    expect(abs(p50["base"] - 0.43) < 1e-9, "base median")
    expect(abs(p50["change"] - 0.295) < 1e-9, "change median")
    expect(p50["wins"] == 3, "p50 wins (lower is better)")
    q1, _, q3 = quartiles([0.40, 0.44, 0.42, 0.46])
    expect(abs(p50["iqr"] - (q3 - q1)) < 1e-12, "iqr")
    expect(not p50["inside_spread"], "a large p50 gap is outside the IQR")
    qps = rows["qps"]
    expect(qps["wins"] == 2, "qps wins (higher is better)")
    expect(qps["inside_spread"], "a small qps gap is inside the IQR")
    expect("~" in format_rows([qps]), "inside-spread flag printed")

    # Same work on every run compares; a different counts line refuses.
    try:
        check_counts([c for _, c in base + change])
    except ValueError:
        failures.append("identical counts refused")
    _, other = parse_run(canned({"p50_ms": 1, "qps": 1}, counts_hash="cd"))
    try:
        check_counts([base[0][1], other])
        failures.append("differing counts accepted")
    except ValueError:
        pass

    # Malformed or incorrect runs are rejected, not compared.
    for bad in ["", "counts: {}\nnot json",
                canned({"p50_ms": 1}).replace('"correct": true',
                                              '"correct": false'),
                canned({"p50_ms": 1}).replace("counts:", "totals:")]:
        try:
            parse_run(bad)
            failures.append(f"accepted bad output {bad[:30]!r}")
        except (ValueError, KeyError):
            pass

    # A single pair is a degenerate but valid comparison.
    one = compare(specs[:1], [base[0][0]], [change[0][0]])[0]
    expect(one["iqr"] == 0 and one["wins"] == 1, "single pair")

    # The full loop over stub checkouts: a fake run.py per side.
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, p50_value in (("base", 0.4), ("change", 0.3)):
            root = os.path.join(tmp, side)
            os.makedirs(os.path.join(root, "perfbench"))
            with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
                json.dump({"end_to_end": specs}, f)
            with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
                f.write("print(%r)\n" %
                        canned({"p50_ms": p50_value, "qps": 500}))
            sides[side] = root
        ns = argparse.Namespace(base=sides["base"], change=sides["change"],
                                workload="w", seed=1, seconds=1, pairs=2,
                                log=None)
        devnull = open(os.devnull, "w")
        saved, sys.stdout = sys.stdout, devnull
        try:
            code = main_compare(ns)
        finally:
            sys.stdout = saved
            devnull.close()
        expect(code == 0, "stub comparison exit code")

        # A side whose run.py fails drops its pair and sets exit code 1.
        with open(os.path.join(sides["change"], "perfbench", "run.py"),
                  "w") as f:
            f.write("import sys\nsys.exit(3)\n")
        ns.pairs = 1
        devnull = open(os.devnull, "w")
        saved, sys.stdout = sys.stdout, devnull
        saved_err, sys.stderr = sys.stderr, devnull
        try:
            code = main_compare(ns)
        finally:
            sys.stdout, sys.stderr = saved, saved_err
            devnull.close()
        expect(code == 1, "a failed run is reported, not compared")

    for f in failures:
        print(f"perfbench_ab self-test FAILED: {f}", file=sys.stderr)
    if not failures:
        print("perfbench_ab self-test: ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="checkout of the parent")
    parser.add_argument("--change", help="checkout with the change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--log", help="directory for each run's stdout")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.base, args.change, args.workload, args.seed,
                args.seconds):
        parser.error("--base, --change, --workload, --seed and --seconds "
                     "are required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return main_compare(args)


if __name__ == "__main__":
    sys.exit(main())
