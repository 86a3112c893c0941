#!/usr/bin/env python3
"""Alternating perf-ledger pairs between two checkouts.

    python3 tools/ledger_pairs.py --parent <checkout> --change <checkout> \
        --workload <sort|kmeans|server> --pairs N --seconds S \
        [--seed 1] [--trace 0] [--cxxflags=<flags>] [--json out.json]

Runs each checkout's own, unchanged `perfledger/run.py` in turn, N times
each. Clone both sides to paths of equal length (say `<dir>/p` and
`<dir>/c`, both made with `git clone`): the checkout path reaches the
build and the set-up, and a difference in its length alone has moved
`setup_s` by tens of percent. The script warns when the lengths differ. Pair i runs both sides on seed `--seed` + i, the parent first when i
is even and the change first when i is odd, so a slow drift of the host
does not favour one side. Every (checkout, flags) pair gets its own build
directory (the `CARGO_TARGET_DIR` that run.py builds under) below
`--target-root`; `--cxxflags` reaches the compiler through CXXFLAGS when
that directory is first configured. Write it as `--cxxflags=-Wa,...`: the
flags start with a dash. One short warm-up run per side builds perf_ledger
before the timed pairs and is not counted.

Prints each metric's parent and change range and median, the change's
median relative to the parent's, the parent's quartile distance relative to
its median, and on how many pairs the change read lower (every ledger
metric is lower-is-better; ties count for neither side). Exits 1 if any run
fails or reports `correct: false` or `failed > 0`. `--json` writes every
run's metrics, pair by pair, with the summary.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def revision(checkout):
    """Short commit id of a git checkout (+dirty if it has edits), or None."""
    try:
        rev = subprocess.run(["git", "-C", checkout, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", checkout, "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + ("+dirty" if dirty else "")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class Side:
    def __init__(self, name, checkout, args):
        self.name = name
        self.checkout = os.path.abspath(checkout)
        run_py = os.path.join(self.checkout, "perfledger", "run.py")
        if not os.path.isfile(run_py):
            sys.exit(f"ledger_pairs: no perfledger/run.py in {checkout}")
        key = hashlib.sha1(
            f"{self.checkout}\0{args.cxxflags}".encode()).hexdigest()[:10]
        self.target = os.path.join(os.path.abspath(args.target_root),
                                   f"{name}-{key}")
        self.env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        self.env.pop("CXXFLAGS", None)
        if args.cxxflags:
            self.env["CXXFLAGS"] = args.cxxflags
        self.cmd = [sys.executable, run_py, "--workload", args.workload,
                    "--trace", str(args.trace)]
        self.runs = []

    def run(self, seed, seconds):
        proc = subprocess.run(self.cmd + ["--seed", str(seed),
                                          "--seconds", str(seconds)],
                              cwd=self.checkout, env=self.env,
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            sys.exit(f"ledger_pairs: {self.name} run exited "
                     f"{proc.returncode}")
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            sys.exit(f"ledger_pairs: {self.name} printed no JSON result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="baseline checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True,
                    choices=("sort", "kmeans", "server"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cxxflags", default="",
                    help="extra compiler flags for both sides' builds")
    ap.add_argument("--target-root",
                    default=os.path.join(ROOT, ".bench_build", "pairs"),
                    help="where the per-(checkout, flags) builds go")
    ap.add_argument("--json", help="write every run and the summary here")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ledger_pairs: --pairs must be at least 1")

    parent = Side("parent", args.parent, args)
    change = Side("change", args.change, args)
    if len(parent.checkout) != len(change.checkout):
        print(f"ledger_pairs: warning: the checkout paths differ in length "
              f"({len(parent.checkout)} vs {len(change.checkout)} "
              f"characters), which alone can move set-up and build-"
              f"dependent metrics; clone both sides to paths of equal "
              f"length", file=sys.stderr)
    for side in (parent, change):
        side.run(args.seed, 1)  # builds perf_ledger; not counted

    bad = []
    for i in range(args.pairs):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for side in order:
            result = side.run(args.seed + i, args.seconds)
            side.runs.append(result)
            if not result.get("correct") or result.get("failed", 0) > 0:
                bad.append(f"pair {i} {side.name}: correct="
                           f"{result.get('correct')} failed="
                           f"{result.get('failed')}")
            m = result["metrics"]
            shown = "  ".join(f"{k}={v['value']:.6g}" for k, v in m.items()
                              if k.endswith("_ms") or k.endswith("_s"))
            print(f"pair {i} seed {args.seed + i} {side.name:6s} {shown}",
                  flush=True)

    summary = {}
    names = [k for k in parent.runs[0]["metrics"]
             if all(k in r["metrics"] for r in parent.runs + change.runs)]
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"trace {args.trace}"
          + (f", CXXFLAGS='{args.cxxflags}'" if args.cxxflags else ""))
    print(f"{'metric':18s} {'parent min-max':>21s} {'median':>10s}  "
          f"{'change min-max':>21s} {'median':>10s} {'delta':>7s} "
          f"{'IQR':>6s} {'wins':>5s}")
    for name in names:
        p = [r["metrics"][name]["value"] for r in parent.runs]
        c = [r["metrics"][name]["value"] for r in change.runs]
        wins = sum(b < a for a, b in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        delta = (cm - pm) / pm if pm else 0.0
        iqr = (quantile(p, 0.75) - quantile(p, 0.25)) / pm if pm else 0.0
        summary[name] = {"unit": parent.runs[0]["metrics"][name]["unit"],
                         "parent_median": pm, "change_median": cm,
                         "delta": delta, "parent_iqr": iqr, "wins": wins}
        print(f"{name:18s} {min(p):10.4g}-{max(p):<10.4g} {pm:10.4g}  "
              f"{min(c):10.4g}-{max(c):<10.4g} {cm:10.4g} {delta:+7.1%} "
              f"{iqr:6.1%} {wins:2d}/{args.pairs}")

    if args.json:
        doc = {"workload": args.workload, "pairs": args.pairs,
               "seconds": args.seconds, "first_seed": args.seed,
               "trace": args.trace, "cxxflags": args.cxxflags,
               "cpu": cpu_model(), "cpus": os.cpu_count(),
               "parent_revision": revision(parent.checkout),
               "change_revision": revision(change.checkout),
               "runs": [{"parent": p, "change": c}
                        for p, c in zip(parent.runs, change.runs)],
               "summary": summary}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    if bad:
        print("\nledger_pairs: failed checks:\n  " + "\n  ".join(bad),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
