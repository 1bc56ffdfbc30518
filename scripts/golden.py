#!/usr/bin/env python3
"""Golden outputs for every paper bench, and the artifact compare CI uses.

    scripts/golden.py check [--build-dir build]
    scripts/golden.py bless [--build-dir build]
    scripts/golden.py compare A.json B.json [--view full|decisions] [--tolerance REL]

`check` runs each bench at its defaults (`--csv --jobs 1 --json ...`) and
compares the output with ci/golden/<bench>.csv and ci/golden/<bench>.json.
The CSV must match byte for byte. The JSON artifact is compared with its
`build` stamp and `argv` echo blanked: numeric leaves must agree within
1e-9 relative (compilers and libm differ between hosts), everything else
exactly. `bless` rewrites the golden files from the current build; bless
only in a change that says why its outputs move.

`compare` diffs two artifacts the same way, but exactly (same type and
value at every leaf) unless `--tolerance` allows a relative difference
between numbers. `--view decisions` restricts it to the schema, the
tables and the injection counters (the fields a fault-injection replay
must reproduce).

Exit status: 0 when everything matches, 1 on any mismatch, 2 on misuse.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "ci", "golden")
TOLERANCE = 1e-9

# Every paper-figure, table, extension, ablation and injection bench. The
# timing benches (bench_check, bench_hotpath) are not byte-stable by design.
PAPER_BENCHES = [
    "bench_fig2", "bench_fig3", "bench_fig4", "bench_fig5", "bench_fig6",
    "bench_fig7", "bench_fig8", "bench_fig9", "bench_fig10", "bench_fig11",
    "bench_table1", "bench_table2", "bench_ext_collusion", "bench_ext_energy",
    "bench_ext_leach", "bench_ext_mobility", "bench_ext_multihop",
    "bench_ext_sch", "bench_ext_theory", "bench_ablation", "bench_inject",
]


def normalise(doc):
    """Blanks the fields that differ between builds and invocations."""
    doc["build"] = ""
    doc["argv"] = []
    return doc


def decision_view(doc):
    return {
        "schema": doc["schema"],
        "tables": doc["tables"],
        "inject_counters": {
            k: v for k, v in doc["metrics"]["counters"].items()
            if k.startswith("inject.") or ".injected_" in k
        },
    }


def mismatches(a, b, tolerance, path="$"):
    """Yields one message per leaf where `a` and `b` differ; with a
    tolerance, numbers may differ by that much relative to max(1, |a|)."""
    numeric = (int, float)
    if (tolerance > 0 and isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if abs(float(a) - float(b)) > tolerance * max(1.0, abs(float(a))):
            yield f"{path}: {a!r} vs {b!r}"
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: length {len(a)} vs {len(b)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from mismatches(x, y, tolerance, f"{path}[{i}]")
    elif isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            yield f"{path}: keys {sorted(set(a) ^ set(b))} present on one side only"
            return
        for k in a:
            yield from mismatches(a[k], b[k], tolerance, f"{path}.{k}")
    elif type(a) is not type(b) or a != b:
        yield f"{path}: {a!r} vs {b!r}"


def run_bench(build_dir, bench, workdir):
    exe = os.path.join(build_dir, "bench", bench)
    if not os.access(exe, os.X_OK):
        sys.exit(f"golden: {exe} not built")
    artifact = os.path.join(workdir, bench + ".json")
    proc = subprocess.run([exe, "--csv", "--jobs", "1", "--json", artifact],
                          stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        sys.exit(f"golden: {bench} exited {proc.returncode}")
    with open(artifact) as f:
        return proc.stdout, normalise(json.load(f))


def golden_paths(bench):
    return (os.path.join(GOLDEN_DIR, bench + ".csv"),
            os.path.join(GOLDEN_DIR, bench + ".json"))


def cmd_bless(args):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for bench in PAPER_BENCHES:
            csv, doc = run_bench(args.build_dir, bench, work)
            csv_path, json_path = golden_paths(bench)
            with open(csv_path, "wb") as f:
                f.write(csv)
            with open(json_path, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            print(f"{bench}: blessed")
    return 0


def cmd_check(args):
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for bench in PAPER_BENCHES:
            csv, doc = run_bench(args.build_dir, bench, work)
            csv_path, json_path = golden_paths(bench)
            problems = []
            with open(csv_path, "rb") as f:
                if f.read() != csv:
                    problems.append("CSV differs from " + os.path.relpath(csv_path, ROOT))
            with open(json_path) as f:
                problems.extend(mismatches(doc, json.load(f), TOLERANCE))
            if problems:
                failed += 1
                print(f"{bench}: MISMATCH")
                for p in problems[:20]:
                    print("  " + p)
            else:
                print(f"{bench}: matches the golden")
    return 1 if failed else 0


def cmd_compare(args):
    docs = []
    for path in (args.a, args.b):
        with open(path) as f:
            doc = normalise(json.load(f))
        docs.append(decision_view(doc) if args.view == "decisions" else doc)
    problems = list(mismatches(docs[0], docs[1], args.tolerance))
    for p in problems[:20]:
        print(p)
    if problems:
        print(f"{args.a} and {args.b} differ ({len(problems)} fields)")
        return 1
    print(f"{args.a} and {args.b} match ({args.view} view)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "bless"):
        p = sub.add_parser(name)
        p.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--view", choices=("full", "decisions"), default="full")
    p.add_argument("--tolerance", type=float, default=0.0, metavar="REL")
    args = parser.parse_args()
    return {"check": cmd_check, "bless": cmd_bless, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
