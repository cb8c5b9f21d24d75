#!/usr/bin/env python3
"""Repeat mode of the flow benchmark.

Runs each workload once per seed, then prints every metric's median,
quartiles and spread (the distance between the quartiles as a share of
the median) next to its bound from BENCHMARK.json, with the machine's
nproc, the OCaml version and whether flambda is on. The unscaled
timings of the untraced runs (before host calibration) are listed too,
as unscaled.<metric>. Use it to set bounds
from measured noise and to record trajectory points.

    python3 flowbench/repeat.py                    # every workload, seeds 1..10
    python3 flowbench/repeat.py --workloads table1_sweep --seeds 1,2,3,4,5
    python3 flowbench/repeat.py --trace 1 --seeds 1
    python3 flowbench/repeat.py --out flowbench/runs.json

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def toolchain():
    def out(*cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return ""

    config = out("ocamlfind", "ocamlopt", "-config") or out("ocamlopt", "-config")
    flambda = next(
        (l.split(":", 1)[1].strip() for l in config.splitlines() if l.startswith("flambda:")),
        "unknown",
    )
    version = next(
        (l.split(":", 1)[1].strip() for l in config.splitlines() if l.startswith("version:")),
        "unknown",
    )
    return {"nproc": os.cpu_count(), "ocaml": version, "flambda": flambda}


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    env = toolchain()
    print("# nproc %s, OCaml %s, flambda %s" % (env["nproc"], env["ocaml"], env["flambda"]))

    result = {"environment": env, "seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        values, walls, failed = {}, [], 0
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit("%s seed %d: exit %d" % (name, seed, proc.returncode))
            res = json.loads(lines[-1])
            failed += res["failed"]
            ok = ok and res["correct"]
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            # the unscaled timings, from the "# host: unscaled ..." line
            for l in lines:
                if l.startswith("# host: unscaled "):
                    for part in l[len("# host: unscaled "):].split(";")[0].split(","):
                        k, v = part.split()
                        values.setdefault("unscaled." + k, []).append(float(v))
            print("%s seed %d: %.1f s, %d/%d failed" % (name, seed, walls[-1], res["failed"], res["attempted"]), flush=True)
        stats = {k: summary(v) for k, v in values.items()}
        result["workloads"][name] = {"run_wall_s": summary(walls), "failed": failed, "metrics": stats}
        print("\n%-16s %-30s %14s %14s %14s %8s %6s" % ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for k, s in stats.items():
            b = bounds.get(k)
            flag = "" if b is None or k == "setup_s" or s["spread"] < b / 3 else "  > bound/3"
            print("%-16s %-30s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                name, k, s["median"], s["q1"], s["q3"], s["spread"], "-" if b is None else b, flag))
        print("%-16s %-30s %14.1f s per run\n" % (name, "run wall", statistics.median(walls)), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
