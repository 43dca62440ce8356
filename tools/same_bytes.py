#!/usr/bin/env python3
"""Check that two builds write the same bytes (the determinism contract).

Usage:

    tools/same_bytes.py --base BUILD_A --change BUILD_B [--nodes 1000]

BUILD_A and BUILD_B are build directories, typically the parent commit's
and the change's, each holding `atum_scenario` and `bench_smr_throughput`
(a bench target: `cmake --build BUILD --target bench_smr_throughput`).

On both builds the script runs every preset that `atum_scenario --list`
prints, as `atum_scenario PRESET --nodes N --assert --out FILE`; one
telemetry run, `atum_scenario partition_heal --nodes N --metrics-interval=1s
--trace-out TRACE --out FILE`, whose report (with its time_series section)
and trace are compared separately; and `bench_smr_throughput`, whose stdout
and stderr are compared separately.
It prints one line per artefact: `same`, `DIFFERS`, or `FAILED` when a run
exits non-zero (an expectation or a self-check failed) on either side. It
exits 0 only if every artefact is the same and every run succeeded, 1
otherwise, and 2 on bad arguments or a missing binary.
"""
import argparse
import concurrent.futures
import os
import subprocess
import sys
import tempfile

SCENARIO = "atum_scenario"
BENCH = "bench_smr_throughput"
TELEMETRY = "partition_heal"  # the preset run with the time series and the trace on
JOBS = 2  # runs at a time; one run peaks near 200 MB at 1000 nodes


def binary(build, name):
    path = os.path.join(build, name)
    if not os.access(path, os.X_OK):
        print(f"same_bytes: {path} is missing; build it first", file=sys.stderr)
        sys.exit(2)
    return path


def presets(scenario):
    out = subprocess.run([scenario, "--list"], capture_output=True, text=True, check=True).stdout
    return [line.split()[0] for line in out.splitlines()[1:] if line.strip()]


def read(path):
    if not os.path.isfile(path):
        return b""
    with open(path, "rb") as f:
        return f.read()


def run_preset(scenario, preset, nodes, out_dir):
    path = os.path.join(out_dir, preset + ".json")
    proc = subprocess.run([scenario, preset, "--nodes", str(nodes), "--assert", "--out", path],
                          capture_output=True)
    return proc.returncode, {preset + ".json": read(path)}


def run_telemetry(scenario, nodes, out_dir):
    report = TELEMETRY + ".telemetry.json"
    trace = TELEMETRY + ".trace.json"
    proc = subprocess.run([scenario, TELEMETRY, "--nodes", str(nodes), "--metrics-interval=1s",
                           "--trace-out", os.path.join(out_dir, trace),
                           "--out", os.path.join(out_dir, report)], capture_output=True)
    return proc.returncode, {name: read(os.path.join(out_dir, name)) for name in (report, trace)}


def run_bench(bench):
    proc = subprocess.run([bench], capture_output=True)
    return proc.returncode, {BENCH + ".stdout": proc.stdout, BENCH + ".stderr": proc.stderr}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="build directory of the reference")
    parser.add_argument("--change", required=True, help="build directory of the change")
    parser.add_argument("--nodes", type=int, default=1000, help="preset population")
    args = parser.parse_args()
    builds = {side: (binary(build, SCENARIO), binary(build, BENCH))
              for side, build in (("base", args.base), ("change", args.change))}

    names = presets(builds["base"][0])
    if presets(builds["change"][0]) != names:
        print("DIFFERS  atum_scenario --list")
        return 1

    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        jobs = {}  # (side, task) -> future
        for side, (scenario, bench) in builds.items():
            out_dir = os.path.join(tmp, side)
            os.mkdir(out_dir)
            for preset in names:
                jobs[side, preset] = pool.submit(run_preset, scenario, preset, args.nodes, out_dir)
            jobs[side, "telemetry"] = pool.submit(run_telemetry, scenario, args.nodes, out_dir)
            jobs[side, BENCH] = pool.submit(run_bench, bench)

        ok = True
        for task in names + ["telemetry", BENCH]:
            base_rc, base_out = jobs["base", task].result()
            change_rc, change_out = jobs["change", task].result()
            for artefact, base_bytes in base_out.items():
                change_bytes = change_out[artefact]
                if base_rc != 0 or change_rc != 0:
                    verdict = f"FAILED   {artefact} (exit base {base_rc}, change {change_rc})"
                elif base_bytes != change_bytes:
                    verdict = (f"DIFFERS  {artefact} ({len(base_bytes)} B base, "
                               f"{len(change_bytes)} B change)")
                else:
                    verdict = f"same     {artefact} ({len(base_bytes)} B)"
                ok &= verdict.startswith("same")
                print(verdict, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
