#!/usr/bin/env python3
"""Check that two builds write the same bytes (the determinism contract).

Usage:

    tools/same_bytes.py --base BUILD_A --change BUILD_B [--nodes 1000]
    tools/same_bytes.py --golden BUILD [--only ARTEFACT]
    tools/same_bytes.py --golden BUILD --update-golden

BUILD_A and BUILD_B are build directories, typically the parent commit's
and the change's, each holding `atum_scenario`, `bench_smr_throughput` and
the three programs of the vgroup-granularity model, `bench_fig6_growth`,
`bench_fig13_exchange` and `bench_soak_100k` (bench targets: `cmake --build
BUILD --target bench_smr_throughput bench_fig6_growth bench_fig13_exchange
bench_soak_100k`).

On both builds the script runs every preset that `atum_scenario --list`
prints, as `atum_scenario PRESET --nodes N --assert --out FILE`; one
telemetry run, `atum_scenario partition_heal --nodes N --metrics-interval=1s
--trace-out TRACE --out FILE`, whose report (with its time_series section)
and trace are compared separately; and the benches `bench_smr_throughput`,
`bench_fig6_growth`, `bench_fig13_exchange` and `bench_soak_100k 2000`,
whose stdout and stderr are compared separately (--nodes does not scale
them).
It prints one line per artefact: `same`, `DIFFERS`, or `FAILED` when a run
exits non-zero (an expectation or a self-check failed) on either side.
Under a differing JSON report of at most 1 MB it prints the fields that
differ, as --golden does. Under a differing trace it prints each event
name whose count differs and each `atum_summary` field that differs, both
sides of each. It exits 0 only if every artefact is the same and every run
succeeded, 1 otherwise, and 2 on bad arguments or a missing binary.

With --golden, the scenario artefacts of one build (its `atum_scenario`
only) are run at 300 nodes and compared with the behaviour goldens
committed under tests/golden/: each preset's report whole (ARTEFACT
`PRESET.json`), the telemetry report and trace by SHA-256 (their
`ARTEFACT.sha256` files hold the digest; the trace is too large to commit).
On a difference it prints every JSON field that differs, as its path with
the golden and the new value (the first MAX_FIELDS of them), or both
digests.
--only checks one artefact (one ctest case each); --update-golden rewrites
every golden from the build instead of comparing.
"""
import argparse
import collections
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SCENARIO = "atum_scenario"
# Benches as argv: the SMR throughput bench and the vgroup-granularity
# model's programs (group::ClusterSim), which each run in well under a second.
BENCHES = (("bench_smr_throughput",), ("bench_fig6_growth",), ("bench_fig13_exchange",),
           ("bench_soak_100k", "2000"))
TELEMETRY = "partition_heal"  # the preset run with the time series and the trace on
JOBS = 2  # runs at a time; one run peaks near 200 MB at 1000 nodes
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "tests", "golden")
GOLDEN_NODES = 300
HASHED = (TELEMETRY + ".telemetry.json", TELEMETRY + ".trace.json")  # goldens kept as digests
MAX_FIELDS = 20  # differing fields printed per artefact
MAX_FIELD_DIFF_BYTES = 1 << 20  # larger JSON reports are compared as bytes only


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
    report, trace = HASHED
    proc = subprocess.run([scenario, TELEMETRY, "--nodes", str(nodes), "--metrics-interval=1s",
                           "--trace-out", os.path.join(out_dir, trace),
                           "--out", os.path.join(out_dir, report)], capture_output=True)
    return proc.returncode, {name: read(os.path.join(out_dir, name)) for name in HASHED}


def run_bench(command):
    name = os.path.basename(command[0])
    proc = subprocess.run(command, capture_output=True)
    return proc.returncode, {name + ".stdout": proc.stdout, name + ".stderr": proc.stderr}


def compare_builds(base, change, nodes):
    builds = {side: (binary(build, SCENARIO),
                     [[binary(build, argv[0]), *argv[1:]] for argv in BENCHES])
              for side, build in (("base", base), ("change", change))}

    names = presets(builds["base"][0])
    if presets(builds["change"][0]) != names:
        print("DIFFERS  atum_scenario --list")
        return 1

    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        jobs = {}  # (side, task) -> future
        for side, (scenario, benches) in builds.items():
            out_dir = os.path.join(tmp, side)
            os.mkdir(out_dir)
            for preset in names:
                jobs[side, preset] = pool.submit(run_preset, scenario, preset, nodes, out_dir)
            jobs[side, "telemetry"] = pool.submit(run_telemetry, scenario, nodes, out_dir)
            for command in benches:
                jobs[side, os.path.basename(command[0])] = pool.submit(run_bench, command)

        ok = True
        for task in names + ["telemetry"] + [argv[0] for argv in BENCHES]:
            base_rc, base_out = jobs["base", task].result()
            change_rc, change_out = jobs["change", task].result()
            for artefact, base_bytes in base_out.items():
                change_bytes = change_out[artefact]
                if base_rc != 0 or change_rc != 0:
                    verdict = f"FAILED   {artefact} (exit base {base_rc}, change {change_rc})"
                elif base_bytes != change_bytes:
                    verdict = (f"DIFFERS  {artefact} ({len(base_bytes)} B base, "
                               f"{len(change_bytes)} B change)")
                    if artefact == HASHED[1]:
                        lines = trace_differences(base_bytes, change_bytes)
                        verdict = "\n".join([verdict] + lines)
                    elif artefact.endswith(".json") and len(base_bytes) <= MAX_FIELD_DIFF_BYTES:
                        fields = field_differences(base_bytes, change_bytes, ("base", "change"))
                        verdict = "\n".join([verdict] + fields)
                else:
                    verdict = f"same     {artefact} ({len(base_bytes)} B)"
                ok &= verdict.startswith("same")
                print(verdict, flush=True)
    return 0 if ok else 1


def golden_path(artefact):
    return os.path.join(GOLDEN_DIR, artefact + (".sha256" if artefact in HASHED else ""))


def golden_bytes(artefact, produced):
    """What tests/golden/ holds for an artefact: the bytes, or their digest line."""
    if artefact in HASHED:
        return f"{hashlib.sha256(produced).hexdigest()}  {artefact}\n".encode()
    return produced


class Number(str):
    """A JSON number kept as the text the report wrote (1.0000, not 1.0)."""


def leaves(node, path=""):
    """(path, value) for every leaf of a parsed report, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node if isinstance(node, Number) else json.dumps(node)


def field_differences(expected, got, names=("golden", "got")):
    """One line per JSON field whose value differs: its path and both values."""
    try:
        old, new = (dict(leaves(json.loads(doc, parse_int=Number, parse_float=Number)))
                    for doc in (expected, got))
    except ValueError as e:
        return [f"  not JSON: {e}"]
    absent = "(absent)"
    lines = [f"  {path}: {names[0]} {old.get(path, absent)}, {names[1]} {new.get(path, absent)}"
             for path in list(old) + [path for path in new if path not in old]
             if old.get(path) != new.get(path)]
    if len(lines) > MAX_FIELDS:
        lines[MAX_FIELDS:] = [f"  ... and {len(lines) - MAX_FIELDS} more"]
    return lines or ["  no field differs: the bytes around the values do"]


def trace_differences(base, change):
    """One line per trace event name whose count differs, then per differing
    atum_summary field, each with the base and the change value."""
    try:
        traces = [json.loads(doc) for doc in (base, change)]
    except ValueError as e:
        return [f"  not JSON: {e}"]
    counts = [collections.Counter(event.get("name") for event in trace.get("traceEvents", []))
              for trace in traces]
    lines = [f"  event {name}: base {counts[0][name]}, change {counts[1][name]}"
             for name in sorted(set(counts[0]) | set(counts[1]))
             if counts[0][name] != counts[1][name]]
    if len(lines) > MAX_FIELDS:
        lines[MAX_FIELDS:] = [f"  ... and {len(lines) - MAX_FIELDS} more event names"]
    summaries = [json.dumps({"atum_summary": trace.get("atum_summary")}).encode()
                 for trace in traces]
    if summaries[0] != summaries[1]:
        lines += field_differences(*summaries, ("base", "change"))
    return lines or ["  every event count and atum_summary field is equal: "
                     "event times or arguments differ"]


def golden(build, only, update):
    scenario = binary(build, SCENARIO)
    tasks = {preset + ".json": preset for preset in presets(scenario)}
    tasks.update({artefact: "telemetry" for artefact in HASHED})
    if only is not None and only not in tasks:
        print(f"same_bytes: no artefact {only}; known: {' '.join(sorted(tasks))}", file=sys.stderr)
        return 2
    wanted = [only] if only is not None else sorted(tasks)

    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        jobs = {}  # task -> future
        for artefact in wanted:
            task = tasks[artefact]
            if task in jobs:
                continue
            if task == "telemetry":
                jobs[task] = pool.submit(run_telemetry, scenario, GOLDEN_NODES, tmp)
            else:
                jobs[task] = pool.submit(run_preset, scenario, task, GOLDEN_NODES, tmp)

        ok = True
        for artefact in wanted:
            rc, out = jobs[tasks[artefact]].result()
            path = golden_path(artefact)
            if rc != 0:
                print(f"FAILED   {artefact} (exit {rc})")
                ok = False
                continue
            produced = golden_bytes(artefact, out[artefact])
            if update:
                os.makedirs(GOLDEN_DIR, exist_ok=True)
                with open(path, "wb") as f:
                    f.write(produced)
                print(f"wrote    {os.path.relpath(path)} ({len(produced)} B)")
                continue
            expected = read(path)
            if expected == produced:
                print(f"same     {artefact} ({len(out[artefact])} B)")
                continue
            ok = False
            if not expected:
                print(f"MISSING  {artefact}: no {os.path.relpath(path)}; "
                      f"run with --update-golden to write it")
            elif artefact in HASHED:
                print(f"DIFFERS  {artefact}\n  golden: {expected.decode().split()[0]}\n"
                      f"  got:    {produced.decode().split()[0]}")
            else:
                fields = field_differences(expected, produced)
                print(f"DIFFERS  {artefact}:", *fields, sep="\n")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="build directory of the reference")
    parser.add_argument("--change", help="build directory of the change")
    parser.add_argument("--nodes", type=int, default=1000, help="preset population")
    parser.add_argument("--golden", metavar="BUILD",
                        help="compare this build with the goldens in tests/golden/")
    parser.add_argument("--only", metavar="ARTEFACT", help="with --golden: check one artefact")
    parser.add_argument("--update-golden", action="store_true",
                        help="with --golden: rewrite the goldens from this build")
    args = parser.parse_args()
    if args.golden is not None:
        if args.base is not None or args.change is not None:
            parser.error("--golden takes no --base or --change")
        return golden(args.golden, args.only, args.update_golden)
    if args.base is None or args.change is None:
        parser.error("--base and --change are required unless --golden is given")
    if args.only is not None or args.update_golden:
        parser.error("--only and --update-golden need --golden")
    return compare_builds(args.base, args.change, args.nodes)


if __name__ == "__main__":
    sys.exit(main())
