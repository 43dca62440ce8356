#!/usr/bin/env python3
"""Symbolize and sum the samples of tools/hostprof's preload libraries.

Usage, from the repository root:

    python3 tools/hostprof/report.py [--top N] [--per OPS] FILE...

Each FILE is a `.pcs` file (pc_sampler.c) or an `.allocs` file
(alloc_counter.c); files of one kind are summed. Every address is mapped
through the process's memory map to its module and symbolized with
`addr2line -i -f -C -a -e MODULE` in one call per module; a module without
symbols (glibc here) falls back to the nearest `nm -D` symbol below the
address, shown as "symbol (library)". Symbolizing
to source lines needs a `-g -fno-omit-frame-pointer -no-pie` build, e.g.
the ledger configured with

    cmake -S perfledger -B BUILD -DCMAKE_BUILD_TYPE=Release \\
        -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer" -DCMAKE_EXE_LINKER_FLAGS=-no-pie

A sample with the ledger's host probe (`host_probe_s`) anywhere on its stack
is dropped. The report sums the rest:
  - pcs: by function (the function the sample's program counter is in),
    by source line (the innermost inlined location inside the repository),
    and by layer (the ROADMAP's sim / net / overlay / ... split, from the
    function's name);
  - allocs: the share made inside simulator events (`Simulator::fire` or
    `step` on the stack) and in setup, the calls those shares stand for (and per op
    with --per), and the allocation sites: the first caller inside the
    repository, by function and by line.
"""
import argparse
import collections
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PROBE = "host_probe_s"
IN_EVENT = re.compile(r"atum::sim::Simulator::(fire|step)\b")

# A library without a symbol table (glibc here) names a sample by the
# nearest exported symbol below it, as "symbol (library)". In glibc 2.36
# the allocator's internal functions lie right after `timer_settime` and
# `__default_morecore`, and libm's internal log1p (the network's jitter)
# after its other exports, so those count as malloc/free and net.
LIBRARY_LAYERS = [
    ("malloc/free", re.compile(r"^(timer_settime|__default_morecore|malloc|free|cfree|calloc|"
                               r"realloc|__libc_\w+|malloc_\w+) \(libc\.so")),
    ("net", re.compile(r" \(libm\.so")),
    ("serde, Payload, refcounts, RNG, libc mem*", re.compile(r"^(mem|str)\w* \(libc\.so")),
]

# (layer, pattern on the function name), first match wins.
LAYERS = LIBRARY_LAYERS + [
    ("malloc/free", re.compile(r"^(malloc|free|cfree|calloc|realloc|_int_\w+|malloc_\w+|"
                               r"unlink_chunk|tcache_\w+|operator new|operator delete|"
                               r"__libc_(malloc|free|calloc|realloc))\b")),
    ("ledger", re.compile(r"\bledger::")),
    ("net", re.compile(r"atum::net::SimNetwork|__log1p|log1p")),
    ("sim", re.compile(r"atum::sim::")),
    ("overlay", re.compile(r"atum::overlay::|atum::BroadcastId")),
    ("group", re.compile(r"atum::group::")),
    ("smr", re.compile(r"atum::smr::")),
    ("crypto", re.compile(r"atum::crypto::")),
    ("core", re.compile(r"atum::core::")),
    ("serde, Payload, refcounts, RNG, libc mem*",
     re.compile(r"atum::ByteWriter|atum::ByteReader|atum::net::Payload|_Sp_counted|"
                r"atum::Rng|^(__)?mem(cpy|move|set|cmp)|^__memc?\w*_avx|^__mem\w+")),
]


def layer_of(function):
    for name, pattern in LAYERS:
        if pattern.search(function):
            return name
    return "other"


def parse(path):
    """Returns (kind, calls, period, maps, stacks)."""
    with open(path) as f:
        lines = f.read().splitlines()
    head = {}
    i = 0
    while lines[i] != "maps":
        key, value = lines[i].split(" ", 1)
        head[key] = value
        i += 1
    i += 1
    maps = []
    while lines[i] != "stacks":
        fields = lines[i].split()
        if len(fields) >= 6 and "x" in fields[1]:
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, int(fields[2], 16), fields[5]))
        i += 1
    stacks = [[int(a, 16) for a in line.split()] for line in lines[i + 1:] if line]
    return head["kind"], int(head["calls"]), int(head["period"]), maps, stacks


def is_exec(path):
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return header[:4] == b"\x7fELF" and int.from_bytes(header[16:18], "little") == 2


class Symbolizer:
    def __init__(self):
        self.cache = {}
        self.exec_cache = {}

    def module_address(self, maps, addr):
        for start, end, offset, path in maps:
            if start <= addr < end:
                if path not in self.exec_cache:
                    self.exec_cache[path] = is_exec(path)
                return path, addr if self.exec_cache[path] else addr - start + offset
        return None, addr

    def resolve(self, requests):
        """requests: {path: set(addresses)}; fills self.cache[(path, a)]."""
        for path, addrs in requests.items():
            todo = sorted(a for a in addrs if (path, a) not in self.cache)
            if not todo:
                continue
            out = subprocess.run(["addr2line", "-i", "-f", "-C", "-a", "-e", path],
                                 input="\n".join(hex(a) for a in todo), capture_output=True,
                                 text=True).stdout.splitlines()
            # -a starts each address's output with the address; then one
            # (function, file:line) pair per inlined level, innermost first.
            frames, addr, function = {}, None, None
            for line in out:
                if re.fullmatch(r"0x[0-9a-f]+", line):
                    addr, function = int(line, 16), None
                    frames[addr] = []
                elif function is None:
                    function = line
                else:
                    frames[addr].append((function, line))
                    function = None
            symbols = None
            name = os.path.basename(path)
            for a in todo:
                chain = frames.get(a, [])
                if not chain or chain[-1][0] == "??":
                    if symbols is None:
                        symbols = dynamic_symbols(path)
                    below = nearest(symbols, a)
                    chain = [(below or "??", "??:0")]
                if not self.exec_cache.get(path) and all(loc.startswith("??") for _, loc in chain):
                    # No line info: addr2line named the nearest exported symbol.
                    chain = [(f"{chain[-1][0]} ({name})", chain[-1][1])]
                self.cache[(path, a)] = chain


def dynamic_symbols(path):
    out = subprocess.run(["nm", "-D", "-C", "--defined-only", path], capture_output=True,
                         text=True).stdout.splitlines()
    symbols = []
    for line in out:
        fields = line.split(" ", 2)
        if len(fields) == 3 and fields[1] in "TtWi":
            symbols.append((int(fields[0], 16), fields[2].split("@")[0]))
    symbols.sort()
    return symbols


def nearest(symbols, addr):
    lo, hi = 0, len(symbols)
    while lo < hi:
        mid = (lo + hi) // 2
        if symbols[mid][0] <= addr:
            lo = mid + 1
        else:
            hi = mid
    return symbols[lo - 1][1] if lo > 0 else None


def in_repo(location):
    path = location.split(":")[0]
    return path.startswith(ROOT + os.sep) or "/src/" in path or "/perfledger/" in path


def short(location):
    path, _, line = location.partition(":")
    rel = os.path.relpath(path, ROOT) if path.startswith(ROOT) else path
    return f"{rel}:{line.split(' ')[0]}"


def print_table(title, counter, total, top):
    print(f"\n{title}")
    for key, n in counter.most_common(top):
        print(f"  {100.0 * n / total:6.2f}%  {n:9d}  {key}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--per", type=float, default=0.0,
                        help="divide allocation counts by this many ops")
    args = parser.parse_args()

    runs = [parse(p) for p in args.files]
    kinds = {r[0] for r in runs}
    if len(kinds) != 1:
        sys.exit("report.py: mix of .pcs and .allocs files")
    kind = kinds.pop()

    sym = Symbolizer()
    requests = collections.defaultdict(set)
    located = []
    for _, _, _, maps, stacks in runs:
        run_frames = []
        for stack in stacks:
            frames = []
            for depth, addr in enumerate(stack):
                # A return address points after its call: look up the call.
                look = addr if (kind == "pcs" and depth == 0) else addr - 1
                path, a = sym.module_address(maps, look)
                frames.append((path, a))
                if path is not None:
                    requests[path].add(a)
            run_frames.append(frames)
        located.append(run_frames)
    sym.resolve(requests)

    def chain(frame):
        path, a = frame
        return sym.cache.get((path, a), [("??", "??:0")]) if path else [("??", "??:0")]

    total_calls = sum(r[1] for r in runs)
    kept = dropped = 0
    by_function, by_line, by_layer = (collections.Counter() for _ in range(3))
    where = collections.Counter()
    for run_frames in located:
        for frames in run_frames:
            if not frames:
                continue
            chains = [chain(f) for f in frames]
            names = [fn for c in chains for fn, _ in c]
            if any(PROBE in n for n in names):
                dropped += 1
                continue
            kept += 1
            if kind == "pcs":
                leaf = chains[0]
                function = leaf[-1][0]
                by_function[function] += 1
                by_layer[layer_of(function)] += 1
                line = next((loc for _, loc in leaf if in_repo(loc)), leaf[0][1])
                by_line[short(line)] += 1
            else:
                share = "in events" if any(IN_EVENT.search(n) for n in names) else "setup and other"
                where[share] += 1
                site = next(((c[-1][0], loc) for c in chains for _, loc in c if in_repo(loc)),
                            (chains[0][-1][0], chains[0][0][1]))
                by_function[(share, site[0])] += 1
                by_line[(share, short(site[1]))] += 1

    print(f"{kind}: {len(runs)} file(s), {kept} samples kept, {dropped} in the host probe dropped")
    if kept == 0:
        return
    if kind == "pcs":
        print_table("by layer", by_layer, kept, args.top)
    else:
        sampled = kept + dropped
        scale = total_calls / sampled if sampled else 0.0
        print(f"calls counted: {total_calls}")
        for share, n in sorted(where.items()):
            est = n * scale
            per = f", {est / args.per:.3f} per op" if args.per > 0 else ""
            print(f"  {share}: {100.0 * n / sampled:.1f}% of samples, ~{est:.0f} calls{per}")
        for share, n in sorted(where.items()):
            for title, counter in (("by function", by_function), ("by source line", by_line)):
                print_table(f"{share}, {title} (% of the share)",
                            collections.Counter({k[1]: v for k, v in counter.items()
                                                 if k[0] == share}), n, args.top)
        return
    print_table("by function", by_function, kept, args.top)
    print_table("by source line", by_line, kept, args.top)


if __name__ == "__main__":
    main()
