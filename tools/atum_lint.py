#!/usr/bin/env python3
"""atum_lint: domain-specific determinism and safety linter for src/.

Atum's load-bearing properties — byte-deterministic scenario reports,
replayable experiments, zero-copy payload sharing, bounded arenas — are
invariants no off-the-shelf tool knows about. This linter makes violating
them un-mergeable. Rules (see ARCHITECTURE.md "Correctness tooling" for the
full rationale):

  nondeterminism   Wall clocks and unseeded entropy are banned in src/
                   outside common/rng.cpp: every draw must flow from a
                   seeded atum::Rng, every timestamp from sim::Simulator.
                   Tokens: std::rand/srand/time()/clock(), clock_gettime,
                   gettimeofday, system_clock, steady_clock,
                   high_resolution_clock, random_device, mt19937,
                   default_random_engine. This also enforces the src/obs/
                   wall-clock ban: observability samples are stamped with
                   caller-supplied sim-time only.

  banned-include   <random>, <ctime>, <chrono> in src/ (outside common/rng.*)
                   — the headers behind the tokens above. Sim time is
                   TimeMicros; randomness is atum::Rng.

  adhoc-counter    New `*_count_` members or `struct FooStats` declarations
                   in the obs-instrumented layers (src/{net,overlay,smr,
                   core,sim,group,apps}). Those layers expose their metrics
                   through the one obs::Registry surface (ISSUE 9); a fresh
                   ad-hoc counter silently forks it. Pre-registry counters
                   that the registry polls via probes carry:
                       // lint: adhoc-counter-ok(<how the registry sees it>)

  reinterpret-cast reinterpret_cast in src/ — strict-aliasing/alignment UB
                   bait; use std::memcpy or std::bit_cast. Byte-type puns
                   that are genuinely aliasing-exempt may be annotated:
                       // lint: reinterpret-cast-ok(<why well-defined>)

Legacy rules (--legacy): unordered-iter, std-function, naked-new started
here as token matchers and have been superseded by the AST-grounded
versions in tools/atum_analyze/ (libclang over compile_commands.json —
canonical types instead of declared-name matching, real call-graph
reachability instead of directory heuristics). The regex forms stay
available behind --legacy as the fallback for environments without a
usable libclang; `atum_analyze --probe` tells CMake which mode to wire in.

  unordered-iter   Iterating a declared std::unordered_{map,set} or flat
                   hash table (FlatMap, FlatSet, FlatTable; range-for,
                   erase_if, make_room, .begin()) without
                       // lint: unordered-iter-ok(<why order cannot leak>)

  std-function     std::function in src/sim/ and src/net/ — the layers
                   whose per-event/per-message paths must stay
                   allocation-free. Override:
                       // lint: std-function-ok(<why not hot>)

  naked-new        `new`/`malloc`-family in src/ (placement new allowed).
                   Override:
                       // lint: naked-new-ok(<who owns it>)

Usage:
  atum_lint.py <dir-or-file>...     lint (exit 1 on findings)
  atum_lint.py --legacy <paths>     also run the superseded regex rules
  atum_lint.py --self-test          run the built-in fixture suite
  atum_lint.py --list-rules         print rule names and exit

Annotations are deliberately loud: each carries a mandatory parenthesized
reason, so `grep -rn "lint:" src/` is a reviewable audit trail.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Source model: strip comments/strings but keep line structure, remember
# per-line annotations.
# --------------------------------------------------------------------------

ANNOTATION_RE = re.compile(r"//\s*lint:\s*([a-z-]+)-ok\(([^)]+)\)")


class SourceFile:
    """A C++ source file with comments/string-literals blanked out.

    Lint rules match against the blanked text so tokens in comments or
    string literals never fire, while `// lint: <rule>-ok(reason)`
    annotations are collected (from the raw text) before blanking.
    """

    def __init__(self, path: str, raw: str):
        self.path = path
        self.raw_lines = raw.splitlines()
        # line number (1-based) -> set of rule names annotated on that line
        self.annotations: dict[int, set[str]] = {}
        for i, line in enumerate(self.raw_lines, start=1):
            for m in ANNOTATION_RE.finditer(line):
                self.annotations.setdefault(i, set()).add(m.group(1))
        self.lines = _blank_comments_and_strings(raw).splitlines()

    def annotated(self, lineno: int, rule: str) -> bool:
        """True if `lineno` or the line above carries a `rule`-ok annotation."""
        for cand in (lineno, lineno - 1):
            if rule in self.annotations.get(cand, set()):
                return True
        return False


def _blank_comments_and_strings(text: str) -> str:
    """Replace comment and string-literal contents with spaces, preserving
    newlines so line numbers survive. Handles //, /* */, "..." and '...'
    with escapes; raw strings are treated as plain strings (good enough for
    this codebase, which has none)."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | dq | sq
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "dq"
                out.append('"')
                i += 1
                continue
            if c == "'":
                mode = "sq"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("dq", "sq"):
            quote = '"' if mode == "dq" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; bail to code to stay line-stable
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


class Finding:
    def __init__(self, rule: str, path: str, lineno: int, message: str):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

NONDET_TOKENS = [
    (re.compile(r"\bstd::rand\b|[^:\w]rand\s*\(|\bsrand\s*\("), "C rand()"),
    (re.compile(r"[^:\w_]time\s*\(\s*(NULL|nullptr|0)?\s*\)"), "wall-clock time()"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "std::chrono::high_resolution_clock"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
]

BANNED_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<(random|ctime|chrono)>")

# Files exempt from the nondeterminism/banned-include rules: the one seeded
# entropy implementation.
RNG_EXEMPT = re.compile(r"(^|/)common/rng\.(cpp|h)$")

# Hash-ordered containers: the standard unordered ones and common/flat_table.h's.
UNORDERED_DECL_RE = re.compile(
    r"(?:\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)|\bFlat(?:Map|Set|Table))"
    r"\s*<[^;{}]*>\s+(\w+)\s*[;{=]"
)
ERASE_IF_RE = re.compile(
    r"\bstd\s*::\s*erase_if\s*\(\s*([\w.\->]+)|([\w.\->]+)\.(?:erase_if|make_room)\s*\(")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*\*?([\w.\->]+)\s*\)")
BEGIN_ITER_RE = re.compile(r"([\w.\->]+)\.(?:begin|cbegin)\s*\(\s*\)")

STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
HOT_DIRS_RE = re.compile(r"(^|/)(sim|net)/")

# adhoc-counter: layers already migrated onto obs::Registry (ISSUE 9). A
# fresh `*_count_` member or `struct FooStats` there is a new metrics
# surface bypassing the registry.
INSTRUMENTED_DIRS_RE = re.compile(r"(^|/)(net|overlay|smr|core|sim|group|apps)/")
ADHOC_COUNTER_MEMBER_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:u?int(?:8|16|32|64)_t|size_t|unsigned|long|int)\s+"
    r"\w*counts?_\s*(?:=|;|\{)")
ADHOC_STATS_STRUCT_RE = re.compile(r"\bstruct\s+\w*Stats\b")

NAKED_NEW_RE = re.compile(r"(?<![:\w])new\b(?!\s*\()")  # `new T`, not placement `new (buf) T`
PLACEMENT_NEW_RE = re.compile(r"(?<![:\w])new\s*\(")
MALLOC_RE = re.compile(r"\b(malloc|calloc|realloc|aligned_alloc|free)\s*\(")
REINTERPRET_RE = re.compile(r"\breinterpret_cast\s*<")


# Rules superseded by the AST-grounded analyzer (tools/atum_analyze/); kept
# behind --legacy as the no-libclang fallback.
LEGACY_RULES = frozenset({"unordered-iter", "std-function", "naked-new"})


def lint_file(src: SourceFile, unordered_names: set[str],
              legacy: bool = False) -> list[Finding]:
    findings: list[Finding] = []
    path = src.path
    exempt_rng = bool(RNG_EXEMPT.search(path))
    hot_layer = bool(HOT_DIRS_RE.search(path))
    instrumented = bool(INSTRUMENTED_DIRS_RE.search(path))

    for lineno, line in enumerate(src.lines, start=1):
        if not exempt_rng:
            for pat, what in NONDET_TOKENS:
                if pat.search(line):
                    findings.append(Finding(
                        "nondeterminism", path, lineno,
                        f"{what} breaks replayability; all randomness/time must flow "
                        f"from seeded atum::Rng / sim::Simulator"))
            m = BANNED_INCLUDE_RE.match(line)
            if m:
                findings.append(Finding(
                    "banned-include", path, lineno,
                    f"<{m.group(1)}> is banned in src/ (sim time is TimeMicros, "
                    f"randomness is atum::Rng)"))

        if legacy:
            iter_names = set()
            for m in ERASE_IF_RE.finditer(line):
                iter_names.add(m.group(1) or m.group(2))
            for m in RANGE_FOR_RE.finditer(line):
                iter_names.add(m.group(1))
            for m in BEGIN_ITER_RE.finditer(line):
                iter_names.add(m.group(1))
            for name in iter_names:
                base = name.split(".")[-1].split(">")[-1]  # x.y_, it->z_ -> last component
                if base in unordered_names and not src.annotated(lineno, "unordered-iter"):
                    findings.append(Finding(
                        "unordered-iter", path, lineno,
                        f"iteration over unordered container '{base}' leaks hash-bucket "
                        f"order; sort the output, use an ordered container, or annotate "
                        f"// lint: unordered-iter-ok(reason) after auditing"))

        if instrumented \
                and (ADHOC_COUNTER_MEMBER_RE.search(line) or ADHOC_STATS_STRUCT_RE.search(line)) \
                and not src.annotated(lineno, "adhoc-counter"):
            findings.append(Finding(
                "adhoc-counter", path, lineno,
                "new ad-hoc counter/stats surface in an obs-instrumented layer; "
                "register an obs::Registry counter/probe (src/obs/) so the one "
                "uniform metrics surface stays complete, or annotate "
                "// lint: adhoc-counter-ok(reason)"))

        if legacy and hot_layer and STD_FUNCTION_RE.search(line) \
                and not src.annotated(lineno, "std-function"):
            findings.append(Finding(
                "std-function", path, lineno,
                "std::function in a sim//net/ hot layer (heap-allocates closures; "
                "see sim::EventFn); annotate // lint: std-function-ok(reason) if "
                "this is genuinely off the hot path"))

        is_preprocessor = line.lstrip().startswith("#")
        if legacy and not is_preprocessor \
                and (NAKED_NEW_RE.search(line) or MALLOC_RE.search(line)) \
                and not src.annotated(lineno, "naked-new"):
            findings.append(Finding(
                "naked-new", path, lineno,
                "naked new/malloc in src/; use make_unique/make_shared/containers "
                "or annotate // lint: naked-new-ok(owner)"))

        if REINTERPRET_RE.search(line) and not src.annotated(lineno, "reinterpret-cast"):
            findings.append(Finding(
                "reinterpret-cast", path, lineno,
                "reinterpret_cast invites strict-aliasing/alignment UB; use "
                "std::memcpy or std::bit_cast, or annotate "
                "// lint: reinterpret-cast-ok(reason) with the aliasing argument"))

    return findings


def collect_unordered_names(sources: list[SourceFile]) -> set[str]:
    """Names of every variable/member declared with an unordered container
    anywhere in the linted set. Name-based matching is deliberately
    over-approximate (a same-named ordered local elsewhere also gets
    flagged) — the annotation is the escape hatch, and a false positive
    costs one audited comment."""
    names: set[str] = set()
    for src in sources:
        for line in src.lines:
            for m in UNORDERED_DECL_RE.finditer(line):
                names.add(m.group(1))
    return names


def lint_paths(paths: list[Path], legacy: bool = False) -> list[Finding]:
    files: list[SourceFile] = []
    for root in paths:
        if root.is_file():
            candidates = [root]
        else:
            candidates = sorted(p for p in root.rglob("*") if p.suffix in (".h", ".cpp", ".cc", ".hpp"))
        for p in candidates:
            files.append(SourceFile(str(p), p.read_text(encoding="utf-8")))
    unordered_names = collect_unordered_names(files)
    findings: list[Finding] = []
    for src in files:
        findings.extend(lint_file(src, unordered_names, legacy=legacy))
    return findings


# --------------------------------------------------------------------------
# Self-test fixtures: each rule has at least one must-fail and one must-pass
# fixture, so the linter itself is regression-tested (wired into ctest as
# atum_lint_selftest).
# --------------------------------------------------------------------------

FIXTURES = [
    # (name, path, code, expected rule or None)
    ("rand_fails", "src/x/a.cpp", "int x = std::rand();\n", "nondeterminism"),
    ("system_clock_fails", "src/x/a.cpp",
     "auto t = std::chrono::system_clock::now();\n", "nondeterminism"),
    ("random_device_fails", "src/x/a.cpp", "std::random_device rd;\n", "nondeterminism"),
    ("time_call_fails", "src/x/a.cpp", "auto t = time(nullptr);\n", "nondeterminism"),
    ("mt19937_fails", "src/x/a.cpp", "std::mt19937_64 g(7);\n", "nondeterminism"),
    ("rng_cpp_exempt", "src/common/rng.cpp",
     "#include <random>\nstd::random_device rd;\n", None),
    ("comment_mention_ok", "src/x/a.cpp",
     "// std::rand() and system_clock are banned here\nint x = 0;\n", None),
    ("string_mention_ok", "src/x/a.cpp",
     'const char* s = "std::rand() time(NULL)";\n', None),
    ("runtime_identifier_ok", "src/x/a.cpp",
     "int runtime_ = 0; int t = runtime_;\n", None),
    ("include_random_fails", "src/x/a.cpp", "#include <random>\n", "banned-include"),
    ("include_chrono_fails", "src/x/a.cpp", "#include <chrono>\n", "banned-include"),
    ("include_vector_ok", "src/x/a.cpp", "#include <vector>\n", None),

    ("unordered_range_for_fails", "src/x/a.cpp",
     "std::unordered_map<int, int> tbl_;\n"
     "void f() { for (const auto& [k, v] : tbl_) { report(k); } }\n",
     "unordered-iter"),
    ("unordered_erase_if_fails", "src/x/a.cpp",
     "std::unordered_set<int> seen_;\n"
     "void f() { std::erase_if(seen_, [](int) { return true; }); }\n",
     "unordered-iter"),
    ("unordered_member_iter_fails", "src/x/a.cpp",
     "struct S { std::unordered_map<int, int> next; };\n"
     "void f(S& s) { for (auto& [k, v] : s.next) { emit(k); } }\n",
     "unordered-iter"),
    ("unordered_begin_fails", "src/x/a.cpp",
     "std::unordered_map<int, int> tbl_;\n"
     "auto f() { return tbl_.begin(); }\n",
     "unordered-iter"),
    ("unordered_annotated_ok", "src/x/a.cpp",
     "std::unordered_map<int, int> tbl_;\n"
     "// lint: unordered-iter-ok(output is sorted below)\n"
     "void f() { for (const auto& [k, v] : tbl_) { out.push_back(k); } }\n",
     None),
    ("unordered_lookup_ok", "src/x/a.cpp",
     "std::unordered_map<int, int> tbl_;\n"
     "int f() { auto it = tbl_.find(3); return it == tbl_.end() ? 0 : it->second; }\n",
     None),
    ("flat_range_for_fails", "src/x/a.cpp",
     "FlatMap<NodeId, Node> nodes_;\n"
     "void f() { for (auto& [id, n] : nodes_) { emit(id); } }\n",
     "unordered-iter"),
    ("flat_erase_if_fails", "src/x/a.cpp",
     "FlatSet<GroupMessageId> recent_;\n"
     "void f() { recent_.erase_if([](const auto&) { return true; }); }\n",
     "unordered-iter"),
    ("flat_make_room_fails", "src/x/a.cpp",
     "FlatMap<NodeId, Node> nodes_;\n"
     "void f() { nodes_.make_room([](const auto&) { return true; }); }\n",
     "unordered-iter"),
    ("flat_annotated_ok", "src/x/a.cpp",
     "FlatMap<NodeId, Node> nodes_;\n"
     "// lint: unordered-iter-ok(per-record reset, order-free)\n"
     "void f() { for (auto& [id, n] : nodes_) { n.tag = 0; } }\n",
     None),
    ("flat_lookup_ok", "src/x/a.cpp",
     "FlatMap<NodeId, Node> nodes_;\n"
     "Node* f(NodeId id) { return nodes_.find(id); }\n",
     None),
    ("ordered_map_iter_ok", "src/x/a.cpp",
     "std::map<int, int> sorted_;\n"
     "void f() { for (const auto& [k, v] : sorted_) { report(k); } }\n",
     None),

    ("clock_gettime_fails", "src/obs/a.cpp",
     "struct timespec ts; clock_gettime(CLOCK_MONOTONIC, &ts);\n", "nondeterminism"),
    ("gettimeofday_fails", "src/obs/a.cpp",
     "struct timeval tv; gettimeofday(&tv, nullptr);\n", "nondeterminism"),

    ("adhoc_count_member_fails", "src/overlay/a.h",
     "class C { std::uint64_t relay_count_ = 0; };\n", "adhoc-counter"),
    ("adhoc_stats_struct_fails", "src/smr/a.h",
     "struct ReplicaStats { std::uint64_t commits = 0; };\n", "adhoc-counter"),
    ("adhoc_annotated_ok", "src/net/a.h",
     "// lint: adhoc-counter-ok(polled by bind_metrics probes)\n"
     "struct LinkStats { std::uint64_t drops = 0; };\n", None),
    ("adhoc_outside_instrumented_ok", "src/scenario/a.h",
     "struct PhaseStats { std::uint64_t sent = 0; };\n", None),
    ("adhoc_plain_member_ok", "src/overlay/a.h",
     "class C { std::uint64_t next_seq_ = 0; };\n", None),

    ("std_function_in_sim_fails", "src/sim/a.h",
     "std::function<void()> cb_;\n", "std-function"),
    ("std_function_in_net_fails", "src/net/a.h",
     "using Handler = std::function<void(int)>;\n", "std-function"),
    ("std_function_annotated_ok", "src/net/a.h",
     "// lint: std-function-ok(bind-time registration, not per-message)\n"
     "using Handler = std::function<void(int)>;\n", None),
    ("std_function_in_apps_ok", "src/apps/a.h",
     "std::function<void()> cb_;\n", None),

    ("naked_new_fails", "src/x/a.cpp", "int* p = new int(3);\n", "naked-new"),
    ("malloc_fails", "src/x/a.cpp", "void* p = malloc(64);\n", "naked-new"),
    ("placement_new_ok", "src/x/a.cpp",
     "::new (static_cast<void*>(buf)) Fn(std::move(f));\n", None),
    ("make_unique_ok", "src/x/a.cpp",
     "auto p = std::make_unique<int>(3);\n", None),
    ("naked_new_annotated_ok", "src/x/a.cpp",
     "// lint: naked-new-ok(owned by ops_->destroy)\n"
     "int* p = new int(3);\n", None),
    ("include_new_header_ok", "src/x/a.cpp", "#include <new>\n", None),

    ("reinterpret_fails", "src/x/a.cpp",
     "auto* p = reinterpret_cast<const char*>(q);\n", "reinterpret-cast"),
    ("reinterpret_annotated_ok", "src/x/a.cpp",
     "// lint: reinterpret-cast-ok(char->uint8_t read, aliasing-exempt)\n"
     "auto* p = reinterpret_cast<const std::uint8_t*>(q);\n", None),
    ("static_cast_ok", "src/x/a.cpp",
     "auto v = static_cast<std::size_t>(n);\n", None),
]


def self_test() -> int:
    """Runs every fixture in both modes: legacy-rule fixtures must fire only
    under --legacy (the default run defers those rules to atum_analyze), all
    other expectations must hold in both modes."""
    failures = []
    for name, path, code, expected_rule in FIXTURES:
        src = SourceFile(path, code)
        unordered = collect_unordered_names([src])
        default_rules = {f.rule for f in lint_file(src, unordered)}
        legacy_rules = {f.rule for f in lint_file(src, unordered, legacy=True)}
        if default_rules & LEGACY_RULES:
            failures.append(
                f"{name}: legacy rule(s) {sorted(default_rules & LEGACY_RULES)} "
                f"fired without --legacy")
        if expected_rule is None:
            if legacy_rules:
                failures.append(f"{name}: expected clean, got {sorted(legacy_rules)}")
        elif expected_rule in LEGACY_RULES:
            if expected_rule not in legacy_rules:
                failures.append(
                    f"{name}: expected a {expected_rule} finding under --legacy, "
                    f"got {sorted(legacy_rules) or 'none'}")
        else:
            for mode, rules in (("default", default_rules), ("--legacy", legacy_rules)):
                if expected_rule not in rules:
                    failures.append(
                        f"{name}: expected a {expected_rule} finding in {mode} mode, "
                        f"got {sorted(rules) or 'none'}")
    if failures:
        print(f"atum_lint self-test: {len(failures)}/{len(FIXTURES)} fixtures FAILED")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"atum_lint self-test: {len(FIXTURES)} fixtures passed (default + --legacy modes)")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument("--legacy", action="store_true",
                    help="also run the regex rules superseded by atum_analyze "
                         "(unordered-iter, std-function, naked-new); use when "
                         "no libclang is available")
    ap.add_argument("--self-test", action="store_true", help="run fixture suite")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        print("nondeterminism banned-include adhoc-counter reinterpret-cast")
        print("legacy (--legacy, superseded by atum_analyze): "
              "unordered-iter std-function naked-new")
        return 0
    if args.self_test:
        return self_test()
    if not args.paths:
        ap.error("no paths given (or use --self-test)")

    findings = lint_paths([Path(p) for p in args.paths], legacy=args.legacy)
    for f in findings:
        print(f)
    if findings:
        print(f"atum_lint: {len(findings)} finding(s)")
        return 1
    print("atum_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
