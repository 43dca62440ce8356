"""libclang front-end for atum_analyze.

Loads the exported compile_commands.json, parses each translation unit
with clang.cindex, and extracts a semantic model of the repository:

  * a call graph over every function/method/constructor defined in repo
    files, with each call site tagged by whether it is lexically dominated
    by a try block whose handlers catch SerdeError (or broader);
  * decode uses: calls to throwing ByteReader read methods, with the same
    guard tag;
  * allocation sites: non-placement `new`, make_unique/make_shared,
    std::function construction, Payload::to_bytes(), Bytes copy
    construction;
  * range-for statements with the *canonical* type of the iterated range
    (so `auto&`, typedefs and structured bindings cannot hide an
    unordered container or a flat hash table);
  * payload-escape candidates: Payload::data()/bytes_view()-derived raw
    views stored into members, returned, or captured by scheduled
    callables;
  * unguarded wire-derived reserve/resize calls.

The rules in rules.py consume this model; they never touch libclang
directly, which keeps them unit-testable without a clang installation.

libclang discovery is defensive because the analyzer must degrade to a
SKIP (not a crash) on hosts without clang: see find_libclang().
"""

from __future__ import annotations

import glob
import json
import os
import shlex

# ---------------------------------------------------------------------------
# libclang discovery
# ---------------------------------------------------------------------------

# Env override for non-standard layouts; CI pins it to the apt-installed
# libclang-14 so the analyzer never silently floats to another version.
LIBCLANG_ENV = "ATUM_LIBCLANG"
# Test hook: force the "no libclang" path even on hosts that have it.
FORCE_NO_LIBCLANG_ENV = "ATUM_ANALYZE_FORCE_NO_LIBCLANG"


def find_libclang():
    """Returns (cindex_module, None) or (None, reason_string).

    Tries, in order: the ATUM_LIBCLANG env path, versioned system glob
    locations, then cindex's own default search. libclang-cpp (the C++
    interface library) is explicitly excluded — it does not export the C
    API the python bindings need.
    """
    if os.environ.get(FORCE_NO_LIBCLANG_ENV):
        return None, "libclang disabled via %s" % FORCE_NO_LIBCLANG_ENV
    try:
        import clang.cindex as cindex
    except ImportError:
        return None, "python clang bindings (clang.cindex) not importable"

    candidates = []
    env = os.environ.get(LIBCLANG_ENV)
    if env:
        candidates.append(env)
    for pattern in (
        "/usr/lib/llvm-*/lib/libclang.so*",
        "/usr/lib/llvm-*/lib/libclang-*.so*",
        "/usr/lib/*/libclang.so*",
        "/usr/lib/*/libclang-*.so*",
    ):
        candidates.extend(sorted(glob.glob(pattern)))
    candidates = [c for c in candidates if c and "libclang-cpp" not in c]

    for candidate in candidates:
        cindex.Config.library_file = candidate
        try:
            cindex.Index.create()
            return cindex, None
        except Exception:  # noqa: BLE001 - any load failure => next candidate
            continue
    # Last resort: let cindex search its default locations.
    cindex.Config.library_file = None
    try:
        cindex.Index.create()
        return cindex, None
    except Exception:  # noqa: BLE001
        return None, "no usable libclang shared library found"


# ---------------------------------------------------------------------------
# compile_commands.json
# ---------------------------------------------------------------------------

# Flags that take a separate argument and must be dropped with it.
_DROP_WITH_ARG = {"-o", "-MT", "-MF", "-MQ", "--output"}


def sanitize_args(argv, source_file):
    """Strips a compile command down to what libclang needs for parsing.

    Drops the compiler argv0, the source file itself, output/dep-file
    flags, and warning flags (gcc warning spellings clang does not know
    would otherwise become parse diagnostics).
    """
    out = []
    skip_next = False
    for i, arg in enumerate(argv):
        if i == 0:
            continue  # compiler binary
        if skip_next:
            skip_next = False
            continue
        if arg in _DROP_WITH_ARG:
            skip_next = True
            continue
        if arg in ("-c", "-MD", "-MMD", "-MP"):
            continue
        if arg.startswith(("-o", "-W")) and arg not in ("-o", "-W"):
            # -oFILE / -Wfoo forms (but keep bare "-o" handling above).
            if arg.startswith("-o") or arg.startswith("-W"):
                continue
        if arg.startswith("-fdiagnostics"):
            continue
        if os.path.basename(arg) == os.path.basename(source_file):
            continue
        out.append(arg)
    return out


def load_compile_commands(path):
    """Parses compile_commands.json into [(abs_source, args, directory)].

    Raises FileNotFoundError / ValueError with actionable messages; the
    CLI turns those into exit code 2.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(
            "compile_commands.json not found at %s "
            "(configure with cmake first: it exports compile commands)" % path
        )
    with open(path, encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("%s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(entries, list):
        raise ValueError("%s: expected a JSON array of compile commands" % path)
    commands = []
    for entry in entries:
        directory = entry.get("directory", ".")
        source = entry.get("file", "")
        if not os.path.isabs(source):
            source = os.path.join(directory, source)
        source = os.path.normpath(source)
        if "arguments" in entry:
            argv = list(entry["arguments"])
        else:
            argv = shlex.split(entry.get("command", ""))
        commands.append((source, sanitize_args(argv, source), directory))
    return commands


# ---------------------------------------------------------------------------
# Semantic model
# ---------------------------------------------------------------------------


class CallSite:
    __slots__ = ("name", "usr", "file", "line", "col", "guarded")

    def __init__(self, name, usr, file, line, col, guarded):
        self.name = name
        self.usr = usr
        self.file = file
        self.line = line
        self.col = col
        self.guarded = guarded


class Fact:
    """A located fact: decode use, alloc, range-for, escape, reserve."""

    __slots__ = ("file", "line", "col", "desc", "guarded")

    def __init__(self, file, line, col, desc, guarded=False):
        self.file = file
        self.line = line
        self.col = col
        self.desc = desc
        self.guarded = guarded


class FunctionNode:
    __slots__ = (
        "usr",
        "qualname",
        "file",
        "line",
        "col",
        "calls",
        "decode_uses",
        "allocs",
        "serde_exempt",
    )

    def __init__(self, usr, qualname, file, line, col, serde_exempt):
        self.usr = usr
        self.qualname = qualname
        self.file = file
        self.line = line
        self.col = col
        self.calls = []
        self.decode_uses = []
        self.allocs = []
        # True for ByteReader/ByteWriter members: the serde layer's own
        # reads are the throwing primitive, not an unguarded consumer.
        self.serde_exempt = serde_exempt


class Model:
    def __init__(self):
        self.functions = {}  # usr -> FunctionNode
        self.name_index = {}  # simple name -> [usr, ...]
        self.range_iters = []  # Fact(desc=canonical range type)
        self.escapes = []  # Fact(desc=message)
        self.reserve_flags = []  # Fact(desc=message)
        self.parse_errors = []  # (file, message)
        self._seen_locs = set()

    def add_function(self, node):
        self.functions[node.usr] = node
        self.name_index.setdefault(node.qualname.rsplit("::", 1)[-1], []).append(node.usr)

    def add_once(self, bucket, fact, tag):
        key = (tag, fact.file, fact.line, fact.col, fact.desc)
        if key in self._seen_locs:
            return
        self._seen_locs.add(key)
        bucket.append(fact)


# Method names on ByteReader that can throw SerdeError.
READER_THROWING = {
    "u8",
    "u16",
    "u32",
    "u64",
    "i8",
    "i16",
    "i32",
    "i64",
    "varint",
    "bytes",
    "bytes_view",
    "raw",
    "str",
    "vec",
    "skip",
    "expect_done",
}

# Classes whose own members are exempt from payload-escape: they ARE the
# owning / viewing abstraction the rule protects callers of.
ESCAPE_EXEMPT_CLASSES = {"Payload", "Frame", "ByteReader", "ByteWriter"}

# Field types that count as "owner stored alongside": holding one of these
# in the same object keeps the viewed frame alive.
OWNER_FIELD_MARKERS = (
    "Payload",
    "Frame",
    "std::vector<unsigned char",
    "std::vector<std::uint8_t",
    "std::basic_string<char",
)

ALLOC_CALL_NAMES = {"make_unique", "make_shared", "malloc", "calloc", "realloc"}

# Canonical type names of containers that iterate in hash order: the
# standard unordered ones and common/flat_table.h's table (FlatMap and
# FlatSet are aliases of atum::FlatTable).
HASH_ORDER_MARKERS = ("unordered_", "atum::FlatTable<")


def iterates_in_hash_order(spelling):
    return any(marker in spelling for marker in HASH_ORDER_MARKERS)

SCHEDULE_CALL_NAMES = {"schedule_at", "schedule_after", "defer", "set_timer"}

BOUND_GUARD_CALL_NAMES = {"check", "min", "max", "clamp", "require", "ensure"}

CATCH_GUARD_MARKERS = ("SerdeError", "runtime_error", "exception")


class Extractor:
    """Walks translation units and fills a Model."""

    def __init__(self, cindex, repo_root, model):
        self.ci = cindex
        self.ck = cindex.CursorKind
        self.tk = cindex.TypeKind
        self.repo_root = os.path.realpath(repo_root) + os.sep
        self.model = model
        self._container_kinds = {
            self.ck.NAMESPACE,
            self.ck.CLASS_DECL,
            self.ck.STRUCT_DECL,
            self.ck.UNION_DECL,
            self.ck.CLASS_TEMPLATE,
            self.ck.CLASS_TEMPLATE_PARTIAL_SPECIALIZATION,
            self.ck.LINKAGE_SPEC,
            self.ck.UNEXPOSED_DECL,
        }
        self._function_kinds = {
            self.ck.FUNCTION_DECL,
            self.ck.CXX_METHOD,
            self.ck.CONSTRUCTOR,
            self.ck.DESTRUCTOR,
            self.ck.FUNCTION_TEMPLATE,
            self.ck.CONVERSION_FUNCTION,
        }

    # -- helpers ----------------------------------------------------------

    def in_repo(self, cursor):
        f = cursor.location.file
        if f is None:
            return False
        return os.path.realpath(f.name).startswith(self.repo_root)

    def loc(self, cursor):
        f = cursor.location.file
        return (
            os.path.realpath(f.name) if f else "<unknown>",
            cursor.location.line,
            cursor.location.column,
        )

    def qualified_name(self, cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != self.ck.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def canonical_spelling(self, ctype):
        try:
            return ctype.get_canonical().spelling
        except Exception:  # noqa: BLE001 - dependent types can misbehave
            return ctype.spelling if ctype is not None else ""

    def is_viewish_type(self, ctype):
        if ctype is None:
            return False
        try:
            canonical = ctype.get_canonical()
        except Exception:  # noqa: BLE001
            return False
        if canonical.kind == self.tk.POINTER:
            pointee = self.canonical_spelling(canonical.get_pointee())
            # Only byte/char views matter here; SomeStruct* members are not
            # payload views.
            return any(t in pointee for t in ("char", "uint8_t", "std::byte"))
        spelling = canonical.spelling
        return "basic_string_view<" in spelling or "span<" in spelling

    def class_of(self, cursor):
        parent = cursor.semantic_parent
        if parent is not None and parent.kind in (
            self.ck.CLASS_DECL,
            self.ck.STRUCT_DECL,
            self.ck.CLASS_TEMPLATE,
            self.ck.CLASS_TEMPLATE_PARTIAL_SPECIALIZATION,
        ):
            return parent
        return None

    def class_has_owner_field(self, class_cursor):
        if class_cursor is None:
            return False
        for child in class_cursor.get_children():
            if child.kind == self.ck.FIELD_DECL:
                spelling = self.canonical_spelling(child.type)
                if any(marker in spelling for marker in OWNER_FIELD_MARKERS):
                    return True
        return False

    # -- view-source detection (payload-escape) ---------------------------

    def _member_call_base_type(self, call):
        kids = list(call.get_children())
        if not kids:
            return ""
        base = kids[0]
        if base.kind == self.ck.MEMBER_REF_EXPR:
            inner = list(base.get_children())
            if inner:
                return self.canonical_spelling(inner[0].type)
        return self.canonical_spelling(base.type)

    def is_view_source_call(self, cursor):
        """True for Payload::data()/begin()/end() and *::bytes_view()."""
        if cursor.kind != self.ck.CALL_EXPR:
            return False
        name = cursor.spelling
        if name not in ("data", "begin", "end", "bytes_view"):
            return False
        ref = cursor.referenced
        if ref is not None:
            owner = self.class_of(ref)
            if owner is not None:
                if name == "bytes_view":
                    return owner.spelling in ("ByteReader", "Payload")
                return owner.spelling == "Payload"
        base_type = self._member_call_base_type(cursor)
        if name == "bytes_view":
            return "ByteReader" in base_type or "Payload" in base_type
        return "Payload" in base_type

    def subtree_has_view_source(self, cursor):
        if self.is_view_source_call(cursor):
            return True
        return any(self.subtree_has_view_source(c) for c in cursor.get_children())

    def subtree_refs_any(self, cursor, usrs):
        if cursor.kind == self.ck.DECL_REF_EXPR:
            ref = cursor.referenced
            if ref is not None and ref.get_usr() in usrs:
                return True
        return any(self.subtree_refs_any(c, usrs) for c in cursor.get_children())

    # -- decode-use detection (handler-serde-safety) -----------------------

    def is_reader_read_call(self, cursor):
        if cursor.kind != self.ck.CALL_EXPR:
            return False
        name = cursor.spelling
        if name not in READER_THROWING:
            return False
        ref = cursor.referenced
        if ref is not None:
            owner = self.class_of(ref)
            if owner is not None:
                return owner.spelling == "ByteReader"
        return "ByteReader" in self._member_call_base_type(cursor)

    def subtree_has_reader_read(self, cursor):
        if self.is_reader_read_call(cursor):
            return True
        return any(self.subtree_has_reader_read(c) for c in cursor.get_children())

    def subtree_has_call_named(self, cursor, names):
        if cursor.kind == self.ck.CALL_EXPR and cursor.spelling in names:
            return True
        return any(self.subtree_has_call_named(c, names) for c in cursor.get_children())

    # -- TU traversal ------------------------------------------------------

    def visit_tu(self, tu):
        self._visit_container(tu.cursor)

    def _visit_container(self, cursor):
        for child in cursor.get_children():
            if not self.in_repo(child):
                continue
            if child.kind in self._function_kinds:
                if child.is_definition():
                    self.extract_function(child)
            elif child.kind in self._container_kinds:
                self._visit_container(child)

    # -- function extraction ----------------------------------------------

    def extract_function(self, cursor):
        usr = cursor.get_usr()
        if not usr or usr in self.model.functions:
            return
        owner = self.class_of(cursor)
        owner_name = owner.spelling if owner is not None else ""
        serde_exempt = owner_name in ("ByteReader", "ByteWriter")
        file, line, col = self.loc(cursor)
        node = FunctionNode(usr, self.qualified_name(cursor), file, line, col, serde_exempt)
        self.model.add_function(node)

        state = _FnState()
        state.escape_exempt = (
            owner_name in ESCAPE_EXEMPT_CLASSES or self.class_has_owner_field(owner)
        )
        try:
            result_type = cursor.type.get_result()
        except Exception:  # noqa: BLE001 - dependent signature
            result_type = None
        state.returns_view = self.is_viewish_type(result_type)

        if cursor.kind == self.ck.CONSTRUCTOR:
            self._extract_ctor_inits(cursor, node, state)
        for child in cursor.get_children():
            if child.kind.is_statement() or child.kind.is_expression():
                self._walk(child, node, state, guarded=False)

    def _extract_ctor_inits(self, cursor, node, state):
        """Member initializers: `Ctor() : field_(payload.data()) {}`.

        cindex exposes them as alternating MEMBER_REF / init-expression
        children preceding the body.
        """
        pending_field = None
        for child in cursor.get_children():
            if child.kind == self.ck.MEMBER_REF:
                pending_field = child.referenced
                continue
            if pending_field is not None and child.kind.is_expression():
                field = pending_field
                pending_field = None
                if (
                    field is not None
                    and self.is_viewish_type(field.type)
                    and self.subtree_has_view_source(child)
                    and not state.escape_exempt
                ):
                    file, line, col = self.loc(child)
                    self.model.add_once(
                        self.model.escapes,
                        Fact(
                            file,
                            line,
                            col,
                            "constructor stores a Payload-derived view into member '%s' "
                            "without an owning Payload/Bytes member alongside"
                            % field.spelling,
                        ),
                        "escape",
                    )

    # -- statement walk ----------------------------------------------------

    def _walk(self, cursor, node, state, guarded):
        kind = cursor.kind

        if kind == self.ck.CXX_TRY_STMT:
            kids = list(cursor.get_children())
            if kids:
                handlers = [k for k in kids[1:] if k.kind == self.ck.CXX_CATCH_STMT]
                body_guarded = guarded or any(
                    self._catch_covers_serde(h) for h in handlers
                )
                self._walk(kids[0], node, state, body_guarded)
                for handler in handlers:
                    self._walk(handler, node, state, guarded)
            return

        if kind == self.ck.IF_STMT or kind == self.ck.CONDITIONAL_OPERATOR:
            kids = list(cursor.get_children())
            if kids:
                self._note_bound_guards(kids[0], state)
            for child in kids:
                self._walk(child, node, state, guarded)
            return

        if kind == self.ck.CXX_FOR_RANGE_STMT:
            self._handle_range_for(cursor)
            for child in cursor.get_children():
                self._walk(child, node, state, guarded)
            return

        if kind == self.ck.VAR_DECL:
            self._handle_var_decl(cursor, node, state)
            for child in cursor.get_children():
                self._walk(child, node, state, guarded)
            return

        if kind == self.ck.CXX_NEW_EXPR:
            self._handle_new(cursor, node)
            for child in cursor.get_children():
                self._walk(child, node, state, guarded)
            return

        if kind == self.ck.RETURN_STMT:
            self._handle_return(cursor, node, state)
            for child in cursor.get_children():
                self._walk(child, node, state, guarded)
            return

        if kind == self.ck.BINARY_OPERATOR:
            self._handle_assignment(cursor, node, state)
            for child in cursor.get_children():
                self._walk(child, node, state, guarded)
            return

        if kind == self.ck.CALL_EXPR:
            self._handle_call(cursor, node, state, guarded)
            for child in cursor.get_children():
                self._walk(child, node, state, guarded)
            return

        for child in cursor.get_children():
            self._walk(child, node, state, guarded)

    def _catch_covers_serde(self, handler):
        kids = list(handler.get_children())
        decls = [k for k in kids if k.kind == self.ck.VAR_DECL]
        if not decls:
            return True  # catch (...)
        spelling = self.canonical_spelling(decls[0].type)
        return any(marker in spelling for marker in CATCH_GUARD_MARKERS)

    def _note_bound_guards(self, condition, state):
        """Any variable referenced in an if/ternary condition counts as
        bound-checked from here on (lexically)."""
        self._collect_decl_refs(condition, state.bound_checked)

    def _collect_decl_refs(self, cursor, out):
        if cursor.kind == self.ck.DECL_REF_EXPR:
            ref = cursor.referenced
            if ref is not None:
                usr = ref.get_usr()
                if usr:
                    out.add(usr)
        for child in cursor.get_children():
            self._collect_decl_refs(child, out)

    def _handle_range_for(self, cursor):
        range_expr = None
        for child in cursor.get_children():
            if child.kind.is_expression():
                range_expr = child
                break
        if range_expr is None:
            return
        spelling = self.canonical_spelling(range_expr.type)
        if iterates_in_hash_order(spelling):
            file, line, col = self.loc(cursor)
            self.model.add_once(
                self.model.range_iters, Fact(file, line, col, spelling), "range"
            )

    def _handle_var_decl(self, cursor, node, state):
        usr = cursor.get_usr()
        spelling = self.canonical_spelling(cursor.type)
        if "std::function<" in spelling:
            file, line, col = self.loc(cursor)
            node.allocs.append(
                Fact(file, line, col, "std::function construction (type-erased heap storage)")
            )
        init_children = [c for c in cursor.get_children() if c.kind.is_expression()]
        init = init_children[-1] if init_children else None
        if init is None or not usr:
            return
        if self.is_viewish_type(cursor.type) and self.subtree_has_view_source(init):
            state.view_vars.add(usr)
        if self.subtree_has_reader_read(init):
            state.wire_vars.add(usr)

    def _handle_new(self, cursor, node):
        # Placement new (`::new (addr) T(...)`) constructs into existing
        # storage; only allocating new counts. Detect placement by token
        # shape: 'new' immediately followed by '('.
        tokens = [t.spelling for t in cursor.get_tokens()]
        for i, tok in enumerate(tokens):
            if tok == "new":
                if i + 1 < len(tokens) and tokens[i + 1] == "(":
                    return
                break
        file, line, col = self.loc(cursor)
        node.allocs.append(Fact(file, line, col, "naked `new` heap allocation"))

    def _handle_return(self, cursor, node, state):
        if not state.returns_view or state.escape_exempt:
            return
        kids = list(cursor.get_children())
        if not kids:
            return
        expr = kids[0]
        if self.subtree_has_view_source(expr) or self.subtree_refs_any(
            expr, state.view_vars
        ):
            file, line, col = self.loc(cursor)
            self.model.add_once(
                self.model.escapes,
                Fact(
                    file,
                    line,
                    col,
                    "returns a Payload-derived view from a function whose class does "
                    "not own the backing Payload/Bytes",
                ),
                "escape",
            )

    def _handle_assignment(self, cursor, node, state):
        kids = list(cursor.get_children())
        if len(kids) != 2:
            return
        lhs, rhs = kids
        if lhs.kind != self.ck.MEMBER_REF_EXPR:
            return
        field = lhs.referenced
        if field is None or field.kind != self.ck.FIELD_DECL:
            return
        if not self.is_viewish_type(field.type):
            return
        # Only plain '=' matters; compound ops on a view type are arithmetic.
        if not self._is_plain_assign(cursor, lhs):
            return
        if not (
            self.subtree_has_view_source(rhs) or self.subtree_refs_any(rhs, state.view_vars)
        ):
            return
        owner_class = self.class_of(field)
        if owner_class is not None and (
            owner_class.spelling in ESCAPE_EXEMPT_CLASSES
            or self.class_has_owner_field(owner_class)
        ):
            return
        file, line, col = self.loc(cursor)
        self.model.add_once(
            self.model.escapes,
            Fact(
                file,
                line,
                col,
                "stores a Payload-derived view into member '%s' of a class with no "
                "owning Payload/Bytes member" % field.spelling,
            ),
            "escape",
        )

    def _is_plain_assign(self, binop, lhs):
        end = lhs.extent.end.offset
        for token in binop.get_tokens():
            if token.extent.start.offset >= end:
                return token.spelling == "="
        return False

    def _handle_call(self, cursor, node, state, guarded):
        name = cursor.spelling
        ref = cursor.referenced
        if not name and ref is not None:
            name = ref.spelling
        file, line, col = self.loc(cursor)

        usr = None
        if ref is not None:
            candidate = ref.get_usr()
            if candidate:
                usr = candidate
        node.calls.append(CallSite(name, usr, file, line, col, guarded))

        if name in BOUND_GUARD_CALL_NAMES:
            # check(n <= remaining())-style guards bless their arguments.
            self._collect_decl_refs(cursor, state.bound_checked)

        if not node.serde_exempt and self.is_reader_read_call(cursor):
            node.decode_uses.append(
                Fact(file, line, col, "ByteReader::%s()" % name, guarded)
            )

        if name in ALLOC_CALL_NAMES:
            node.allocs.append(Fact(file, line, col, "heap allocation via %s()" % name))
        elif name == "to_bytes" and "Payload" in self._member_call_base_type(cursor):
            node.allocs.append(
                Fact(file, line, col, "Payload::to_bytes() deep copy")
            )
        elif ref is not None and ref.kind == self.ck.CONSTRUCTOR:
            try:
                is_copy = ref.is_copy_constructor()
            except Exception:  # noqa: BLE001
                is_copy = False
            if is_copy:
                owner = self.class_of(ref)
                owner_spelling = (
                    self.canonical_spelling(owner.type) if owner is not None else ""
                )
                if "vector<unsigned char" in owner_spelling:
                    node.allocs.append(
                        Fact(file, line, col, "Bytes copy-construction")
                    )

        if name in ("reserve", "resize"):
            self._handle_reserve(cursor, state)

        if name in SCHEDULE_CALL_NAMES:
            self._handle_schedule(cursor, state)

    def _handle_reserve(self, cursor, state):
        kids = list(cursor.get_children())
        args = kids[1:] if kids else []
        for arg in args:
            direct_read = self.subtree_has_reader_read(arg)
            wire_ref = self.subtree_refs_any(arg, state.wire_vars)
            if not direct_read and not wire_ref:
                continue
            if self.subtree_has_call_named(arg, ("min", "clamp")):
                continue  # argument is clamped in place
            if wire_ref and not direct_read:
                refs = set()
                self._collect_decl_refs(arg, refs)
                if refs & state.wire_vars <= state.bound_checked:
                    continue  # every wire-derived input was bound-checked
            file, line, col = self.loc(cursor)
            self.model.add_once(
                self.model.reserve_flags,
                Fact(
                    file,
                    line,
                    col,
                    "%s() sized by wire-derived value without a preceding bound check"
                    % cursor.spelling,
                ),
                "reserve",
            )

    def _handle_schedule(self, cursor, state):
        if not state.view_vars:
            return
        for child in cursor.get_children():
            if self._lambda_captures_view(child, state.view_vars):
                file, line, col = self.loc(cursor)
                self.model.add_once(
                    self.model.escapes,
                    Fact(
                        file,
                        line,
                        col,
                        "scheduled callable captures a Payload-derived view; the "
                        "frame may be released before the event fires",
                    ),
                    "escape",
                )
                return

    def _lambda_captures_view(self, cursor, view_vars):
        if cursor.kind == self.ck.LAMBDA_EXPR:
            return self.subtree_refs_any(cursor, view_vars)
        return any(
            self._lambda_captures_view(c, view_vars) for c in cursor.get_children()
        )


class _FnState:
    __slots__ = ("view_vars", "wire_vars", "bound_checked", "returns_view", "escape_exempt")

    def __init__(self):
        self.view_vars = set()
        self.wire_vars = set()
        self.bound_checked = set()
        self.returns_view = False
        self.escape_exempt = False


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def build_model(cindex, commands, repo_root, path_filter=None):
    """Parses every matching TU and returns the populated Model."""
    model = Model()
    extractor = Extractor(cindex, repo_root, model)
    index = cindex.Index.create()
    for source, args, _directory in commands:
        if path_filter is not None and not path_filter(source):
            continue
        try:
            tu = index.parse(source, args=args)
        except cindex.TranslationUnitLoadError as exc:
            model.parse_errors.append((source, str(exc)))
            continue
        fatal = [
            d
            for d in tu.diagnostics
            if d.severity >= cindex.Diagnostic.Fatal
        ]
        if fatal:
            model.parse_errors.append((source, fatal[0].spelling))
            continue
        extractor.visit_tu(tu)
    return model
