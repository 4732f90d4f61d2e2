#!/usr/bin/env python3
"""Semantic concurrency analyzer for the lsim tree (stdlib only).

Where tools/lint.py is a token grep, this pass actually parses the
C++ sources: a lexer plus a lightweight declaration/scope parser
extract, per function, which locks are acquired (RAII guards over
annotated lsim::Mutex and accessor-returned mutexes) and which
functions are called while each lock is held. Call
edges are resolved across translation units (bare calls through the
enclosing class, member calls through declared member types, chained
calls through return types), acquisition and blocking sets propagate
transitively through the call graph, and the result is a whole-repo
lock-order graph.

Checks:
  deadlock-cycle       cycle (or self-edge) in the lock-order graph,
                       reported as file:line acquisition chains.
  blocking-under-lock  a blocking primitive (recv/accept4/poll/
                       sleep/flock/fsync/atomicWriteFile/...) runs,
                       directly or transitively, while an in-process
                       mutex is held.
  guard-temporary      `MutexLock(mu_);` — an unnamed guard that
                       releases on the same statement.
  guard-escape         a reference/pointer-returning function hands
                       out a GUARDED_BY member without a REQUIRES
                       contract.

Deliberate debt (today: none) lives in tools/analyze/allowlist.txt
with the same ratchet semantics as lint_allowlist.txt: counts may
only burn down, and shrinking them demands --update so the new floor
is locked in. Any new edge fails the build.

Usage:
  tools/analyze/analyze.py               analyze src/ against the allowlist
  tools/analyze/analyze.py --json OUT    also dump the lock graph + findings
  tools/analyze/analyze.py --update      rewrite the allowlist after burn-down
  tools/analyze/analyze.py --selftest    run against tests/analyze_fixtures/
                                         and require exactly the planted
                                         EXPECT-FINDING defects
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC_DIR = REPO / "src"
FIXTURE_DIR = REPO / "tests" / "analyze_fixtures"
ALLOWLIST = Path(__file__).resolve().parent / "allowlist.txt"

# The files that *define* the locking primitives describe, not use,
# the discipline.
EXCLUDE = {"src/common/mutex.hh", "src/common/thread_annotations.hh"}

GUARD_TYPES = {"MutexLock", "lock_guard", "unique_lock",
               "scoped_lock", "shared_lock"}

# Condition-variable operations release the lock while parked (or do
# not touch it at all); they are never blocking-under-lock findings.
CV_OPS = {"wait", "wait_for", "wait_until", "notify_one", "notify_all"}

# Names that park the calling thread in the kernel (or do unbounded
# filesystem work).  atomicWriteFile is ours but is the repo's
# canonical slow-path primitive, so it is a boundary: callers see it,
# not its syscall internals.
BLOCKING = {
    "recv", "recvfrom", "recvmsg", "send", "sendto", "sendmsg",
    "accept", "accept4", "connect", "poll", "select", "epoll_wait",
    "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until",
    "flock", "fsync", "fdatasync", "system", "popen", "waitpid",
    "join", "atomicWriteFile",
}

ANNOTATIONS = {
    "CAPABILITY", "SCOPED_CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY",
    "REQUIRES", "REQUIRES_SHARED", "ACQUIRE", "ACQUIRE_SHARED",
    "RELEASE", "RELEASE_SHARED", "RELEASE_GENERIC", "TRY_ACQUIRE",
    "TRY_ACQUIRE_SHARED", "EXCLUDES", "ASSERT_CAPABILITY",
    "RETURN_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "new", "delete", "throw", "case", "do",
    "else", "goto", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "static_assert", "assert", "noexcept",
    "typeid", "alignas", "co_await", "co_return", "co_yield",
}

QUALIFIER_IDS = {"const", "noexcept", "override", "final", "mutable",
                 "volatile", "try"}

STORAGE_IDS = {"static", "inline", "virtual", "explicit", "constexpr",
               "extern", "friend", "mutable", "typename", "consteval",
               "constinit", "thread_local"}

SMART_WRAPPERS = {"unique_ptr", "shared_ptr", "weak_ptr", "optional",
                  "atomic"}

# Method names that are overwhelmingly std:: container/atomic/stream
# operations.  When a member call's receiver type cannot be resolved,
# these never fall back to unique-name lookup: `done.load()` on a
# std::atomic must not resolve to ProfileStore::load.
STD_METHODS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set", "size", "empty", "count", "find", "begin", "end",
    "rbegin", "rend", "erase", "insert", "emplace", "emplace_back",
    "push_back", "pop_back", "push_front", "pop_front", "clear",
    "reset", "release", "get", "at", "front", "back", "data", "c_str",
    "str", "substr", "append", "resize", "reserve", "swap", "value",
    "has_value", "value_or", "good", "fail", "eof", "open", "close",
    "is_open", "write", "read", "getline", "put", "flush", "tellg",
    "seekg", "native_handle", "joinable", "detach", "length",
}

Tok = namedtuple("Tok", "kind val line")

MULTI_OPS = ("...", "<<=", ">>=", "->*", "::", "->", "<=", ">=", "==",
             "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
             "%=", "|=", "&=", "^=", "<<", ">>")


def lex(text):
    """Tokenize C++ source: comments, strings, and preprocessor
    lines are consumed; identifiers, numbers, and operators come out
    with 1-based line numbers."""
    toks = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                break
            line += text.count("\n", i, j + 2)
            i = j + 2
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: skip, honoring \-continuations.
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                k = j - 1
                while k >= i and text[k] in " \t\r":
                    k -= 1
                cont = k >= i and text[k] == "\\"
                line += 1
                i = j + 1
                if not cont:
                    break
            at_line_start = True
            continue
        at_line_start = False
        if c == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^(\s"]{0,16})\(', text[i:])
            if m:
                end = ")" + m.group(1) + '"'
                j = text.find(end, i + m.end())
                if j < 0:
                    break
                line += text.count("\n", i, j + len(end))
                toks.append(Tok("str", '""', line))
                i = j + len(end)
                continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("str", '""', line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("chr", "''", line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for op in MULTI_OPS:
            if text.startswith(op, i):
                toks.append(Tok("punct", op, line))
                i += len(op)
                break
        else:
            toks.append(Tok("punct", c, line))
            i += 1
    return toks


class ClassInfo:
    def __init__(self, qname):
        self.qname = qname
        self.mutex_members = set()        # member names of type Mutex
        self.member_types = {}            # member name -> type class name
        self.guarded = {}                 # member name -> guard expr tokens
        self.methods = set()              # unqualified method names


class FuncDef:
    def __init__(self, qname, cls, file, line, ret, requires, body):
        self.qname = qname
        self.cls = cls                    # enclosing class qname or None
        self.file = file
        self.line = line
        self.ret = ret                    # return-type token values
        self.requires = requires          # resolved lock ids (filled later)
        self.requires_exprs = []          # raw REQUIRES argument token lists
        self.body = body                  # (start, end) token indices or None
        self.events = []                  # filled by body analysis


Finding = namedtuple("Finding", "rule key file line message")


def skip_balanced(toks, i, open_val, close_val):
    """toks[i] == open_val; return index of the matching close."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if v == open_val:
            depth += 1
        elif v == close_val:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


def skip_angles(toks, i):
    """toks[i] == '<'; return index after the matching '>'.  Handles
    '>>' closing two levels, bails out on obvious non-template uses."""
    depth = 0
    n = len(toks)
    j = i
    while j < n:
        v = toks[j].val
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif v == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif v in (";", "{", "}"):
            return i + 1      # not a template argument list after all
        j += 1
    return n


class FileParser:
    """Parses one file into classes + function definitions."""

    def __init__(self, relpath, toks, model):
        self.file = relpath
        self.toks = toks
        self.model = model
        self.scope = []   # list of (kind, name) kind in {'ns', 'class'}

    def container_qname(self):
        return "::".join(name for _, name in self.scope)

    def enclosing_class(self):
        for kind, _ in reversed(self.scope):
            if kind == "class":
                return self.container_qname_until_class()
        return None

    def container_qname_until_class(self):
        # qname of the innermost class scope (includes outer namespaces)
        names = []
        for kind, name in self.scope:
            names.append(name)
        # find last class index
        idx = max(i for i, (k, _) in enumerate(self.scope) if k == "class")
        return "::".join(names[: idx + 1])

    def container(self):
        """ClassInfo-like record for the current scope (class body or
        namespace body — namespace-scope mutexes live here too)."""
        q = self.container_qname()
        return self.model.cls(q)

    def parse(self):
        toks = self.toks
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            v = t.val
            if t.kind == "id":
                if v == "namespace":
                    i = self.parse_namespace(i)
                    continue
                if v in ("class", "struct", "union"):
                    ni = self.parse_class(i)
                    if ni is not None:
                        i = ni
                        continue
                if v == "enum":
                    i = self.skip_enum(i)
                    continue
                if v in ("using", "typedef", "static_assert"):
                    i = self.skip_to_semicolon(i)
                    continue
                if v == "friend":
                    i = self.skip_to_semicolon(i)
                    continue
                if v == "template":
                    i += 1
                    if i < n and toks[i].val == "<":
                        i = skip_angles(toks, i)
                    continue
                if v in ("public", "private", "protected") and \
                        i + 1 < n and toks[i + 1].val == ":":
                    i += 2
                    continue
            if v == "}":
                if self.scope:
                    self.scope.pop()
                i += 1
                continue
            if v in (";", ":"):
                i += 1
                continue
            if v == "[":
                i = skip_balanced(toks, i, "[", "]") + 1  # [[attributes]]
                continue
            i = self.parse_decl(i)
        return

    def parse_namespace(self, i):
        toks = self.toks
        n = len(toks)
        j = i + 1
        parts = []
        while j < n and (toks[j].kind == "id" or toks[j].val == "::"):
            if toks[j].kind == "id":
                parts.append(toks[j].val)
            j += 1
        if j < n and toks[j].val == "=":
            return self.skip_to_semicolon(j)
        if j < n and toks[j].val == "{":
            self.scope.append(("ns", "::".join(parts) or "(anon)"))
            return j + 1
        return j + 1

    def parse_class(self, i):
        """Returns new index, or None if this turned out not to be a
        class definition (e.g. `struct X *p;` declarator use)."""
        toks = self.toks
        n = len(toks)
        j = i + 1
        parts = []
        while j < n:
            v = toks[j].val
            if toks[j].kind == "id":
                if v == "final":
                    j += 1
                    continue
                if v == "alignas":
                    j += 1
                    if j < n and toks[j].val == "(":
                        j = skip_balanced(toks, j, "(", ")") + 1
                    continue
                parts.append(v)
                j += 1
                continue
            if v == "::":
                j += 1
                continue
            if v == "[":
                j = skip_balanced(toks, j, "[", "]") + 1
                continue
            break
        if j >= n:
            return n
        v = toks[j].val
        if v == ";":
            return j + 1          # forward declaration
        if v == ":":
            # base clause: skip to the class body brace
            while j < n and toks[j].val != "{":
                if toks[j].val == "<":
                    j = skip_angles(toks, j)
                    continue
                if toks[j].val == "(":
                    j = skip_balanced(toks, j, "(", ")") + 1
                    continue
                j += 1
            v = toks[j].val if j < n else ""
        if v == "{":
            name = "::".join(parts) if parts else "(anon-class)"
            self.scope.append(("class", name))
            self.model.cls(self.container_qname())  # ensure it exists
            return j + 1
        return None                # `struct X x;` style use — re-parse as decl

    def skip_enum(self, i):
        toks = self.toks
        n = len(toks)
        j = i
        while j < n and toks[j].val not in ("{", ";"):
            j += 1
        if j < n and toks[j].val == "{":
            j = skip_balanced(toks, j, "{", "}") + 1
        return self.skip_to_semicolon(j - 1) if j < n else n

    def skip_to_semicolon(self, i):
        toks = self.toks
        n = len(toks)
        j = i
        while j < n:
            v = toks[j].val
            if v == ";":
                return j + 1
            if v == "(":
                j = skip_balanced(toks, j, "(", ")") + 1
                continue
            if v == "{":
                j = skip_balanced(toks, j, "{", "}") + 1
                continue
            if v == "[":
                j = skip_balanced(toks, j, "[", "]") + 1
                continue
            j += 1
        return n

    def parse_decl(self, i):
        """One declaration at namespace/class scope: a variable, a
        method declaration, or a function definition."""
        toks = self.toks
        n = len(toks)
        j = i
        annos = []                 # (name, (open, close)) annotation groups
        decl_group = None          # (name_start, name_end, open, close)
        while j < n:
            v = toks[j].val
            if v in (";",):
                self.process_var(i, j, annos)
                return j + 1
            if v == "=":
                end = self.skip_to_semicolon(j)
                self.process_var(i, j, annos)
                return end
            if v == "{":
                if decl_group is None:
                    # braced member init:  std::atomic<bool> x{false};
                    j = skip_balanced(toks, j, "{", "}") + 1
                    continue
                break
            if v == "<":
                j = skip_angles(toks, j)
                continue
            if v == "[":
                j = skip_balanced(toks, j, "[", "]") + 1
                continue
            if v == "(":
                close = skip_balanced(toks, j, "(", ")")
                name_start, name_end = self.declarator_name(i, j)
                prev = toks[name_end].val if name_end >= i else ""
                if name_end >= i and prev in ANNOTATIONS:
                    annos.append((prev, (j, close)))
                    j = close + 1
                    continue
                if name_end >= i:
                    # Function declarator (declaration or definition):
                    # hand off so REQUIRES on header declarations is
                    # captured too.
                    return self.parse_function(
                        i, (name_start, name_end, j, close))
                j = close + 1
                continue
            j += 1
        if decl_group is None:
            return self.skip_to_semicolon(i)
        return self.parse_function(i, decl_group)

    def declarator_name(self, lo, open_idx):
        """Walk back from '(' to pick up the (possibly qualified)
        declarator name; returns (start, end) token indices of the
        name, with end == index of the token just before '('."""
        toks = self.toks
        k = open_idx - 1
        if k < lo:
            return (lo, lo - 1)
        if toks[k].kind != "id":
            # operator== / operator() / operator bool...
            if toks[k].val == ")" or toks[k].val == "]":
                return (lo, lo - 1)
            j = k
            while j >= lo and toks[j].val != "operator":
                if toks[j].kind == "id" and toks[j].val != "operator":
                    break
                j -= 1
            if j >= lo and toks[j].val == "operator":
                return (j, k)
            return (lo, lo - 1)
        start = k
        while start - 2 >= lo and toks[start - 1].val == "::" \
                and toks[start - 2].kind == "id":
            start -= 2
        if start - 1 >= lo and toks[start - 1].val == "~":
            start -= 1
        return (start, k)

    def parse_function(self, decl_start, decl_group):
        toks = self.toks
        n = len(toks)
        name_start, name_end, popen, pclose = decl_group
        name_parts = [t.val for t in toks[name_start:name_end + 1]
                      if t.kind == "id" or t.val == "~"]
        # ~Foo -> '~Foo' single component
        parts = []
        tilde = False
        for p in name_parts:
            if p == "~":
                tilde = True
                continue
            parts.append("~" + p if tilde else p)
            tilde = False
        if not parts:
            return self.skip_to_semicolon(decl_start)

        ret = [t.val for t in toks[decl_start:name_start]
               if not (t.kind == "id" and t.val in STORAGE_IDS)]

        requires_exprs = []
        j = pclose + 1
        while j < n:
            t = toks[j]
            v = t.val
            if t.kind == "id":
                if v in ANNOTATIONS:
                    j += 1
                    if j < n and toks[j].val == "(":
                        close = skip_balanced(toks, j, "(", ")")
                        if v in ("REQUIRES", "REQUIRES_SHARED"):
                            requires_exprs.extend(
                                split_args(toks, j + 1, close))
                        j = close + 1
                    continue
                if v in QUALIFIER_IDS or v == "->":
                    j += 1
                    continue
                # trailing return type identifiers etc.
                j += 1
                continue
            if v in ("&", "&&", "->", "::", "*", ","):
                j += 1
                continue
            if v == "<":
                j = skip_angles(toks, j)
                continue
            if v == "(":
                j = skip_balanced(toks, j, "(", ")") + 1
                continue
            break
        if j >= n:
            return n

        body = None
        end = j
        if toks[j].val == "=":        # = default / = delete / = 0
            end = self.skip_to_semicolon(j)
        elif toks[j].val == ":":      # constructor initializer list
            j += 1
            while j < n:
                while j < n and toks[j].kind == "id" or \
                        (j < n and toks[j].val in ("::", "<", ">")):
                    if toks[j].val == "<":
                        j = skip_angles(toks, j)
                        continue
                    j += 1
                if j < n and toks[j].val == "(":
                    j = skip_balanced(toks, j, "(", ")") + 1
                elif j < n and toks[j].val == "{":
                    j = skip_balanced(toks, j, "{", "}") + 1
                if j < n and toks[j].val == ",":
                    j += 1
                    continue
                break
            if j < n and toks[j].val == "{":
                close = skip_balanced(toks, j, "{", "}")
                body = (j + 1, close)
                end = close + 1
            else:
                end = self.skip_to_semicolon(j)
        elif toks[j].val == "{":
            close = skip_balanced(toks, j, "{", "}")
            body = (j + 1, close)
            end = close + 1
        elif toks[j].val == ";":
            end = j + 1
        else:
            end = self.skip_to_semicolon(j)

        cls = None
        scope_q = self.container_qname()
        container_is_class = any(k == "class" for k, _ in self.scope)
        if len(parts) > 1:
            # out-of-line Class::method — the class is scope + explicit
            # qualifier
            qual = "::".join(parts[:-1])
            cls = (scope_q + "::" + qual) if scope_q else qual
            qname = cls + "::" + parts[-1]
        elif container_is_class:
            cls = self.container_qname_until_class()
            qname = (scope_q + "::" + parts[0]) if scope_q else parts[0]
            self.model.cls(cls).methods.add(parts[0])
        else:
            qname = (scope_q + "::" + parts[0]) if scope_q else parts[0]

        fn = FuncDef(qname, cls, self.file,
                     toks[name_start].line, ret, [], body)
        fn.requires_exprs = requires_exprs
        self.model.add_func(fn)
        return end

    def process_var(self, lo, hi, annos):
        """A declaration run [lo, hi) that ended at ';' or '=' with no
        function declarator: record member name/type + lock info."""
        toks = self.toks
        if not self.scope:
            return
        anno_ranges = [(o, c) for _, (o, c) in annos]

        def in_anno(ix):
            return any(o <= ix <= c for o, c in anno_ranges)

        ids = []
        depth = 0
        k = lo
        while k < hi:
            t = toks[k]
            if in_anno(k) or (t.kind == "id" and t.val in ANNOTATIONS):
                k += 1
                continue
            v = t.val
            if v == "<":
                nk = skip_angles(toks, k)
                inner = [x.val for x in toks[k:nk] if x.kind == "id"]
                if ids:
                    ids[-1] = (ids[-1][0], inner[-1] if inner else None)
                k = nk
                continue
            if t.kind == "id" and v not in STORAGE_IDS \
                    and v not in QUALIFIER_IDS:
                ids.append((v, None))
            k += 1
        if len(ids) < 2:
            return
        name = ids[-1][0]
        type_name, inner = ids[-2]
        if type_name in SMART_WRAPPERS and inner:
            type_name = inner
        cont = self.container()
        if type_name == "Mutex":
            cont.mutex_members.add(name)
        cont.member_types[name] = type_name
        for aname, (o, c) in annos:
            if aname in ("GUARDED_BY", "PT_GUARDED_BY"):
                cont.guarded[name] = toks[o + 1:c]


def split_args(toks, lo, hi):
    """Split toks[lo:hi) on top-level commas."""
    out = []
    cur = []
    depth = 0
    k = lo
    while k < hi:
        v = toks[k].val
        if v in ("(", "[", "{"):
            depth += 1
        elif v in (")", "]", "}"):
            depth -= 1
        if v == "," and depth == 0:
            if cur:
                out.append(cur)
            cur = []
        else:
            cur.append(toks[k])
        k += 1
    if cur:
        out.append(cur)
    return out


# ----------------------------------------------------------------------------
# Whole-program model

AcqEvent = namedtuple("AcqEvent", "lock line held")
CallEvent = namedtuple("CallEvent", "parts receiver chained line held "
                                    "close resolved")
BlockEvent = namedtuple("BlockEvent", "prim line held")
EscapeEvent = namedtuple("EscapeEvent", "member line")


class Model:
    def __init__(self):
        self.classes = {}          # qname -> ClassInfo
        self.funcs = {}            # qname -> [FuncDef]
        self.name_index = {}       # unqualified name -> set of qnames
        self.findings = []

    def cls(self, qname):
        if qname not in self.classes:
            self.classes[qname] = ClassInfo(qname)
        return self.classes[qname]

    def add_func(self, fn):
        self.funcs.setdefault(fn.qname, []).append(fn)
        base = fn.qname.rsplit("::", 1)[-1]
        self.name_index.setdefault(base, set()).add(fn.qname)

    # -- lookup helpers ------------------------------------------------------

    def class_by_short_name(self, short):
        hits = [q for q in self.classes
                if q == short or q.endswith("::" + short)]
        real = [q for q in hits if self.classes[q].member_types
                or self.classes[q].mutex_members or self.classes[q].methods]
        pool = real or hits
        return pool[0] if len(pool) == 1 else None

    def mutex_owner(self, member):
        owners = [q for q, c in self.classes.items()
                  if member in c.mutex_members]
        return owners[0] if len(owners) == 1 else None

    def containers_of(self, cls_qname):
        """cls_qname and each enclosing scope, innermost first."""
        out = []
        q = cls_qname
        while q:
            out.append(q)
            q = q.rsplit("::", 1)[0] if "::" in q else ""
        return out

    def resolve_lock(self, expr, fn):
        """Map a guard-argument token list to a stable lock identity."""
        vals = [t.val for t in expr]
        if vals[:2] == ["this", "->"]:
            vals = vals[2:]
        vals = [v for v in vals if v not in ("*", "&")]
        if not vals:
            return None
        # accessor call:  registryMu()
        if len(vals) >= 3 and vals[1] == "(" and vals[-1] == ")":
            target = self.resolve_simple_name(vals[0], fn)
            if target:
                return "fn:" + target
            return "fn:" + fn.file + "::" + vals[0]
        if len(vals) == 1:
            name = vals[0]
            for cont in self.containers_of(fn.cls or
                                           fn.qname.rsplit("::", 1)[0]):
                c = self.classes.get(cont)
                if c and name in c.mutex_members:
                    return cont + "::" + name
            owner = self.mutex_owner(name)
            if owner:
                return owner + "::" + name
            return fn.file + "::" + name
        if len(vals) == 3 and vals[1] in (".", "->"):
            recv, _, member = vals
            t = self.member_type_of(fn, recv)
            if t:
                cq = self.class_by_short_name(t)
                if cq and member in self.classes[cq].mutex_members:
                    return cq + "::" + member
            owner = self.mutex_owner(member)
            if owner:
                return owner + "::" + member
            return fn.file + "::" + ".".join((recv, member))
        if "::" in vals:
            short = "::".join(v for v in vals if v != "::")
            return short
        return fn.file + "::" + "".join(vals)

    def member_type_of(self, fn, name):
        for cont in self.containers_of(fn.cls or ""):
            c = self.classes.get(cont)
            if c and name in c.member_types:
                return c.member_types[name]
        return None

    def resolve_simple_name(self, name, fn):
        if fn.cls:
            for cont in self.containers_of(fn.cls):
                c = self.classes.get(cont)
                if c and name in c.methods:
                    return cont + "::" + name
                cand = cont + "::" + name
                if cand in self.funcs:
                    return cand
        cands = self.name_index.get(name, set())
        if len(cands) == 1:
            return next(iter(cands))
        # prefer a candidate in the same file
        same = {q for q in cands
                for d in self.funcs[q] if d.file == fn.file}
        if len(same) == 1:
            return next(iter(same))
        return None

    def resolve_call(self, ev, fn, events_by_close):
        parts = ev.parts
        m = parts[-1]
        if len(parts) >= 2:
            suffix = "::".join(parts)
            cands = [q for q in self.name_index.get(m, set())
                     if q == suffix or q.endswith("::" + suffix)]
            if len(cands) == 1:
                return cands[0]
            return None
        if ev.receiver is None:
            return self.resolve_simple_name(m, fn)
        if ev.receiver == "this":
            if fn.cls:
                cand = fn.cls + "::" + m
                if cand in self.funcs or m in self.cls(fn.cls).methods:
                    return cand
            return None
        if ev.receiver == "<chained>":
            prev = events_by_close.get(ev.chained)
            if prev is None or prev.resolved[0] is None:
                return None
            ret_cls = self.return_class(prev.resolved[0])
            if ret_cls:
                cand = ret_cls + "::" + m
                if cand in self.funcs or m in self.cls(ret_cls).methods:
                    return cand
            return None
        if ev.receiver != "<expr>":
            t = self.member_type_of(fn, ev.receiver)
            if t:
                cq = self.class_by_short_name(t)
                if cq:
                    cand = cq + "::" + m
                    if cand in self.funcs or m in self.classes[cq].methods:
                        return cand
        if m in STD_METHODS:
            return None
        cands = self.name_index.get(m, set())
        if len(cands) == 1:
            return next(iter(cands))
        return None

    def return_class(self, qname):
        for d in self.funcs.get(qname, []):
            ids = [v for v in d.ret if re.match(r"[A-Za-z_]\w*$", v)
                   and v not in QUALIFIER_IDS and v not in ("std",)]
            if ids:
                cq = self.class_by_short_name(ids[-1])
                if cq:
                    return cq
        return None


# ----------------------------------------------------------------------------
# Function-body analysis


def analyze_body(fn, model):
    toks = fn.toks
    lo, hi = fn.body
    depth = 1
    guards = []                    # [lock, depth, var]
    events = []
    events_by_close = {}
    requires = [model.resolve_lock(e, fn) for e in fn.requires_exprs]
    fn.requires = [r for r in requires if r]

    def held():
        return tuple(dict.fromkeys(fn.requires +
                                   [g[0] for g in guards if g[0]]))

    j = lo
    while j < hi:
        t = toks[j]
        v = t.val
        if v == "{":
            depth += 1
            j += 1
            continue
        if v == "}":
            depth -= 1
            guards[:] = [g for g in guards if g[1] <= depth]
            j += 1
            continue
        if t.kind != "id":
            j += 1
            continue
        if v == "return":
            k = j + 1
            if k < hi and toks[k].val == "&":
                k += 1
            if k + 1 <= hi and toks[k].kind == "id" \
                    and k + 1 < hi and toks[k + 1].val == ";":
                events.append(EscapeEvent(toks[k].val, t.line))
            j += 1
            continue
        if v in CPP_KEYWORDS:
            j += 1
            continue
        if v in GUARD_TYPES or (v == "lsim" and j + 2 < hi
                                and toks[j + 1].val == "::"
                                and toks[j + 2].val in GUARD_TYPES):
            if v == "lsim":
                j += 2
            j = handle_guard(fn, model, toks, j, hi, depth, guards,
                             events, held)
            continue
        if v == "std" and j + 2 < hi and toks[j + 1].val == "::" \
                and toks[j + 2].val in GUARD_TYPES:
            j += 2
            j = handle_guard(fn, model, toks, j, hi, depth, guards,
                             events, held)
            continue
        # gather a qualified name chain
        parts = [v]
        k = j + 1
        while k + 1 < hi and toks[k].val == "::" and toks[k + 1].kind == "id":
            parts.append(toks[k + 1].val)
            k += 2
        if k < hi and toks[k].val == "<" and parts[-1] not in CV_OPS:
            nk = skip_angles(toks, k)
            if nk < hi and toks[nk].val == "(":
                k = nk
        if k < hi and toks[k].val == "(":
            m = parts[-1]
            close = skip_balanced(toks, k, "(", ")")
            receiver = None
            chained = None
            if j - 1 >= lo and toks[j - 1].val in (".", "->"):
                if toks[j - 2].kind == "id":
                    receiver = toks[j - 2].val
                elif toks[j - 2].val == ")":
                    receiver = "<chained>"
                    chained = j - 2
                else:
                    receiver = "<expr>"
            if m in CV_OPS:
                j = k + 1
                continue
            if receiver is not None and m in ("lock", "unlock") \
                    and any(g[2] == receiver for g in guards):
                # manual guard.lock()/unlock() for condvar patterns
                for g in guards:
                    if g[2] == receiver:
                        g[0] = None if m == "unlock" else g[3]
                j = k + 1
                continue
            if m in ("LSIM_FAULT", "LSIM_FAULT_ERRNO"):
                ev = CallEvent(["shouldFail"], None, None, t.line, held(),
                               close, [None])
                ev.resolved[0] = resolve_fault_hook(model)
                events.append(ev)
                events_by_close[close] = ev
                j = k + 1
                continue
            ev = CallEvent(parts, receiver, chained, t.line, held(),
                           close, [None])
            events.append(ev)
            events_by_close[close] = ev
            j = k + 1
            continue
        j = k
    fn.events = events
    fn.events_by_close = events_by_close


def handle_guard(fn, model, toks, j, hi, depth, guards, events, held):
    """toks[j] is a guard type name; parse the declaration."""
    k = j + 1
    if k < hi and toks[k].val == "<":
        k = skip_angles(toks, k)
    if k < hi and toks[k].kind == "id" and k + 1 < hi \
            and toks[k + 1].val in ("(", "{"):
        open_v = toks[k + 1].val
        close_v = ")" if open_v == "(" else "}"
        close = skip_balanced(toks, k + 1, open_v, close_v)
        expr = [t for t in toks[k + 2:close]]
        lock = model.resolve_lock(expr, fn) if expr else None
        if lock:
            events.append(AcqEvent(lock, toks[j].line, held()))
        guards.append([lock, depth, toks[k].val, lock])
        return close + 1
    if k < hi and toks[k].val == "(":
        close = skip_balanced(toks, k, "(", ")")
        model.findings.append(Finding(
            "guard-temporary",
            "guard-temporary|" + fn.file,
            fn.file, toks[j].line,
            "%s:%d: unnamed %s temporary releases the lock on the same "
            "statement (in %s)" % (fn.file, toks[j].line, toks[j].val,
                                   fn.qname)))
        return close + 1
    return j + 1


def resolve_fault_hook(model):
    for q in model.name_index.get("shouldFail", set()):
        if "fault" in q:
            return q
    return None


# ----------------------------------------------------------------------------
# Whole-program passes


def fixpoint(model):
    """Propagate acquisition and blocking sets through the call graph."""
    acq = {}      # qname -> {lock: (file, line, chain tuple)}
    blk = {}      # qname -> {prim: (file, line, chain tuple)}
    defs = [(q, d) for q, ds in model.funcs.items() for d in ds if d.body]

    for q, d in defs:
        a = acq.setdefault(q, {})
        b = blk.setdefault(q, {})
        for ev in d.events:
            if isinstance(ev, AcqEvent):
                a.setdefault(ev.lock, (d.file, ev.line, (q,)))
            elif isinstance(ev, BlockEvent):
                b.setdefault(ev.prim, (d.file, ev.line, (q,)))
            elif isinstance(ev, CallEvent):
                ev.resolved[0] = ev.resolved[0] or \
                    model.resolve_call(ev, d, d.events_by_close)
                m = ev.parts[-1]
                if m in BLOCKING:
                    target = ev.resolved[0]
                    if target is None or m == "atomicWriteFile":
                        b.setdefault(m, (d.file, ev.line, (q,)))

    changed = True
    while changed:
        changed = False
        for q, d in defs:
            a = acq[q]
            b = blk[q]
            for ev in d.events:
                if not isinstance(ev, CallEvent):
                    continue
                g = ev.resolved[0]
                if g is None or g not in acq:
                    continue
                for lock, (f, l, chain) in acq[g].items():
                    if lock not in a:
                        a[lock] = (f, l, (q,) + chain)
                        changed = True
                if ev.parts[-1] not in BLOCKING:
                    for prim, (f, l, chain) in blk[g].items():
                        if prim not in b:
                            b[prim] = (f, l, (q,) + chain)
                            changed = True
    return acq, blk


def collect_findings(model, acq, blk):
    edges = {}    # (l1, l2) -> dict(file,line,chain)
    defs = [(q, d) for q, ds in model.funcs.items() for d in ds if d.body]

    def add_edge(l1, l2, file, line, chain):
        edges.setdefault((l1, l2), {
            "file": file, "line": line, "chain": chain})

    for q, d in defs:
        cls_guarded = {}
        if d.cls and d.cls in model.classes:
            cls_guarded = model.classes[d.cls].guarded
        for ev in d.events:
            if isinstance(ev, AcqEvent):
                # l1 == ev.lock is a genuine self-edge: recursive
                # acquisition of a non-recursive mutex.
                for l1 in ev.held:
                    add_edge(l1, ev.lock, d.file, ev.line, (q,))
            elif isinstance(ev, BlockEvent):
                for l1 in ev.held:
                    model.findings.append(blocking_finding(
                        l1, ev.prim, d, ev.line, (q,)))
            elif isinstance(ev, CallEvent):
                m = ev.parts[-1]
                if m in BLOCKING and ev.held:
                    # Direct blocking primitive — findable whether or
                    # not the name resolves to a repo function.
                    for l1 in ev.held:
                        model.findings.append(blocking_finding(
                            l1, m, d, ev.line, (q,)))
                g = ev.resolved[0]
                if g is None or not ev.held:
                    continue
                if g in acq:
                    for lock, (f, l, chain) in acq[g].items():
                        for l1 in ev.held:
                            add_edge(l1, lock, d.file, ev.line,
                                     (q,) + chain)
                if m not in BLOCKING and g in blk:
                    for prim, (f, l, chain) in blk[g].items():
                        for l1 in ev.held:
                            model.findings.append(blocking_finding(
                                l1, prim, d, ev.line, (q,) + chain))
            elif isinstance(ev, EscapeEvent):
                if ev.member not in cls_guarded:
                    continue
                if not any(v in ("&", "*") for v in d.ret):
                    continue
                guard = model.resolve_lock(cls_guarded[ev.member], d)
                if guard and guard in d.requires:
                    continue
                model.findings.append(Finding(
                    "guard-escape",
                    "guard-escape|%s|%s" % (guard or "?", d.file),
                    d.file, ev.line,
                    "%s:%d: %s returns a reference to '%s' which is "
                    "GUARDED_BY(%s) without a REQUIRES contract"
                    % (d.file, ev.line, d.qname, ev.member,
                       guard or "?")))

    detect_cycles(model, edges)
    return edges


def blocking_finding(lock, prim, d, line, chain):
    return Finding(
        "blocking-under-lock",
        "blocking-under-lock|%s|%s|%s" % (lock, prim, d.file),
        d.file, line,
        "%s:%d: %s may block in '%s' while holding %s (via %s)"
        % (d.file, line, chain[0], prim, lock, " -> ".join(chain)))


def detect_cycles(model, edges):
    """Tarjan SCC over the lock graph; any SCC of size >= 2 (or a
    self-edge) is a potential deadlock."""
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())

    index = {}
    low = {}
    stack = []
    on_stack = set()
    counter = [0]
    sccs = []

    def strongconnect(v):
        work = [(v, iter(sorted(graph[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)

    for scc in sccs:
        self_loop = len(scc) == 1 and (scc[0], scc[0]) in edges
        if len(scc) < 2 and not self_loop:
            continue
        nodes = sorted(scc)
        chains = []
        for a in nodes:
            for b in nodes:
                e = edges.get((a, b))
                if e and (a != b or self_loop):
                    chains.append("%s -> %s at %s:%d (%s)"
                                  % (a, b, e["file"], e["line"],
                                     " -> ".join(e["chain"])))
        site = None
        for a in nodes:
            for b in nodes:
                if (a, b) in edges:
                    site = edges[(a, b)]
                    break
            if site:
                break
        model.findings.append(Finding(
            "deadlock-cycle",
            "deadlock-cycle|" + ",".join(nodes),
            site["file"] if site else "?",
            site["line"] if site else 0,
            "potential deadlock: lock-order cycle {%s}; %s"
            % (", ".join(nodes), "; ".join(chains))))


# ----------------------------------------------------------------------------
# Driver


def analyze_tree(root, rel_prefix, files=None):
    model = Model()
    paths = files
    if paths is None:
        paths = sorted(p for p in root.rglob("*")
                       if p.suffix in (".cc", ".hh", ".h", ".cpp", ".hpp"))
    parsed = []
    for p in paths:
        rel = str(p.relative_to(REPO)) if p.is_relative_to(REPO) else str(p)
        if rel in EXCLUDE:
            continue
        toks = lex(p.read_text(errors="replace"))
        parser = FileParser(rel, toks, model)
        parser.parse()
        parsed.append((rel, toks))
    # attach tokens to funcdefs for body analysis
    tok_by_file = dict(parsed)
    for q, ds in model.funcs.items():
        # REQUIRES usually lives on the header declaration; fold every
        # declaration's annotations into the definition before body
        # analysis.
        merged = [e for d in ds for e in d.requires_exprs]
        for d in ds:
            d.toks = tok_by_file.get(d.file)
            if merged:
                d.requires_exprs = merged
    for q, ds in sorted(model.funcs.items()):
        for d in ds:
            if d.body and d.toks is not None:
                analyze_body(d, model)
            else:
                d.events = []
                d.events_by_close = {}
    acq, blk = fixpoint(model)
    edges = collect_findings(model, acq, blk)
    return model, acq, blk, edges


def load_allowlist(path):
    limits = {}
    if not path.exists():
        return limits
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, count = line.rsplit(None, 1)
            limits[key] = int(count)
        except ValueError:
            print("analyze: malformed allowlist line: %r" % raw,
                  file=sys.stderr)
            sys.exit(2)
    return limits


def save_allowlist(path, counts):
    lines = [
        "# tools/analyze allowlist — grandfathered concurrency findings.",
        "# Format: <finding key> <count>. Counts may only go down;",
        "# refresh with tools/analyze/analyze.py --update after burning",
        "# an entry down. New keys or higher counts fail the build.",
        "",
    ]
    for key in sorted(counts):
        lines.append("%s %d" % (key, counts[key]))
    path.write_text("\n".join(lines) + "\n")


def report_json(path, model, acq, edges):
    doc = {
        "locks": sorted({l for (a, b) in edges for l in (a, b)} |
                        {l for m in acq.values() for l in m}),
        "edges": [
            {"from": a, "to": b, "site": "%s:%d" % (e["file"], e["line"]),
             "chain": list(e["chain"])}
            for (a, b), e in sorted(edges.items())
        ],
        "functions_analyzed": sum(
            1 for ds in model.funcs.values() for d in ds if d.body),
        "findings": [
            {"rule": f.rule, "key": f.key, "file": f.file,
             "line": f.line, "message": f.message}
            for f in model.findings
        ],
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")


def run_selftest():
    if not FIXTURE_DIR.is_dir():
        print("analyze --selftest: missing %s" % FIXTURE_DIR,
              file=sys.stderr)
        return 2
    model, acq, blk, edges = analyze_tree(FIXTURE_DIR, "tests")
    got = {}
    for f in model.findings:
        got.setdefault(f.file, {}).setdefault(f.rule, 0)
        got[f.file][f.rule] += 1
    want = {}
    for p in sorted(FIXTURE_DIR.glob("*.cc")):
        rel = str(p.relative_to(REPO))
        want.setdefault(rel, {})
        for m in re.finditer(r"//\s*EXPECT-FINDING:\s*([\w-]+)",
                             p.read_text()):
            want[rel].setdefault(m.group(1), 0)
            want[rel][m.group(1)] += 1
    ok = True
    for rel in sorted(want):
        w = want[rel]
        g = got.get(rel, {})
        if w != g:
            ok = False
            print("analyze --selftest: %s: expected %s, got %s"
                  % (rel, w or "{}", g or "{}"), file=sys.stderr)
            for f in model.findings:
                if f.file == rel:
                    print("  found: [%s] %s" % (f.rule, f.message),
                          file=sys.stderr)
    stray = set(got) - set(want)
    if stray:
        ok = False
        print("analyze --selftest: findings in unexpected files: %s"
              % sorted(stray), file=sys.stderr)
    if ok:
        total = sum(sum(r.values()) for r in want.values())
        print("analyze --selftest: ok (%d fixtures, %d planted findings "
              "all detected, clean fixture clean)"
              % (len(want), total))
        return 0
    return 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", metavar="PATH",
                    help="write the lock graph + findings as JSON "
                         "('-' for stdout)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the allowlist with current counts")
    ap.add_argument("--selftest", action="store_true",
                    help="run against tests/analyze_fixtures/")
    ap.add_argument("--root", metavar="DIR",
                    help="analyze DIR instead of src/ (no allowlist)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    if args.selftest:
        return run_selftest()

    root = Path(args.root).resolve() if args.root else SRC_DIR
    model, acq, blk, edges = analyze_tree(root, "src")

    if args.json:
        report_json(args.json, model, acq, edges)

    if args.verbose:
        for (a, b), e in sorted(edges.items()):
            print("edge: %s -> %s  (%s:%d via %s)"
                  % (a, b, e["file"], e["line"], " -> ".join(e["chain"])))

    counts = {}
    by_key = {}
    for f in model.findings:
        counts[f.key] = counts.get(f.key, 0) + 1
        by_key.setdefault(f.key, []).append(f)

    if args.root:
        for f in model.findings:
            print("[%s] %s" % (f.rule, f.message))
        return 1 if model.findings else 0

    limits = load_allowlist(ALLOWLIST)
    failed = False
    for key in sorted(counts):
        have = counts[key]
        limit = limits.get(key, 0)
        if have > limit:
            failed = True
            print("analyze: %s: %d finding(s), allowlist permits %d"
                  % (key, have, limit), file=sys.stderr)
            for f in by_key[key][:8]:
                print("  " + f.message, file=sys.stderr)
    for key in sorted(limits):
        have = counts.get(key, 0)
        if have < limits[key]:
            if args.update:
                continue
            failed = True
            print("analyze: %s: improved to %d (allowlist says %d) — "
                  "run tools/analyze/analyze.py --update to lock it in"
                  % (key, have, limits[key]), file=sys.stderr)

    if args.update:
        save_allowlist(ALLOWLIST, counts)
        print("analyze: allowlist updated (%d keys)" % len(counts))
        return 0

    if failed:
        return 1
    n_defs = sum(1 for ds in model.funcs.values() for d in ds if d.body)
    print("analyze: ok (%d functions, %d lock-order edges, "
          "%d allowlisted finding(s))"
          % (n_defs, len(edges), sum(counts.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
