#!/usr/bin/env python3
"""Project-invariant linter for lsim (stdlib only; run by CI).

Machine-checks the repo's hard-won correctness invariants, which
otherwise live only in comments and review memory:

  atomic-write    Persisted files under src/store, src/serve, and
                  src/obs must go through lsim::atomicWriteFile — raw
                  std::ofstream or fopen() writes can be observed
                  half-written by the concurrent pollers those
                  subsystems serve. Additionally, ANY src/ file that
                  handles the polled snapshot names metrics.json or
                  status.json must not open raw write streams at all:
                  those two files are read by external watchers
                  mid-write, so a torn write there is a protocol bug
                  no matter which subsystem it lives in.

  no-fatal        Library code under src/ reports errors by throwing;
                  process-exiting fatal()/die() belong to the CLI and
                  benches, where there is no caller to recover. The
                  existing call sites are grandfathered in
                  tools/lint_allowlist.txt, a burn-down ratchet whose
                  per-file counts may only decrease (run with
                  --update after converting a site to an exception).

  no-raw-mutex    Library code locks through the annotated
                  lsim::Mutex / MutexLock / CondVar wrappers
                  (common/mutex.hh) — never raw std::mutex,
                  std::condition_variable, or std:: lock guards.
                  The wrappers carry the clang thread-safety
                  capability annotations and give tools/analyze a
                  uniform acquisition syntax; a raw std::mutex is
                  invisible to both. Only common/mutex.hh itself may
                  touch <mutex>.

  signal-safety   Signal handlers may only set lock-free atomic
                  flags: no calls, no locks, no allocation (all
                  undefined behavior in async-signal context), and
                  the flag type's lock-freedom must be asserted via
                  static_assert(...is_always_lock_free...).

  include-guard   Headers use #ifndef guards derived from their path
                  (src/api/parallel.hh -> LSIM_API_PARALLEL_HH), and
                  never #pragma once, so a moved header cannot
                  silently shadow another.

  fault-point     Every I/O call site in the serve/store tier
                  (atomicWriteFile, raw socket recv/send/accept4
                  under src/store and src/serve)
                  must sit in the shadow of a registered LSIM_FAULT
                  point, so the fault-injection layer's coverage of
                  failure domains stays complete by construction —
                  new I/O cannot land without deciding how it fails.

  fault-macro     Fault points are consulted only through the
                  LSIM_FAULT / LSIM_FAULT_ERRNO macros; calling
                  fault::detail::shouldFail directly bypasses the
                  armed() fast path that keeps disabled runs at a
                  single relaxed atomic load.

  determinism     Replay and kernel code (src/replay, src/sleep) is
                  bit-reproducible by contract: no rand()/srand(),
                  no std::random_device, no wall-clock reads.
                  src/obs is deliberately NOT in this set: the
                  observability layer exists to measure wall-clock
                  latency, so it owns the clock reads and the
                  deterministic modules stay clock-free by calling
                  into it (or not at all).

Exit status 0 when clean, 1 on any violation.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "tools" / "lint_allowlist.txt"

SRC_EXTS = {".cc", ".hh", ".h", ".cpp"}

# ----------------------------------------------------------- helpers


def strip_code(text):
    """Blank out comments and string/char literals, preserving line
    structure, so token scans cannot match documentation or message
    text. Handles //, /* */, "..." (with escapes), '...', and the
    R"delim(...)delim" raw strings gtest specs love."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(c if c == "\n" else " "
                               for c in text[i:j]))
            i = j
        elif ch == "R" and nxt == '"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if not m:
                out.append(ch)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n if j == -1 else j + len(close)
            out.append("".join(c if c == "\n" else " "
                               for c in text[i:j]))
            i = j
        elif ch in "\"'":
            if ch == "'" and i > 0 and text[i - 1].isdigit():
                # C++14 digit separator (500'000), not a char literal
                out.append(" ")
                i += 1
                continue
            quote = ch
            j = i + 1
            while j < n and text[j] not in (quote, "\n"):
                j += 2 if text[j] == "\\" else 1
            if j >= n or text[j] == "\n":
                # no close on this line: a stray quote, not a literal
                out.append(ch)
                i += 1
                continue
            j += 1
            out.append(quote + " " * (j - i - 2) + quote)
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Linter:
    def __init__(self):
        self.violations = []

    def report(self, path, line, rule, message):
        rel = path.relative_to(REPO)
        self.violations.append(f"{rel}:{line}: [{rule}] {message}")

    # ---------------------------------------------- rule: atomic-write

    def check_atomic_write(self, path, code):
        for m in re.finditer(r"\bofstream\b|\bfopen\s*\(", code):
            self.report(
                path, line_of(code, m.start()), "atomic-write",
                "raw file write in a persisting subsystem; route "
                "through lsim::atomicWriteFile (common/files.hh) so "
                "concurrent readers never see a torn file")

    def check_snapshot_write(self, path, code, text):
        """metrics.json / status.json are polled by external watchers;
        a file that handles those names must never open a raw write
        stream, wherever in src/ it lives."""
        if not re.search(r"\b(?:metrics|status)\.json\b", text):
            return
        for m in re.finditer(r"\bofstream\b|\bfopen\s*\(", code):
            self.report(
                path, line_of(code, m.start()), "atomic-write",
                "this file handles metrics.json/status.json, which "
                "concurrent pollers read mid-write; persist them via "
                "lsim::atomicWriteFile, not a raw stream")

    # -------------------------------------------------- rule: no-fatal

    def count_fatal(self, code):
        return len(re.findall(r"\b(?:fatal|die)\s*\(", code))

    # --------------------------------------------- rule: no-raw-mutex

    RAW_MUTEX_PATTERN = re.compile(
        r"\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|"
        r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
        r"condition_variable|condition_variable_any|lock_guard|"
        r"unique_lock|scoped_lock|shared_lock)\b")
    RAW_MUTEX_INCLUDES = re.compile(
        r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>")

    def check_raw_mutex(self, path, code):
        for m in self.RAW_MUTEX_PATTERN.finditer(code):
            self.report(
                path, line_of(code, m.start()), "no-raw-mutex",
                f"raw std::{m.group(1)}; use the annotated "
                "lsim::Mutex / MutexLock / CondVar wrappers "
                "(common/mutex.hh) so clang thread-safety analysis "
                "and tools/analyze can see the lock")
        for m in self.RAW_MUTEX_INCLUDES.finditer(code):
            self.report(
                path, line_of(code, m.start()), "no-raw-mutex",
                f"#include <{m.group(1)}> outside common/mutex.hh; "
                "include common/mutex.hh instead")

    # --------------------------------------------- rule: signal-safety

    def check_signal_safety(self, path, code):
        handlers = set(
            m.group(1)
            for m in re.finditer(
                r"(?:std::)?signal\s*\(\s*SIG\w+\s*,\s*(\w+)\s*\)",
                code))
        handlers |= set(
            m.group(1)
            for m in re.finditer(r"sa_handler\s*=\s*&?(\w+)", code))
        handlers.discard("SIG_IGN")
        handlers.discard("SIG_DFL")
        if not handlers:
            return
        if "is_always_lock_free" not in code:
            self.report(
                path, 1, "signal-safety",
                "registers signal handler(s) %s but never "
                "static_asserts std::atomic<...>::is_always_lock_free "
                "for the flag they set" % ", ".join(sorted(handlers)))
        for name in sorted(handlers):
            m = re.search(
                r"\bvoid\s+" + re.escape(name) + r"\s*\(\s*int\b[^)]*\)"
                r"\s*(?:noexcept\s*)?\{", code)
            if not m:
                continue  # defined elsewhere; checked in its own file
            body_start = m.end()
            depth, j = 1, body_start
            while j < len(code) and depth > 0:
                depth += {"{": 1, "}": -1}.get(code[j], 0)
                j += 1
            body = code[body_start:j - 1]
            self.check_handler_body(path, name, body,
                                    line_of(code, body_start), code)

    def check_handler_body(self, path, name, body, first_line, code):
        allowed = re.compile(
            r"^(?:\w+(?:\.\w+)*\.store\s*\([^;]*\)"  # flag.store(...)
            r"|\w+\s*=\s*(?:true|false|0|1)"         # flag = true
            r"|\(void\)\s*\w+"                       # (void)signum
            r")$")
        for i, raw in enumerate(body.split(";")):
            stmt = " ".join(raw.split())
            if not stmt:
                continue
            if not allowed.match(stmt):
                self.report(
                    path, first_line, "signal-safety",
                    f"handler '{name}' contains '{stmt.strip()}'; "
                    "signal handlers may only set lock-free atomic "
                    "flags (no calls, locks, or allocation — all "
                    "async-signal-unsafe)")
                return
            m = re.match(r"(\w+)(?:\.\w+)*\.store|(\w+)\s*=", stmt)
            flag = m.group(1) or m.group(2) if m else None
            if flag and not re.search(
                    r"std::atomic<[^>]*>\s+" + re.escape(flag),
                    code):
                self.report(
                    path, first_line, "signal-safety",
                    f"handler '{name}' writes '{flag}', which is not "
                    "declared std::atomic<...> in this file")

    # --------------------------------------------- rule: include-guard

    def check_include_guard(self, path, code, text):
        rel = path.relative_to(REPO)
        if "#pragma once" in text:
            self.report(
                path, line_of(text, text.find("#pragma once")),
                "include-guard",
                "#pragma once; this repo uses path-derived #ifndef "
                "guards")
        parts = list(rel.parts)
        if parts[0] == "src":
            parts = parts[1:]
        stem = "_".join(parts)
        expected = "LSIM_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
        m = re.search(r"#ifndef\s+(\w+)", code)
        if not m:
            self.report(path, 1, "include-guard",
                        f"missing include guard (expected #ifndef "
                        f"{expected})")
            return
        if m.group(1) != expected:
            self.report(path, line_of(code, m.start()),
                        "include-guard",
                        f"guard '{m.group(1)}' does not match the "
                        f"path-derived name '{expected}'")
            return
        if not re.search(r"#define\s+" + re.escape(expected) + r"\b",
                         code):
            self.report(path, line_of(code, m.start()),
                        "include-guard",
                        f"#ifndef {expected} without a matching "
                        "#define")

    # ----------------------------------------------- rule: fault-point

    FAULT_IO_PATTERN = re.compile(
        r"\batomicWriteFile\s*\(|::recv\s*\(|::send\s*\(|::accept4\s*\(")

    # An LSIM_FAULT check must appear this many lines (or fewer)
    # before the I/O call it guards; a few lines after also count,
    # for sites (accept4) where the fault decision needs the fd.
    FAULT_WINDOW_BEFORE = 25
    FAULT_WINDOW_AFTER = 5

    def check_fault_points(self, path, code):
        lines = code.split("\n")
        for m in self.FAULT_IO_PATTERN.finditer(code):
            line = line_of(code, m.start())
            lo = max(0, line - 1 - self.FAULT_WINDOW_BEFORE)
            hi = min(len(lines), line + self.FAULT_WINDOW_AFTER)
            if "LSIM_FAULT" in "\n".join(lines[lo:hi]):
                continue
            call = m.group(0).rstrip("(").strip()
            self.report(
                path, line, "fault-point",
                f"I/O call '{call}' has no LSIM_FAULT point within "
                f"{self.FAULT_WINDOW_BEFORE} preceding lines; "
                "register a named fault point (common/fault.hh) so "
                "the chaos suite can reach this failure path")

    def check_fault_macro(self, path, code):
        for m in re.finditer(r"\bdetail\s*::\s*shouldFail\s*\(",
                             code):
            self.report(
                path, line_of(code, m.start()), "fault-macro",
                "direct fault::detail::shouldFail call; go through "
                "LSIM_FAULT / LSIM_FAULT_ERRNO so disabled runs keep "
                "the single-atomic-load fast path")

    # ----------------------------------------------- rule: determinism

    DETERMINISM_PATTERNS = [
        (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
        (re.compile(r"\brandom_device\b"), "std::random_device"),
        (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
         "wall-clock time()"),
        (re.compile(
            r"\b(?:steady_clock|system_clock|high_resolution_clock)"
            r"\s*::\s*now\b"), "clock reads"),
    ]

    def check_determinism(self, path, code):
        for pattern, what in self.DETERMINISM_PATTERNS:
            for m in pattern.finditer(code):
                self.report(
                    path, line_of(code, m.start()), "determinism",
                    f"{what} in replay/kernel code; results must be "
                    "bit-reproducible — derive randomness from "
                    "common/random.hh seeded state, and timestamps "
                    "from the caller")


# --------------------------------------------------------- allowlist


def load_allowlist():
    allowed = {}
    if not ALLOWLIST.exists():
        return allowed
    for raw in ALLOWLIST.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, count = line.rpartition(" ")
        allowed[name.strip()] = int(count)
    return allowed


def save_allowlist(counts):
    lines = [
        "# fatal()/die() call sites still present in library code",
        "# (src/). Library errors are reported by throwing; these",
        "# sites predate that rule and are being burned down —",
        "# tools/lint.py fails if any count grows, and requires this",
        "# file to be refreshed (lint.py --update) when one shrinks,",
        "# so the totals are monotonically decreasing.",
        "#",
        "# <path> <call sites>",
    ]
    for name in sorted(counts):
        lines.append(f"{name} {counts[name]}")
    ALLOWLIST.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the no-fatal allowlist from current counts "
        "(only ever lowers the ratchet; growth still fails)")
    args = parser.parse_args()

    linter = Linter()
    fatal_counts = {}

    for path in sorted(REPO.glob("src/**/*")):
        if path.suffix not in SRC_EXTS:
            continue
        text = path.read_text()
        code = strip_code(text)
        rel = str(path.relative_to(REPO))

        if rel.startswith(("src/store/", "src/serve/", "src/obs/")):
            linter.check_atomic_write(path, code)
        linter.check_snapshot_write(path, code, text)
        if not rel.startswith("src/common/logging"):
            count = linter.count_fatal(code)
            if count:
                fatal_counts[rel] = count
        linter.check_signal_safety(path, code)
        if rel != "src/common/mutex.hh":
            linter.check_raw_mutex(path, code)
        if path.suffix in (".hh", ".h"):
            linter.check_include_guard(path, code, text)
        if rel.startswith(("src/replay/", "src/sleep/")):
            linter.check_determinism(path, code)
        if (rel.startswith(("src/store/", "src/serve/"))
                and path.suffix == ".cc"):
            linter.check_fault_points(path, code)
        if not rel.startswith("src/common/fault"):
            linter.check_fault_macro(path, code)

    for path in sorted(REPO.glob("bench/**/*")) + sorted(
            REPO.glob("tools/**/*")):
        if path.suffix not in SRC_EXTS:
            continue
        text = path.read_text()
        code = strip_code(text)
        linter.check_signal_safety(path, code)
        if path.suffix in (".hh", ".h"):
            linter.check_include_guard(path, code, text)

    # The ratchet: counts may only ever shrink. --update locks a
    # shrink in; growth is a violation either way (bootstrap — no
    # allowlist yet — being the one exception).
    bootstrap = not ALLOWLIST.exists()
    allowed = load_allowlist()
    for rel in sorted(set(fatal_counts) | set(allowed)):
        have = fatal_counts.get(rel, 0)
        limit = allowed.get(rel, 0)
        if have > limit and not bootstrap:
            linter.violations.append(
                f"{rel}: [no-fatal] {have} fatal()/die() call "
                f"site(s), allowlist permits {limit}: library code "
                "reports errors by throwing (see serve/spec.hh for "
                "the pattern); the CLI catches and exits")
        elif have < limit and not args.update:
            linter.violations.append(
                f"{rel}: [no-fatal] allowlist says {limit} but only "
                f"{have} call site(s) remain — nice burn-down; run "
                "'tools/lint.py --update' to lock in the lower count")

    if args.update and not linter.violations:
        save_allowlist(fatal_counts)
        print(f"lint: allowlist refreshed "
              f"({sum(fatal_counts.values())} fatal()/die() sites "
              f"across {len(fatal_counts)} files)")

    if linter.violations:
        for v in linter.violations:
            print(v)
        print(f"lint: {len(linter.violations)} violation(s)")
        return 1
    total = sum(fatal_counts.values())
    print(f"lint: clean ({total} grandfathered fatal()/die() sites "
          "remaining)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
