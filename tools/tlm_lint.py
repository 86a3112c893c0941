#!/usr/bin/env python3
"""tlm-lint: project-invariant linter for the two-level-memory codebase.

The compiler cannot see the §II cost model, so these invariants are enforced
textually over src/:

  raw-thread         No std::thread / std::jthread / std::async / pthread
                     spawns outside src/common/thread_pool.* — all
                     parallelism flows through ThreadPool, so host threads
                     are made in one place and simulated cores reach them
                     only through Machine::run_spmd.
  raw-alloc          No new[] / malloc-family / make_unique<T[]> data
                     buffers in src/sort or src/kmeans — kernel memory comes
                     from Machine::alloc_array so the Arena/Machine
                     accounting sees it.
  unaccounted-buffer No element-count-sized std::vector data buffers in
                     src/sort kernels (metadata-sized vectors are fine);
                     an O(n) vector bypasses both spaces' accounting.
  banned-function    rand/srand (seeded runs must be reproducible via
                     common/rng.hpp), sprintf/strcpy/strcat/strtok/gets.
  include-hygiene    #pragma once in headers, no "../" includes, no
                     <bits/...> internals, quoted includes must resolve
                     under src/.
  phase-loop-checkpoint  A function under src/server/ that opens a phase
                     (begin_phase) must also poll the cooperative
                     cancellation token (poll_cancel) somewhere in the same
                     region. The job lifecycle's cancel / deadline /
                     shutdown paths are delivered only at checkpoints; a
                     server phase driver with none is uncancellable and
                     turns every stuck job into a wedged server.

Escape hatches (always give a reason after a colon):

  // tlm-lint: allow(<rule>): why            -- this line or the next line
  // tlm-lint: allow-file(<rule>): why       -- whole file

Usage: tlm_lint.py [--root REPO_ROOT] [--list-rules] [--self-test]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")

ALLOW_LINE = re.compile(r"//\s*tlm-lint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE = re.compile(r"//\s*tlm-lint:\s*allow-file\(([a-z-]+)\)")

RE_RAW_THREAD = re.compile(r"\bstd::(thread|jthread|async)\b|\bpthread_create\b")
RE_RAW_ALLOC = re.compile(
    r"\bnew\s+[A-Za-z_][\w:<>, ]*\[|"
    r"(?<![\w:])(malloc|calloc|realloc|aligned_alloc)\s*\(|"
    r"\bmake_unique\s*<[^;()]*\[\]\s*>"
)
RE_VECTOR_DECL = re.compile(
    r"\bstd::vector\s*<[^;{}]*>\s+\w+\s*[({]([^;{}]*)[)}]"
)
RE_VECTOR_SIZE_CALL = re.compile(r"\.(resize|reserve|assign)\s*\(([^;]*)\)")
RE_BARE_N = re.compile(r"(?<![\w.])n(?![\w(])")
RE_BANNED = re.compile(
    r"(?<![\w:.])(rand|srand|sprintf|vsprintf|strcpy|strcat|strtok|gets)\s*\("
)
RE_INCLUDE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
RE_BLOCK_KEYWORD = re.compile(r"\b(namespace|struct|class|enum|union)\b")

# Matches string/char literals and comments so content rules don't fire on
# prose. Order matters: literals first, then comments.
RE_SCRUB = re.compile(
    r'"(?:\\.|[^"\\])*"' r"|'(?:\\.|[^'\\])*'" r"|//[^\n]*" r"|/\*.*?\*/",
    re.S,
)


def scrub(line):
    """Blanks literals and comments, preserving length and tlm-lint tags."""
    def repl(m):
        text = m.group(0)
        if "tlm-lint" in text:
            return text
        return " " * len(text)

    return RE_SCRUB.sub(repl, line)


def rel(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def scan_function_regions(scrubbed, line_events):
    """Drives the function-region brace scanner over column-tagged events.

    A brace group whose header contains a parenthesized parameter list and
    no type/namespace keyword is treated as one function region (nested
    blocks and lambdas merge into it). `line_events(lineno, line)` returns a
    list of (column, tag, payload) tuples for one line; the scanner yields
    ("event", lineno, tag, payload) for each event whose column falls inside
    an open region — column-aware, so a one-line body `void f() { ... }`
    counts its content, and text after the closing `}` does not — plus
    ("open", lineno, None, None) / ("close", lineno, None, None) at region
    boundaries.
    """
    depth = 0
    fn_depth = None  # brace depth at which the open function region started
    header = []  # code seen since the last statement boundary at outer scope
    for lineno, line in enumerate(scrubbed, start=1):
        events = sorted(line_events(lineno, line), key=lambda e: e[0])
        ei = 0
        for col, ch in enumerate(line):
            while ei < len(events) and events[ei][0] <= col:
                if fn_depth is not None:
                    yield ("event", lineno, events[ei][1], events[ei][2])
                ei += 1
            if ch == "{":
                if fn_depth is None:
                    h = "".join(header)
                    if ("(" in h and ")" in h
                            and not RE_BLOCK_KEYWORD.search(h)):
                        fn_depth = depth
                        yield ("open", lineno, None, None)
                    header = []
                depth += 1
            elif ch == "}":
                depth -= 1
                if fn_depth is not None and depth <= fn_depth:
                    fn_depth = None
                    yield ("close", lineno, None, None)
                header = []
            elif ch == ";":
                if fn_depth is None:
                    header = []
            elif fn_depth is None:
                header.append(ch)
        while ei < len(events):  # events past the last brace on the line
            if fn_depth is not None:
                yield ("event", lineno, events[ei][1], events[ei][2])
            ei += 1


RE_BEGIN_PHASE = re.compile(r"\bbegin_phase\s*\(")
RE_POLL_CANCEL = re.compile(r"\bpoll_cancel\s*\(")


def phase_checkpoint_violations(scrubbed):
    """Finds server phase drivers with no cancellation checkpoint: function
    bodies that call begin_phase but never poll_cancel. Returns the line
    number of the first begin_phase in each offending region.
    """
    def events(_, line):
        return ([(m.start(), "begin", None)
                 for m in RE_BEGIN_PHASE.finditer(line)]
                + [(m.start(), "poll", None)
                   for m in RE_POLL_CANCEL.finditer(line)])

    out = []
    begin = None
    polled = False
    for kind, lineno, tag, _ in scan_function_regions(scrubbed, events):
        if kind == "open":
            begin, polled = None, False
        elif kind == "close":
            if begin is not None and not polled:
                out.append(begin)
        elif tag == "begin":
            if begin is None:
                begin = lineno
        else:
            polled = True
    return out


class Linter:
    def __init__(self, root):
        self.root = root
        self.src = os.path.join(root, "src")
        self.findings = []

    def report(self, path, lineno, rule, msg, lines, file_allows):
        if rule in file_allows:
            return
        for probe in (lineno - 1, lineno - 2):  # this line or the one above
            if 0 <= probe < len(lines):
                m = ALLOW_LINE.search(lines[probe])
                if m and m.group(1) == rule:
                    return
        self.findings.append(
            f"{rel(path, self.root)}:{lineno}: [{rule}] {msg}")

    def lint_file(self, path):
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        lines = raw.splitlines()
        scrubbed = [scrub(l) for l in lines]
        file_allows = {m.group(1) for m in ALLOW_FILE.finditer(raw)}
        rp = rel(path, self.root)

        in_thread_pool = rp.startswith("src/common/thread_pool.")
        in_sort = rp.startswith("src/sort/")
        in_kernels = in_sort or rp.startswith("src/kmeans/")

        if path.endswith((".hpp", ".h")) and "#pragma once" not in raw:
            self.report(path, 1, "include-hygiene",
                        "header lacks #pragma once", lines, file_allows)

        for i, line in enumerate(scrubbed, start=1):
            inc = RE_INCLUDE.match(lines[i - 1])
            if inc:
                style, target = inc.group(1), inc.group(2)
                if target.startswith("bits/"):
                    self.report(path, i, "include-hygiene",
                                f"libstdc++ internal header <{target}>",
                                lines, file_allows)
                if style == '"':
                    if ".." in target.split("/"):
                        self.report(path, i, "include-hygiene",
                                    f'relative include "{target}" — use a '
                                    "src-rooted path", lines, file_allows)
                    elif rp.startswith("src/") and not os.path.exists(
                            os.path.join(self.src, target)):
                        self.report(path, i, "include-hygiene",
                                    f'include "{target}" does not resolve '
                                    "under src/", lines, file_allows)
                continue  # an #include line can't trip the content rules

            if not in_thread_pool and RE_RAW_THREAD.search(line):
                self.report(path, i, "raw-thread",
                            "raw thread primitive — parallelism must go "
                            "through ThreadPool", lines, file_allows)

            if in_kernels and RE_RAW_ALLOC.search(line):
                self.report(path, i, "raw-alloc",
                            "raw buffer allocation bypasses Machine/Arena "
                            "accounting — use Machine::alloc_array",
                            lines, file_allows)

            if in_sort:
                for m in RE_VECTOR_DECL.finditer(line):
                    if RE_BARE_N.search(m.group(1)):
                        self.report(
                            path, i, "unaccounted-buffer",
                            "std::vector sized by the element count `n` "
                            "bypasses two-level accounting — stage it "
                            "through Machine::alloc_array",
                            lines, file_allows)
                for m in RE_VECTOR_SIZE_CALL.finditer(line):
                    if RE_BARE_N.search(m.group(2)):
                        self.report(
                            path, i, "unaccounted-buffer",
                            f".{m.group(1)}() sized by the element count "
                            "`n` bypasses two-level accounting",
                            lines, file_allows)

            if RE_BANNED.search(line):
                name = RE_BANNED.search(line).group(1)
                self.report(path, i, "banned-function",
                            f"banned function {name}()", lines, file_allows)

        if rp.startswith("src/server/"):
            for lineno in phase_checkpoint_violations(scrubbed):
                self.report(
                    path, lineno, "phase-loop-checkpoint",
                    "phase opened here but the region never calls "
                    "poll_cancel — cancel/deadline/shutdown are delivered "
                    "only at checkpoints, so this phase driver cannot be "
                    "unwound", lines, file_allows)

    def run(self):
        for dirpath, _, filenames in os.walk(self.src):
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    self.lint_file(os.path.join(dirpath, fn))
        return self.findings


RULES = [
    "raw-thread", "raw-alloc", "unaccounted-buffer", "banned-function",
    "include-hygiene", "phase-loop-checkpoint",
]


# --self-test fixtures: (name, path-under-root, expected rule or None, code).
SELF_TEST_FIXTURES = [
    (
        "raw-thread-harness-check",
        "src/foo/thread.cpp",
        "raw-thread",
        """\
void spawn() { std::thread t([] {}); t.join(); }
""",
    ),
    (
        "server-phase-loop-without-checkpoint-fires",
        "src/server/driver.cpp",
        "phase-loop-checkpoint",
        """\
void Driver::run_phase(Machine& m, const Phase& p) {
  m.begin_phase(p.name);
  p.fn(ctx_);
  m.end_phase();
}
""",
    ),
    (
        "server-phase-loop-with-checkpoint-is-clean",
        "src/server/driver2.cpp",
        None,
        """\
void Driver::run_phase(Machine& m, const Phase& p) {
  m.begin_phase(p.name);
  m.poll_cancel();
  p.fn(ctx_);
  m.poll_cancel();
  m.end_phase();
}
""",
    ),
    (
        "phase-loop-checkpoint-allow-escape-honored",
        "src/server/driver3.cpp",
        None,
        """\
void Driver::warmup_phase(Machine& m) {
  // tlm-lint: allow(phase-loop-checkpoint): fixture exercising the escape
  m.begin_phase("warmup");
  m.end_phase();
}
""",
    ),
    (
        # The region scanner is column-aware: a one-line body counts its
        # own content...
        "phase-loop-one-line-body-fires",
        "src/server/oneline.cpp",
        "phase-loop-checkpoint",
        """\
void Driver::go(Machine& m) { m.begin_phase("p"); m.end_phase(); }
""",
    ),
    (
        # ...and a checkpoint after the region-closing `}` on the same line
        # belongs to the next region, not this one.
        "phase-loop-poll-after-region-close-fires",
        "src/server/afterclose.cpp",
        "phase-loop-checkpoint",
        """\
void Driver::a(Machine& m) { m.begin_phase("p"); } void Driver::b(Machine& m) { m.poll_cancel(); }
""",
    ),
    (
        "phase-loop-outside-server-is-exempt",
        "src/sim/harness.cpp",
        None,
        """\
void Harness::measure(Machine& m) {
  m.begin_phase("measure");
  m.end_phase();
}
""",
    ),
]


def self_test():
    """Runs the embedded fixtures through the Linter; 0 on success."""
    import tempfile

    failures = []
    for name, path, expect_rule, code in SELF_TEST_FIXTURES:
        with tempfile.TemporaryDirectory() as td:
            full = os.path.join(td, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(code)
            findings = Linter(td).run()
        if expect_rule is None:
            if findings:
                failures.append(f"{name}: expected clean, got {findings}")
        elif not any(f"[{expect_rule}]" in fi for fi in findings):
            failures.append(
                f"{name}: expected a [{expect_rule}] finding, got {findings}")
    for f in failures:
        print(f"tlm-lint self-test FAIL: {f}")
    if not failures:
        print(f"tlm-lint self-test: {len(SELF_TEST_FIXTURES)} fixtures ok")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded rule fixtures and exit")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"tlm-lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = Linter(root).run()
    for f in findings:
        print(f)
    if findings:
        print(f"tlm-lint: {len(findings)} finding(s)")
        return 1
    print("tlm-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
