#!/usr/bin/env python3
"""tlm-lint: project-invariant linter for the two-level-memory codebase.

The compiler cannot see the §II cost model, so these invariants are enforced
textually over src/:

  raw-thread         No std::thread / std::jthread / std::async / pthread
                     spawns outside src/common/thread_pool.* — all
                     parallelism flows through ThreadPool so thread id <->
                     simulated core id stays a stable mapping.
  raw-alloc          No new[] / malloc-family / make_unique<T[]> data
                     buffers in src/sort or src/kmeans — kernel memory comes
                     from Machine::alloc_array so the Arena/Machine
                     accounting sees it.
  unaccounted-buffer No element-count-sized std::vector data buffers in
                     src/sort kernels (metadata-sized vectors are fine);
                     an O(n) vector bypasses both spaces' accounting.
  counters-mutation  No direct writes to the stored PhaseStats
                     traffic/compute fields (the directional counters of
                     TLM_PHASE_TRAFFIC, compute_ops_*, host_seconds)
                     outside src/scratchpad — counters are owned by the
                     Machine's charge paths. The combined counters
                     (far_blocks, dma_far_bytes, ...) are derived accessors,
                     so writing one does not compile.
  banned-function    rand/srand (seeded runs must be reproducible via
                     common/rng.hpp), sprintf/strcpy/strcat/strtok/gets.
  include-hygiene    #pragma once in headers, no "../" includes, no
                     <bits/...> internals, quoted includes must resolve
                     under src/.
  hand-rolled-staging  No function outside src/scratchpad/ that allocates
                     two Space::Near staging buffers AND posts dma_copy
                     transfers — that is a hand-rolled double-buffered
                     pipeline; use the Stager primitive
                     (scratchpad/stager.hpp), which owns buffer parity,
                     the completion fence, and the counters.
  dma-fence-discipline  Within one function region, a dma_copy destination
                     must not be read again before a fence token (a sync /
                     wait / fence / barrier / run_spmd / parallel_for
                     call): the DMA engine may still be writing the bytes
                     behind the descriptor. Re-posting to the same
                     destination stays legal (same-thread descriptors are
                     FIFO-ordered), as does a read issued before the post
                     (program order covers it). This is the static twin of
                     the dynamic UnfencedDmaRead detector in
                     src/analyze/racecheck.hpp.
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

# PhaseStats fields the Machine's charge/fold paths own: the directional
# traffic counters (src/scratchpad/counters.hpp, TLM_PHASE_TRAFFIC) and the
# compute/host-time fields.
COUNTER_FIELDS = (
    "far_read_bytes|far_write_bytes|near_read_bytes|near_write_bytes|"
    "far_read_blocks|far_write_blocks|near_read_blocks|near_write_blocks|"
    "far_read_bursts|far_write_bursts|near_read_bursts|near_write_bursts|"
    "dma_far_read_bytes|dma_far_write_bytes|"
    "dma_near_read_bytes|dma_near_write_bytes|"
    "dma_far_read_bursts|dma_far_write_bursts|"
    "dma_near_read_bursts|dma_near_write_bursts|"
    "compute_ops_total|compute_ops_max|host_seconds"
)

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
RE_COUNTER_WRITE = re.compile(
    r"[.>](" + COUNTER_FIELDS + r")\s*(=(?!=)|\+=|-=|\*=|/=|\+\+|--)"
)
RE_BANNED = re.compile(
    r"(?<![\w:.])(rand|srand|sprintf|vsprintf|strcpy|strcat|strtok|gets)\s*\("
)
RE_INCLUDE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
RE_NEAR_ALLOC = re.compile(
    r"\b(?:alloc_array\s*<[^;({]*>|alloc)\s*\(\s*Space::Near\b")
RE_DMA_CALL = re.compile(r"\bdma_copy\s*\(")
# Member-call posts only (`m.dma_copy(` / `machine->dma_copy(`): the
# Machine::dma_copy definition itself must not count as a post.
RE_DMA_POST = re.compile(r"[.>]\s*dma_copy\s*\(")
# Anything that completes posted DMA descriptors before the next read: the
# explicit sync/wait/fence families plus the SPMD rendezvous entry points
# (run_spmd / parallel_for), whose barrier fences outstanding descriptors.
RE_FENCE_TOKEN = re.compile(
    r"\b\w*(?:sync|wait|fence|barrier|run_spmd|parallel_for)\w*\s*\(")
RE_IDENT = re.compile(r"\b([A-Za-z_]\w*)\s*(\[[^\]]*\])?")
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


def staging_violations(scrubbed):
    """Finds hand-rolled staging pipelines: function bodies holding >= 2
    Space::Near allocations plus a dma_copy call. Returns the line number
    of the first dma_copy in each offending region.
    """
    def events(_, line):
        return ([(m.start(), "near", None)
                 for m in RE_NEAR_ALLOC.finditer(line)]
                + [(m.start(), "dma", None)
                   for m in RE_DMA_CALL.finditer(line)])

    out = []
    near = 0
    dma = []
    for kind, lineno, tag, _ in scan_function_regions(scrubbed, events):
        if kind == "open":
            near = 0
            dma = []
        elif kind == "close":
            if near >= 2 and dma:
                out.append(dma[0])
        elif tag == "near":
            near += 1
        else:
            dma.append(lineno)
    return out


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


def dma_post_parse(line, open_idx):
    """Parses a dma_copy call whose '(' sits at column open_idx.

    Returns (end_col, dst_root, open_depth): end_col is one past the
    closing ')', or len(line) with open_depth > 0 when the call continues
    on the next line; dst_root is the second argument's root expression —
    leading identifier plus an optional subscript, e.g. `bufs[i + 1]` from
    `bufs[i + 1] + off` — or None when it isn't visible on this line.
    """
    depth = 0
    args = []
    start = open_idx + 1
    end = len(line)
    for idx in range(open_idx, len(line)):
        ch = line[idx]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth == 0:
                args.append(line[start:idx])
                end = idx + 1
                break
        elif ch == "," and depth == 1:
            args.append(line[start:idx])
            start = idx + 1
    root = None
    dst = args[1] if len(args) >= 2 else None
    if dst:
        m = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*((?:\[[^\]]*\])?)", dst)
        if m and m.group(1) not in ("static_cast", "reinterpret_cast",
                                    "const_cast", "dynamic_cast"):
            root = m.group(1) + re.sub(r"\s+", "", m.group(2))
    return end, root, max(depth, 0)


def fence_discipline_violations(scrubbed):
    """Finds DmaCopy destinations consumed before a fence.

    Within one function region, after `x.dma_copy(t, DST, ...)` posts a
    descriptor, any later read of DST's root expression before a fence
    token (a sync / wait / fence / barrier / run_spmd / parallel_for call)
    is flagged: the engine may still be writing those bytes. Re-posting to
    the same destination is not a read (same-thread descriptors are FIFO),
    and a read issued before the post is ordered by program order, so
    neither counts. Returns (use_line, root, post_line) tuples.
    """
    carry = {"depth": 0}  # paren depth of a dma_copy call left open at EOL

    def events(_lineno, line):
        evs = []
        spans = []  # columns inside dma_copy calls: idents there aren't reads
        if carry["depth"]:
            depth = carry["depth"]
            close = len(line)
            for idx, ch in enumerate(line):
                if ch in "([":
                    depth += 1
                elif ch in ")]":
                    depth -= 1
                    if depth == 0:
                        close = idx + 1
                        break
            spans.append((0, close))
            carry["depth"] = depth if close == len(line) else 0
        for m in RE_DMA_POST.finditer(line):
            if any(a <= m.start() < b for a, b in spans):
                continue
            end, root, left = dma_post_parse(line, m.end() - 1)
            spans.append((m.start(), end))
            carry["depth"] = left
            evs.append((m.start(), "dma", root))
        for m in RE_FENCE_TOKEN.finditer(line):
            if not any(a <= m.start() < b for a, b in spans):
                evs.append((m.start(), "fence", None))
        for m in RE_IDENT.finditer(line):
            if not any(a <= m.start() < b for a, b in spans):
                sub = re.sub(r"\s+", "", m.group(2) or "")
                evs.append((m.start(), "use",
                            (m.group(1), m.group(1) + sub)))
        return evs

    out = []
    posted = {}  # dst root -> line of the un-fenced post targeting it
    for kind, lineno, tag, payload in scan_function_regions(scrubbed, events):
        if kind != "event" or tag == "fence":
            posted.clear()
        elif tag == "dma":
            if payload:
                posted[payload] = lineno
        else:
            name, full = payload
            key = full if full in posted else name if name in posted else None
            if key is not None:
                out.append((lineno, key, posted.pop(key)))
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
        in_scratchpad = rp.startswith("src/scratchpad/")
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

            if not in_scratchpad and RE_COUNTER_WRITE.search(line):
                self.report(path, i, "counters-mutation",
                            "direct write to a PhaseStats counter field — "
                            "counters are owned by src/scratchpad",
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

        if not in_scratchpad:
            for lineno in staging_violations(scrubbed):
                self.report(
                    path, lineno, "hand-rolled-staging",
                    "two Space::Near staging buffers plus dma_copy in one "
                    "function — use the Stager primitive "
                    "(scratchpad/stager.hpp)", lines, file_allows)

        for use_line, root, post_line in fence_discipline_violations(scrubbed):
            self.report(
                path, use_line, "dma-fence-discipline",
                f"`{root}` is read here but a dma_copy posted to it on line "
                f"{post_line} with no fence between — the engine may still "
                "be writing it; sync/run_spmd before consuming",
                lines, file_allows)

    def run(self):
        for dirpath, _, filenames in os.walk(self.src):
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    self.lint_file(os.path.join(dirpath, fn))
        return self.findings


RULES = [
    "raw-thread", "raw-alloc", "unaccounted-buffer", "counters-mutation",
    "banned-function", "include-hygiene",
    "hand-rolled-staging", "dma-fence-discipline",
    "phase-loop-checkpoint",
]


# --self-test fixtures: (name, path-under-root, expected rule or None, code).
SELF_TEST_FIXTURES = [
    (
        "staging-two-near-buffers-and-dma-fires",
        "src/foo/pipeline.cpp",
        "hand-rolled-staging",
        """\
void pipelined_gather(Machine& m, std::uint64_t cap) {
  auto buf0 = m.alloc_array<std::byte>(Space::Near, cap);
  auto buf1 = m.alloc_array<std::byte>(Space::Near, cap);
  m.dma_copy(0, buf1.data(), src, cap);
  m.dealloc(Space::Near, buf0.data());
  m.dealloc(Space::Near, buf1.data());
}
""",
    ),
    (
        "staging-lambda-in-function-still-fires",
        "src/foo/pipeline2.cpp",
        "hand-rolled-staging",
        """\
void pipelined(Machine& m, std::uint64_t cap) {
  std::byte* bufs[2] = {m.alloc(Space::Near, cap),
                        m.alloc(Space::Near, cap)};
  auto hook = [&](std::size_t w) {
    m.dma_copy(w, bufs[1], src, cap);
  };
  run(hook);
}
""",
    ),
    (
        "staging-single-buffer-is-clean",
        "src/foo/single.cpp",
        None,
        """\
void single_buffer(Machine& m, std::uint64_t cap) {
  auto buf = m.alloc_array<std::byte>(Space::Near, cap);
  m.dma_copy(0, buf.data(), src, cap);
}
""",
    ),
    (
        "staging-split-across-functions-is-clean",
        "src/foo/split.cpp",
        None,
        """\
void make_buffers(Machine& m, std::uint64_t cap) {
  auto buf0 = m.alloc_array<std::byte>(Space::Near, cap);
  auto buf1 = m.alloc_array<std::byte>(Space::Near, cap);
}
void post(Machine& m, std::byte* dst, std::uint64_t cap) {
  m.dma_copy(0, dst, src, cap);
}
""",
    ),
    (
        "staging-inside-scratchpad-is-exempt",
        "src/scratchpad/stager_impl.cpp",
        None,
        """\
void Stager::pipeline(std::uint64_t cap) {
  bufs_[0] = m_.alloc(Space::Near, cap);
  bufs_[1] = m_.alloc(Space::Near, cap);
  m_.dma_copy(0, bufs_[1], src, cap);
}
""",
    ),
    (
        "staging-allow-escape-hatch",
        "src/foo/allowed.cpp",
        None,
        """\
void pipelined_gather(Machine& m, std::uint64_t cap) {
  auto buf0 = m.alloc_array<std::byte>(Space::Near, cap);
  auto buf1 = m.alloc_array<std::byte>(Space::Near, cap);
  // tlm-lint: allow(hand-rolled-staging): fixture exercising the escape
  m.dma_copy(0, buf1.data(), src, cap);
}
""",
    ),
    (
        # Regression: the pre-column-aware scanner counted a line's matches
        # only when the region was already open at the line's start, so a
        # one-line function body was invisible to the staging rule.
        "staging-one-line-body-fires",
        "src/foo/oneline.cpp",
        "hand-rolled-staging",
        """\
void g(Machine& m, std::uint64_t c) { auto a = m.alloc(Space::Near, c); auto b = m.alloc(Space::Near, c); m.dma_copy(0, b, src, c); }
""",
    ),
    (
        # Regression: content sharing a line with the region-opening `{`
        # (split headers) was skipped for the same reason.
        "staging-content-on-region-brace-lines-fires",
        "src/foo/braceline.cpp",
        "hand-rolled-staging",
        """\
void gather(Machine& m,
            std::uint64_t c) { auto a = m.alloc(Space::Near, c);
  auto b = m.alloc(Space::Near, c);
  m.dma_copy(0, b, src, c); }
""",
    ),
    (
        # Column-awareness must also cut the other way: matches after the
        # region-closing `}` on the same line belong to the next region.
        "staging-after-region-close-is-clean",
        "src/foo/afterclose.cpp",
        None,
        """\
void a(Machine& m, std::uint64_t c) { auto x = m.alloc(Space::Near, c); }
void b(Machine& m, std::uint64_t c) { m.dma_copy(0, q, src, c); auto y = m.alloc(Space::Near, c); }
""",
    ),
    (
        # One-line `if` bodies without braces stay inside the region (they
        # open no brace scope), so their matches must count.
        "staging-one-line-if-bodies-fire",
        "src/foo/ifbody.cpp",
        "hand-rolled-staging",
        """\
void gather(Machine& m, bool go, std::uint64_t c) {
  if (go) bufs[0] = m.alloc(Space::Near, c);
  if (go) bufs[1] = m.alloc(Space::Near, c);
  if (go) m.dma_copy(0, bufs[1], src, c);
}
""",
    ),
    (
        "fence-unfenced-consume-fires",
        "src/foo/unfenced.cpp",
        "dma-fence-discipline",
        """\
void consume(Machine& m, const std::byte* src, std::uint64_t n) {
  auto stage = m.alloc_array<std::byte>(Space::Near, n);
  m.dma_copy(0, stage.data(), src, n);
  process(stage.data(), n);
}
""",
    ),
    (
        "fence-synced-consume-is-clean",
        "src/foo/fenced.cpp",
        None,
        """\
void consume(Machine& m, const std::byte* src, std::uint64_t n) {
  auto stage = m.alloc_array<std::byte>(Space::Near, n);
  m.dma_copy(0, stage.data(), src, n);
  m.sync(0);
  process(stage.data(), n);
}
""",
    ),
    (
        # Same-thread descriptors are FIFO: a re-post over an in-flight
        # destination is not a read, and run_spmd fences before the consume.
        "fence-fifo-repost-is-clean",
        "src/foo/repost.cpp",
        None,
        """\
void repost(Machine& m, std::byte* a, const std::byte* s, std::uint64_t n) {
  m.dma_copy(0, a, s, n);
  m.dma_copy(0, a, s + n, n);
  m.run_spmd(worker);
  consume(a, n);
}
""",
    ),
    (
        # Double-buffer parity: reading the *other* subscript of the posted
        # array is the legal half of the pipeline and must not flag.
        "fence-subscript-parity-is-clean",
        "src/foo/parity.cpp",
        None,
        """\
void flip(Machine& m, const std::byte* s, std::uint64_t n) {
  m.dma_copy(0, bufs[1], s, n);
  consume(bufs[0], n);
  m.run_spmd(worker);
  consume(bufs[1], n);
}
""",
    ),
    (
        "fence-allow-escape-hatch",
        "src/foo/fence_allowed.cpp",
        None,
        """\
void consume(Machine& m, const std::byte* src, std::uint64_t n) {
  auto stage = m.alloc_array<std::byte>(Space::Near, n);
  m.dma_copy(0, stage.data(), src, n);
  // tlm-lint: allow(dma-fence-discipline): fixture exercising the escape
  process(stage.data(), n);
}
""",
    ),
    (
        # A directional counter is stored, so a stray write still compiles;
        # the rule is what catches it.
        "directional-counter-mutation-fires",
        "src/foo/skew.cpp",
        "counters-mutation",
        """\
void patch_up(PhaseStats& p, std::uint64_t blocks) {
  p.far_write_blocks += blocks;
}
""",
    ),
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
