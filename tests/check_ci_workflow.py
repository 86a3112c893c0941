#!/usr/bin/env python3
"""Lints .github/workflows/ci.yml: parses it and asserts the job structure
the repo depends on is present (gcc/clang x Debug/Release matrix whose
ctest run includes baseline_gate, sanitizer job, the gate lanes).

Run as a ctest; exits 77 (ctest SKIP_RETURN_CODE) when PyYAML is missing.
"""
import sys

try:
    import yaml
except ImportError:
    print("SKIP: PyYAML not available")
    sys.exit(77)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def steps_text(job):
    # Include each step's `if:` guard and `with:` inputs so the on-failure
    # artifact uploads (`if: failure()` and their paths) are assertable.
    return "\n".join(
        " ".join(str(s.get(k, "")) for k in ("run", "uses", "if", "with"))
        for s in job.get("steps", [])
    )


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    with open(path) as f:
        doc = yaml.safe_load(f)

    if not isinstance(doc, dict):
        fail("workflow is not a YAML mapping")
    # PyYAML parses the unquoted key `on:` as boolean True.
    if "on" not in doc and True not in doc:
        fail("workflow has no trigger ('on:') block")
    jobs = doc.get("jobs")
    if not isinstance(jobs, dict):
        fail("workflow has no jobs mapping")

    for required in (
        "build-test",
        "sanitizers",
        "lint",
        "clang-tidy",
        "model-check",
        "flake-detect",
        "chaos",
        "trace-replay",
        "racecheck",
        "server-stress",
    ):
        if required not in jobs:
            fail(f"missing job: {required}")

    # build-test: gcc/clang x Debug/Release matrix with ccache + cache.
    bt = jobs["build-test"]
    matrix = bt.get("strategy", {}).get("matrix", {})
    if sorted(matrix.get("compiler", [])) != ["clang", "gcc"]:
        fail("build-test matrix must cover gcc and clang")
    if sorted(matrix.get("build_type", [])) != ["Debug", "Release"]:
        fail("build-test matrix must cover Debug and Release")
    text = steps_text(bt)
    for needle in ("ccache", "actions/cache", "cmake -B build", "ctest"):
        if needle not in text:
            fail(f"build-test steps must mention '{needle}'")
    # The full ctest run includes baseline_gate, which regenerates every
    # checked-in baseline report; a failing lane must keep those reports.
    for needle in ("build/bench/baseline_gate/", "actions/upload-artifact",
                   "failure()"):
        if needle not in text:
            fail(f"build-test steps must mention '{needle}'")

    # google-benchmark is not a dependency: no job installs it.
    for job_name, job in jobs.items():
        if "libbenchmark-dev" in steps_text(job):
            fail(f"{job_name} must not install libbenchmark-dev")

    # The paper_shapes ctest needs Release speed: the Release matrix lanes
    # must run it in a step of their own, so it cannot be dropped silently,
    # and the Debug-speed full runs exclude it by label.
    shape_steps = [
        st for st in bt.get("steps", [])
        if "-L paper_shapes" in str(st.get("run", ""))
    ]
    if not any("Release" in str(st.get("if", "")) for st in shape_steps):
        fail("build-test must run '-L paper_shapes' in a Release-only step")
    for job_name in ("build-test", "sanitizers", "model-check"):
        if "-LE paper_shapes" not in steps_text(jobs[job_name]):
            fail(f"{job_name} full ctest runs must exclude '-LE paper_shapes'")

    # Every job that compiles the tree must launch compilers through ccache
    # and persist the cache across runs via actions/cache — a cold matrix
    # rebuild dominates CI wall-clock otherwise.
    for job_name in ("build-test", "sanitizers", "flake-detect",
                     "model-check", "chaos", "trace-replay",
                     "racecheck", "server-stress"):
        jtext = steps_text(jobs[job_name])
        for needle in ("ccache", "actions/cache"):
            if needle not in jtext:
                fail(f"{job_name} steps must mention '{needle}'")

    # sanitizers: ASan+UBSan everywhere, TSan on every `threaded`-labeled
    # suite (the shared label is applied in tests/CMakeLists.txt).
    san = steps_text(jobs["sanitizers"])
    for needle in (
        "-fsanitize=address,undefined",
        "-fsanitize=thread",
        "-L threaded",
    ):
        if needle not in san:
            fail(f"sanitizers steps must mention '{needle}'")

    # flake-detect: threaded suites repeated until-fail under TSan, so
    # scheduling-dependent failures surface in CI rather than on main.
    flake = steps_text(jobs["flake-detect"])
    for needle in (
        "-fsanitize=thread",
        "-L threaded",
        "--repeat until-fail:3",
    ):
        if needle not in flake:
            fail(f"flake-detect steps must mention '{needle}'")

    # chaos: the fault-injection differential harness (fixed seeds + the
    # all-near-allocs-fail schedule) must stay a first-class CI gate.
    chaos = steps_text(jobs["chaos"])
    for needle in ("-L test_chaos", "ctest", "actions/upload-artifact",
                   "failure()"):
        if needle not in chaos:
            fail(f"chaos steps must mention '{needle}'")

    # trace-replay: the out-of-core determinism lane — the replay test
    # suites (stream equality, crash recovery, chaos-seed replay) plus the
    # cross-process gate: Table I captured through the in-RAM path and the
    # mmap'd MappedLog path must diff to zero changed cost leaves, and both
    # must diff to zero against the checked-in cycle-sim baseline. Failures
    # must keep the divergent logs as artifacts.
    tr = steps_text(jobs["trace-replay"])
    for needle in (
        "-L test_replay",
        "-L test_serialize",
        "--trace=mapped",
        "report_diff --max-changed=0",
        "bench/baselines/table1_sim_quick.json",
        "tlm_racecheck --warn-only",
        "actions/upload-artifact",
        "failure()",
    ):
        if needle not in tr:
            fail(f"trace-replay steps must mention '{needle}'")

    # racecheck: the happens-before analysis lane — the injected-bug fixture
    # suites (every detector fires; every near-miss stays clean), fresh
    # chaos-seed captures, and the Table I mapped-trace run directories must
    # all pass the analyzer; failures keep the reports as artifacts.
    rc = steps_text(jobs["racecheck"])
    for needle in (
        "tlm_racecheck --self-test",
        "-L test_racecheck",
        "--capture=nmsort",
        "--chaos-seed",
        "--trace=mapped",
        "--trace-dir",
        "actions/upload-artifact",
        "failure()",
    ):
        if needle not in rc:
            fail(f"racecheck steps must mention '{needle}'")

    # lint: the project-invariant linter runs build-free, and its own rule
    # fixtures run first so a broken rule cannot silently pass the tree.
    lint = steps_text(jobs["lint"])
    for needle in ("tools/tlm_lint.py", "check_ci_workflow.py",
                   "--self-test"):
        if needle not in lint:
            fail(f"lint steps must mention '{needle}'")

    # clang-tidy: compile database over library sources only.
    tidy = steps_text(jobs["clang-tidy"])
    for needle in ("TLM_BUILD_TESTS=OFF", "run-clang-tidy"):
        if needle not in tidy:
            fail(f"clang-tidy steps must mention '{needle}'")

    # model-check: Debug build with the model sanitizer compiled in, full
    # ctest run (including test_model_check's death tests).
    model = steps_text(jobs["model-check"])
    for needle in ("-DTLM_CHECK_MODEL=ON", "ctest"):
        if needle not in model:
            fail(f"model-check steps must mention '{needle}'")

    # server-stress: the multi-tenant lane — the test_server suites plus the
    # full-scale server_mixed isolation gate (bit-identical outputs, modeled
    # p99 within 2x solo, thrasher contained) and the lifecycle determinism
    # gate (two seeded deadline-chaos runs must settle identically:
    # report_diff at --max-changed=0); failures keep the run report.
    ss = steps_text(jobs["server-stress"])
    for needle in (
        "-L test_server",
        "server_mixed",
        "--json",
        "--deadline-ms",
        "report_diff",
        "--max-changed=0",
        "actions/upload-artifact",
        "failure()",
    ):
        if needle not in ss:
            fail(f"server-stress steps must mention '{needle}'")

    print(f"OK: {path} parses and has the expected job structure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
