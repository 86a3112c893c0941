#!/usr/bin/env python3
"""Runs a command with the process affinity narrowed to one CPU.

    python3 tests/one_cpu.py <command> [args...]

The command (and every process it starts) replaces this one, so its exit
code is the command's. A Machine sizes its host thread pool from the
affinity mask, so under this wrapper every Machine runs all of its simulated
cores on the calling thread; the one-CPU ctests use it to show that path
reproduces the same numbers as the threaded one.
"""
import os
import sys


def main():
    if len(sys.argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.execvp(sys.argv[1], sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
