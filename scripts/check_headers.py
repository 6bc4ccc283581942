#!/usr/bin/env python3
"""Repo invariant audit, wired into the lint target and ctest.

Checks (kept cheap so they run on every test invocation):
  * every C++ header under src/ carries `#pragma once`
  * no `std::cout` / `std::cerr` outside bench/, examples/, and tools —
    library code must report through check::Report
  * no naked `new` / `delete` in src/core — container memory must flow
    through memtrack::TrackedBuffer so the lifecycle auditor sees it

Exit code 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

HEADER_DIRS = ["src"]
COUT_DIRS = ["src"]
NAKED_NEW_DIRS = ["src/core"]

COUT_RE = re.compile(r"std::c(out|err)\b")
# A naked allocation: `new` after whitespace/punctuation, excluding
# placement-new and words like "renewed". Deletes likewise.
NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_:]")
DELETE_RE = re.compile(r"(?<![\w.])delete(\[\])?\s+[A-Za-z_]")
SMART_NEW_RE = re.compile(r"(make_unique|make_shared|unique_ptr|shared_ptr)")


def cpp_files(roots: list[str], suffixes: tuple[str, ...]) -> list[Path]:
    out: list[Path] = []
    for root in roots:
        base = REPO / root
        if not base.is_dir():
            continue
        out.extend(
            p for p in sorted(base.rglob("*")) if p.suffix in suffixes
        )
    return out


def strip_comments(text: str) -> str:
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)


def main() -> int:
    problems: list[str] = []

    for path in cpp_files(HEADER_DIRS, (".hpp", ".h")):
        if "#pragma once" not in path.read_text(encoding="utf-8"):
            problems.append(f"{path.relative_to(REPO)}: missing #pragma once")

    for path in cpp_files(COUT_DIRS, (".hpp", ".h", ".cpp")):
        body = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(body.splitlines(), start=1):
            if COUT_RE.search(line):
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: std::cout/cerr in "
                    "library code (report through check::Report)"
                )

    for path in cpp_files(NAKED_NEW_DIRS, (".hpp", ".h", ".cpp")):
        body = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(body.splitlines(), start=1):
            if SMART_NEW_RE.search(line):
                continue
            if NEW_RE.search(line) or DELETE_RE.search(line):
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: naked new/delete in "
                    "src/core (route memory through memtrack)"
                )

    if problems:
        print("check_headers: FAILED")
        for p in problems:
            print("  " + p)
        return 1
    print("check_headers: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
