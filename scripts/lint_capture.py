#!/usr/bin/env python3
"""Flag by-reference lambda captures flowing into cross-rank code.

simmpi ranks are threads: a `[&]` lambda handed to `simmpi::run` (or one
of the bench/recovery wrappers, or a sched JobNode callback slot) runs
concurrently on every rank, so every by-reference capture is shared
mutable state unless the author proves otherwise. mimir-race catches the
unsynchronized ones at run time; this lint catches the pattern at review
time, before any test runs.

Usage:
    lint_capture.py [--strict] [path...]

Paths may be files or directories (searched recursively for .cpp/.hpp);
the default is examples/ and src/apps/ relative to the repo root.

A finding is a lambda whose capture list contains `&` appearing in the
argument region of a *sink*:

  * rank-body runners: simmpi::run, run_test, run_config, run_driver,
    run_attempts, run_with_recovery, run_with_retry, run_graph,
    run_graph_with_recovery
  * sched callback slots: assignments to .producer / .kv_map / .reduce /
    .partial / .consume / .make_state
  * with --strict, also per-job map/reduce callbacks (job.map_custom,
    job.map_kvs, job.map, job.reduce, job.partial_reduce) — these run on
    one rank thread, but the callback may still leak a captured
    reference across jobs.

Suppression: an intentional shared capture (e.g. synchronized via
check::Shared<T>, a barrier protocol, or only ever touched by one rank)
is annotated with `// mimir: shared-ok` on the lambda's line, the line
above it, or the sink's line.

Implementation is AST-free by design: when libclang (clang.cindex) is
importable its lexer is used to blank comments and string literals,
otherwise a built-in tokenizer does the same job — no compile database
needed either way. Exit codes: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

ANNOTATION = "mimir: shared-ok"

# Call-style sinks: the lambda appears inside the call's parentheses.
CALL_SINKS = [
    r"simmpi\s*::\s*run",
    r"\brun_test",
    r"\brun_config",
    r"\brun_driver",
    r"\brun_attempts",
    r"\brun_with_recovery",
    r"\brun_with_retry",
    r"\brun_graph_with_recovery",
    r"\brun_graph",
]

# Assignment-style sinks: sched JobNode / GraphOptions callback slots;
# the lambda appears between `=` and the statement's `;`.
ASSIGN_SINKS = [
    r"\.\s*producer\s*=",
    r"\.\s*kv_map\s*=",
    r"\.\s*reduce\s*=",
    r"\.\s*partial\s*=",
    r"\.\s*consume\s*=",
    r"\.\s*make_state\s*=",
    r"\.\s*on_plan\s*=",
]

# --strict: per-job callbacks too (same-thread, but a captured reference
# can outlive the job through emitted state).
STRICT_CALL_SINKS = [
    r"\.\s*map_custom",
    r"\.\s*map_kvs",
    r"\.\s*map_file",
    r"\.\s*map\b",
    r"\.\s*reduce\b",
    r"\.\s*partial_reduce",
]

# A capture list followed by something only a lambda can be followed by.
LAMBDA_RE = re.compile(
    r"\[([^\[\]]*)\]\s*(?=\(|\{|mutable\b|noexcept\b|->)")


def blank_comments_and_strings_builtin(text):
    """Replace comment/string contents with spaces, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:
                out[j] = out[j + 1] = " "
                j += 2
            i = j
        elif c in "\"'":
            quote = c
            out[i] = " "
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    out[j] = " "
                    j += 1
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n:
                out[j] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def blank_comments_and_strings_clang(text):
    """Same contract as the builtin stripper, via libclang's lexer."""
    import clang.cindex as cindex  # noqa: import guarded by caller

    index = cindex.Index.create()
    tu = index.parse("lint_capture.cpp",
                     unsaved_files=[("lint_capture.cpp", text)],
                     args=["-std=c++20", "-fsyntax-only"])
    out = list(text)
    for token in tu.get_tokens(extent=tu.cursor.extent):
        if token.kind in (cindex.TokenKind.COMMENT,
                          cindex.TokenKind.LITERAL):
            if token.kind == cindex.TokenKind.LITERAL and not (
                    token.spelling.startswith('"')
                    or token.spelling.startswith("'")):
                continue  # keep numeric literals, they are harmless
            start = token.extent.start.offset
            end = token.extent.end.offset
            for k in range(start, min(end, len(out))):
                if out[k] != "\n":
                    out[k] = " "
    return "".join(out)


def blank_comments_and_strings(text):
    try:
        return blank_comments_and_strings_clang(text)
    except Exception:  # libclang missing or unusable: regex fallback
        return blank_comments_and_strings_builtin(text)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def balanced_region(code, open_paren):
    """Offset one past the `(`'s matching `)`, or len(code) if unclosed."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def statement_end(code, start):
    """Offset of the `;` ending the statement at `start` (depth 0)."""
    depth = 0
    for i in range(start, len(code)):
        c = code[i]
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        elif c == ";" and depth <= 0:
            return i
    return len(code)


def annotated(raw_lines, *line_numbers):
    for ln in line_numbers:
        for candidate in (ln, ln - 1):
            if 1 <= candidate <= len(raw_lines) and \
                    ANNOTATION in raw_lines[candidate - 1]:
                return True
    return False


def ref_captures(capture_list):
    """True when a lambda capture list captures anything by reference."""
    return "&" in capture_list


def scan_file(path, strict):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"lint_capture: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)

    raw_lines = text.splitlines()
    code = blank_comments_and_strings(text)
    findings = []

    call_sinks = list(CALL_SINKS) + (STRICT_CALL_SINKS if strict else [])
    for pattern in call_sinks:
        for m in re.finditer(pattern, code):
            open_paren = code.find("(", m.end())
            if open_paren < 0 or "\n" in code[m.end():open_paren].strip():
                continue
            region_end = balanced_region(code, open_paren)
            region = code[open_paren:region_end]
            sink_line = line_of(code, m.start())
            for lm in LAMBDA_RE.finditer(region):
                if not ref_captures(lm.group(1)):
                    continue
                # Only direct arguments: a lambda nested inside another
                # lambda's body captures that body's per-rank locals,
                # which is ordinary same-thread code.
                if region.count("{", 0, lm.start()) \
                        > region.count("}", 0, lm.start()):
                    continue
                lam_line = line_of(code, open_paren + lm.start())
                if annotated(raw_lines, lam_line, sink_line):
                    continue
                findings.append(
                    (path, lam_line, sink_line,
                     code[m.start():open_paren].strip(),
                     lm.group(0).split("\n")[0].strip()))

    for pattern in ASSIGN_SINKS:
        for m in re.finditer(pattern, code):
            end = statement_end(code, m.end())
            region = code[m.end():end]
            sink_line = line_of(code, m.start())
            for lm in LAMBDA_RE.finditer(region):
                if not ref_captures(lm.group(1)):
                    continue
                if region.count("{", 0, lm.start()) \
                        > region.count("}", 0, lm.start()):
                    continue
                lam_line = line_of(code, m.end() + lm.start())
                if annotated(raw_lines, lam_line, sink_line):
                    continue
                findings.append(
                    (path, lam_line, sink_line,
                     code[m.start():m.end()].strip().rstrip("="). strip(),
                     lm.group(0).split("\n")[0].strip()))

    # A lambda can sit in two overlapping regions (nested or aliased
    # sinks, e.g. simmpi::run_test matching both the simmpi::run and
    # run_test patterns); report each capture site once.
    unique = []
    seen = set()
    for f in sorted(findings, key=lambda f: (f[0], f[1], f[2])):
        if (f[0], f[1]) not in seen:
            seen.add((f[0], f[1]))
            unique.append(f)
    return unique


def collect_paths(args_paths):
    if not args_paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        args_paths = [os.path.join(root, "examples"),
                      os.path.join(root, "src", "apps")]
    files = []
    for p in args_paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for dirpath, _dirnames, filenames in os.walk(p):
                for name in sorted(filenames):
                    if name.endswith((".cpp", ".hpp", ".cc", ".h")):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"lint_capture: no such path: {p}", file=sys.stderr)
            raise SystemExit(2)
    return sorted(set(files))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lint_capture.py",
        description="Flag by-reference lambda captures flowing into "
                    "rank bodies and map/reduce callbacks.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: examples/ "
                             "and src/apps/)")
    parser.add_argument("--strict", action="store_true",
                        help="also flag per-job map/reduce callbacks")
    args = parser.parse_args(argv)

    total = 0
    for path in collect_paths(args.paths):
        for fpath, lam_line, sink_line, sink, capture in scan_file(
                path, args.strict):
            total += 1
            print(f"{fpath}:{lam_line}: by-reference capture {capture} "
                  f"flows into {sink} (line {sink_line}); ranks run "
                  f"concurrently — capture by value, use check::Shared<T>, "
                  f"or annotate '// {ANNOTATION}'")
    if total:
        print(f"lint_capture: {total} unannotated by-reference "
              f"capture(s)", file=sys.stderr)
        return 1
    print("lint_capture: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
