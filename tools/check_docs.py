#!/usr/bin/env python3
"""Docs health check (CI: docs-health).

Two invariants, both cheap and both prone to silent rot:

1. Every intra-repo markdown link resolves to a real file. External links
   (http/https/mailto) and pure anchors are skipped; `#fragment` suffixes
   on file links are stripped before the existence check.

2. Every public field of RuntimeOptions (src/flashware/options.h) is
   mentioned by name in docs/API.md, and every field named in API.md's
   RuntimeOptions table exists in the struct — the runtime-configuration
   reference neither lags the struct nor keeps rows for deleted knobs.

Exit status is the number of problems found (0 = healthy). `--self-test`
runs both checks of (2) against a healthy, a lagging and a stale fixture.
"""

import argparse
import os
import re
import sys
import tempfile

# [text](target) — target captured up to the matching ')'; images share the
# syntax, so they are checked too. Code spans are stripped first.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
FENCE_RE = re.compile(r"^(```|~~~)")

SKIP_DIRS = {".git", "build", "out", "third_party", "node_modules"}


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build")
        ]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_links(root):
    problems = []
    for path in sorted(markdown_files(root)):
        in_fence = False
        for lineno, line in enumerate(
                open(path, encoding="utf-8"), start=1):
            if FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(CODE_SPAN_RE.sub("", line)):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                base = root if rel.startswith("/") else os.path.dirname(path)
                resolved = os.path.normpath(
                    os.path.join(base, rel.lstrip("/")))
                if not os.path.exists(resolved):
                    problems.append(
                        f"{os.path.relpath(path, root)}:{lineno}: "
                        f"broken link -> {target}")
    return problems


FIELD_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w:<>,\s]*?[\s&*>])(\w+)\s*(?:=[^;]*)?;\s*$")


def runtime_options_fields(options_h):
    """Public data members of struct RuntimeOptions, in declaration order."""
    fields = []
    in_struct = False
    depth = 0
    for line in open(options_h, encoding="utf-8"):
        stripped = line.split("//")[0]
        if not in_struct:
            if re.search(r"\bstruct\s+RuntimeOptions\b", stripped):
                in_struct = True
                depth = stripped.count("{") - stripped.count("}")
            continue
        depth += stripped.count("{") - stripped.count("}")
        if depth < 0 or (depth == 0 and "};" in stripped):
            break
        m = FIELD_RE.match(stripped)
        if m:
            fields.append(m.group(1))
    return fields


# A row of API.md's RuntimeOptions table: | `field` | default | meaning |
TABLE_HEADER_RE = re.compile(r"^\|\s*Field\s*\|\s*Default\s*\|")
TABLE_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|")


def api_table_fields(text):
    """Field names in the first column of API.md's RuntimeOptions table."""
    fields = []
    in_table = False
    for line in text.splitlines():
        if TABLE_HEADER_RE.match(line):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            m = TABLE_ROW_RE.match(line)
            if m:
                fields.append(m.group(1))
    return fields


def check_api_doc(root):
    options_h = os.path.join(root, "src", "flashware", "options.h")
    api_md = os.path.join(root, "docs", "API.md")
    problems = []
    if not os.path.exists(api_md):
        return [f"missing {os.path.relpath(api_md, root)}"]
    fields = runtime_options_fields(options_h)
    if not fields:
        return [f"could not parse RuntimeOptions fields from {options_h}"]
    text = open(api_md, encoding="utf-8").read()
    for field in fields:
        if not re.search(rf"\b{re.escape(field)}\b", text):
            problems.append(
                f"docs/API.md: RuntimeOptions field `{field}` undocumented")
    documented = api_table_fields(text)
    if not documented:
        problems.append("docs/API.md: RuntimeOptions table not found")
    for field in documented:
        if field not in fields:
            problems.append(
                f"docs/API.md: table row `{field}` is not a RuntimeOptions "
                "field")
    return problems


def self_test():
    """Runs check_api_doc on fixtures; returns the number of failures."""
    options_h = ("struct RuntimeOptions {\n  int alpha = 1;\n"
                 "  bool beta = true;\n};\n")
    header = "| Field | Default | Meaning |\n|---|---|---|\n"
    fixtures = [
        ("healthy", "| `alpha` | 1 | A. |\n| `beta` | `true` | B. |\n", 0),
        ("lagging", "| `alpha` | 1 | A. |\n", 1),
        ("stale", "| `alpha` | 1 | A. |\n| `beta` | `true` | B. |\n"
                  "| `gamma` | 0 | Deleted knob. |\n", 1),
    ]
    failures = 0
    for name, rows, want in fixtures:
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src", "flashware"))
            os.makedirs(os.path.join(root, "docs"))
            with open(os.path.join(root, "src", "flashware", "options.h"),
                      "w", encoding="utf-8") as fh:
                fh.write(options_h)
            with open(os.path.join(root, "docs", "API.md"), "w",
                      encoding="utf-8") as fh:
                fh.write(header + rows)
            got = check_api_doc(root)
        if len(got) != want:
            failures += 1
            print(f"self-test {name}: expected {want} problem(s), got {got}")
    if not failures:
        print("self-test passed: healthy, lagging and stale fixtures")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script's directory)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="check the RuntimeOptions checks against built-in fixtures")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    problems = check_links(args.root) + check_api_doc(args.root)
    for p in problems:
        print(p)
    if not problems:
        print("docs healthy: all markdown links resolve, "
              "RuntimeOptions fully documented")
    return min(len(problems), 99)


if __name__ == "__main__":
    sys.exit(main())
