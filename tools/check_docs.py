#!/usr/bin/env python3
"""Docs health check (CI: docs-health).

Three invariants, all cheap and all prone to silent rot:

1. Every intra-repo markdown link resolves to a real file. External links
   (http/https/mailto) and pure anchors are skipped; `#fragment` suffixes
   on file links are stripped before the existence check.

2. Every public field of RuntimeOptions (src/flashware/options.h) is
   mentioned by name in docs/API.md, and every field named in API.md's
   RuntimeOptions table exists in the struct — the runtime-configuration
   reference neither lags the struct nor keeps rows for deleted knobs.

3. Every `--flag` in the usage comment at the top of tools/flash_cli.cc
   appears in the first column of a CLI table in docs/API.md ("Command-line
   driver" section), and every flag in those tables is one flash_cli still
   parses — a deleted flag cannot leave a stale row.

Exit status is the number of problems found (0 = healthy). `--self-test`
runs both directions of (2) and of (3) against a healthy, a lagging and a
stale fixture.
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


FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
# The flags ParseArgs accepts: value("--name=") prefixes and arg == "--name".
PARSED_FLAG_RE = re.compile(r'(?:value\(|arg == )"(--[a-z][a-z0-9-]*)=?"')
CLI_SECTION_RE = re.compile(r"^## .*Command-line driver")


def cli_usage_flags(cli_cc):
    """Flags named in the leading comment block of flash_cli.cc."""
    flags = []
    for line in open(cli_cc, encoding="utf-8"):
        if not line.startswith("//"):
            break
        for flag in FLAG_RE.findall(line):
            if flag not in flags:
                flags.append(flag)
    return flags


def cli_parsed_flags(cli_cc):
    return set(PARSED_FLAG_RE.findall(open(cli_cc, encoding="utf-8").read()))


def api_cli_table_flags(text):
    """Flags in the first column of the tables of API.md's CLI section."""
    flags = []
    in_section = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = bool(CLI_SECTION_RE.match(line))
            continue
        if in_section and line.startswith("|"):
            first = line.split("|")[1]
            for flag in FLAG_RE.findall(first):
                if flag not in flags:
                    flags.append(flag)
    return flags


def check_cli_doc(root):
    cli_cc = os.path.join(root, "tools", "flash_cli.cc")
    api_md = os.path.join(root, "docs", "API.md")
    if not os.path.exists(cli_cc) or not os.path.exists(api_md):
        return ["missing tools/flash_cli.cc or docs/API.md"]
    usage = cli_usage_flags(cli_cc)
    parsed = cli_parsed_flags(cli_cc)
    documented = api_cli_table_flags(open(api_md, encoding="utf-8").read())
    if not usage or not documented:
        return ["could not find flash_cli's usage flags or API.md's CLI "
                "tables"]
    problems = []
    for flag in usage:
        if flag not in documented:
            problems.append(
                f"docs/API.md: flash_cli flag `{flag}` has no CLI table row")
    for flag in documented:
        if flag not in parsed:
            problems.append(
                f"docs/API.md: CLI table flag `{flag}` is not a flash_cli "
                "flag")
    return problems


def run_fixture(files, check):
    """Writes `files` ({relative path: text}) under a temporary root and
    returns check(root)."""
    with tempfile.TemporaryDirectory() as root:
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return check(root)


def self_test():
    """Runs check_api_doc and check_cli_doc on fixtures; returns the number
    of failures."""
    options_h = ("struct RuntimeOptions {\n  int alpha = 1;\n"
                 "  bool beta = true;\n};\n")
    header = "| Field | Default | Meaning |\n|---|---|---|\n"
    cli_cc = ("//   --alpha=N   a\n//   --beta      b\n\n"
              'if ((v = value("--alpha="))) {} else if (arg == "--beta") {}\n')
    cli_md = "## 12. Command-line driver (flash_cli)\n\n| Flag | Meaning |\n"
    fixtures = [
        ("options healthy", check_api_doc,
         "| `alpha` | 1 | A. |\n| `beta` | `true` | B. |\n", 0),
        ("options lagging", check_api_doc, "| `alpha` | 1 | A. |\n", 1),
        ("options stale", check_api_doc,
         "| `alpha` | 1 | A. |\n| `beta` | `true` | B. |\n"
         "| `gamma` | 0 | Deleted knob. |\n", 1),
        ("flags healthy", check_cli_doc,
         "| `--alpha=N` | A. |\n| `--beta` | B. |\n", 0),
        ("flags lagging", check_cli_doc, "| `--alpha=N` | A. |\n", 1),
        ("flags stale", check_cli_doc,
         "| `--alpha=N` / `--beta` | A, B. |\n"
         "| `--gamma=C` | Deleted flag. |\n", 1),
    ]
    failures = 0
    for name, check, rows, want in fixtures:
        api = header + rows if check is check_api_doc else cli_md + rows
        got = run_fixture({"src/flashware/options.h": options_h,
                           "tools/flash_cli.cc": cli_cc,
                           "docs/API.md": api}, check)
        if len(got) != want:
            failures += 1
            print(f"self-test {name}: expected {want} problem(s), got {got}")
    if not failures:
        print("self-test passed: healthy, lagging and stale fixtures for "
              "RuntimeOptions and CLI flags")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script's directory)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="check the RuntimeOptions and CLI checks against built-in "
        "fixtures")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    problems = (check_links(args.root) + check_api_doc(args.root) +
                check_cli_doc(args.root))
    for p in problems:
        print(p)
    if not problems:
        print("docs healthy: all markdown links resolve, "
              "RuntimeOptions and flash_cli flags fully documented")
    return min(len(problems), 99)


if __name__ == "__main__":
    sys.exit(main())
