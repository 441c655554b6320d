#!/usr/bin/env python3
"""Link-and-anchor checker for the markdown documentation.

Scans README.md and docs/*.md and fails on:

  * a markdown link whose relative target does not exist;
  * a link with a ``#fragment`` that names no heading in the target file
    (GitHub anchor slugging, duplicate-suffix aware);
  * a backticked file reference (`docs/foo.md`, `tools/bar.py`, ...)
    that resolves against none of the repo roots — the way README
    references docs, docs cross-reference each other, and both point at
    tools, so a rename or deletion anywhere surfaces here;
  * a file in docs/ that docs/README.md (the index) does not mention;
  * a top-level README that has lost its pointer to the docs index;
  * a "Metric taxonomy" table in docs/observability.md whose readings
    (name, order, meaning) differ from the PCW_METRICS list in
    include/pcw/metric_list.h.

Fenced code blocks are skipped entirely: their ``#`` lines are not
headings and their paths (`out.pcw5`, `in.f32`) are placeholders.

Runs as the tier-1 CTest ``docs_links`` and as a CI step. No arguments;
the repo root is derived from this script's location.

Exit code 0 = all references resolve; 1 = any violation (each printed).
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A backticked token is treated as a file reference when it contains a
# path separator and one of the extensions documentation actually links
# to. Tokens with glob or placeholder characters are ignored.
REF_EXTENSIONS = (".md", ".py", ".sh", ".cc", ".h", ".hpp", ".cpp",
                  ".json", ".yml", ".yaml", ".cmake", ".txt")
# Include-style (`pcw/telemetry.h`) and source-style (`sz/lorenzo.cc`)
# references resolve against these roots in addition to the repo root
# and the referencing file's own directory.
SEARCH_ROOTS = ("", "include", "src")
# The one declaration of every metric; the taxonomy table must match it.
METRIC_LIST = "include/pcw/metric_list.h"

PROBLEMS = []


def problem(msg):
    PROBLEMS.append(msg)
    print(f"FAIL: {msg}")


def strip_fences(lines):
    """Yields (lineno, line) for lines outside ``` fenced blocks."""
    fenced = False
    for i, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            yield i, line


def github_anchors(path):
    """The set of anchor slugs GitHub generates for a markdown file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    seen = {}
    anchors = set()
    for _, line in strip_fences(lines):
        m = re.match(r"#{1,6}\s+(.*)", line)
        if not m:
            continue
        text = m.group(1).strip()
        text = re.sub(r"`([^`]*)`", r"\1", text)          # drop code spans
        text = re.sub(r"\[([^]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
        slug = re.sub(r"[^\w\- ]", "", text.lower()).strip()
        slug = re.sub(r" +", "-", slug)
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def resolve(ref, from_dir):
    """First existing path for `ref`, or None."""
    candidates = [os.path.normpath(os.path.join(from_dir, ref))]
    candidates += [os.path.normpath(os.path.join(ROOT, r, ref))
                   for r in SEARCH_ROOTS]
    for c in candidates:
        if os.path.isfile(c):
            return c
    return None


def check_file(path):
    rel = os.path.relpath(path, ROOT)
    from_dir = os.path.dirname(path)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    n_links = n_refs = 0
    for lineno, line in strip_fences(lines):
        # Markdown links: [text](target). Images and external URLs pass.
        for m in re.finditer(r"\[[^]]*\]\(([^)\s]+)\)", line):
            target = m.group(1)
            if re.match(r"[a-z]+:", target):  # http:, https:, mailto:
                continue
            n_links += 1
            fname, _, fragment = target.partition("#")
            dest = path if not fname else resolve(fname, from_dir)
            if dest is None:
                problem(f"{rel}:{lineno}: broken link '{target}'")
                continue
            if fragment and fragment not in github_anchors(dest):
                problem(f"{rel}:{lineno}: link '{target}' names no heading "
                        f"in {os.path.relpath(dest, ROOT)}")
        # Backticked file references.
        for m in re.finditer(r"`([^`\s]+)`", line):
            ref = m.group(1)
            if ("/" not in ref or not ref.endswith(REF_EXTENSIONS)
                    or any(ch in ref for ch in "*?{<>")):
                continue
            n_refs += 1
            if resolve(ref, from_dir) is None:
                problem(f"{rel}:{lineno}: stale file reference `{ref}`")
    print(f"ok: {rel}: {n_links} link(s), {n_refs} file reference(s)")


def metric_list_readings():
    """(name, doc) of every reading PCW_METRICS declares, in list order.

    COUNTER(member, doc) is one reading named member; GAUGE(member,
    value, hiwater, doc) and HISTOGRAM(member, p50, p99, doc) are two,
    named by their second and third arguments, sharing the doc.
    """
    with open(os.path.join(ROOT, METRIC_LIST), encoding="utf-8") as f:
        text = f.read()
    body = text[text.index("#define PCW_METRICS"):].replace("\\\n", " ")
    readings = []
    for m in re.finditer(r'\b(COUNTER|GAUGE|HISTOGRAM)\(([^")]*)"([^"]*)"\)', body):
        kind, args, doc = m.groups()
        names = [a.strip() for a in args.split(",") if a.strip()]
        readings += [(n, doc) for n in (names[:1] if kind == "COUNTER" else names[1:3])]
    return readings


def check_metric_table():
    """The taxonomy table lists exactly the PCW_METRICS readings."""
    declared = metric_list_readings()
    path = os.path.join(ROOT, "docs", "observability.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Metric taxonomy", 1)[-1].split("\n## ", 1)[0]
    documented = [(m.group(1), m.group(2).strip()) for m in re.finditer(
        r"^\| `(\w+)` \|[^|]*\|(.*)\|\s*$", section, re.MULTILINE)]
    names, doc_names = [n for n, _ in declared], [n for n, _ in documented]
    for name in sorted(set(names) - set(doc_names)):
        problem(f"docs/observability.md: metric `{name}` missing from the "
                f"taxonomy table ({METRIC_LIST} declares it)")
    for name in sorted(set(doc_names) - set(names)):
        problem(f"docs/observability.md: taxonomy row `{name}` is not "
                f"declared in {METRIC_LIST}")
    if set(names) == set(doc_names) and names != doc_names:
        problem("docs/observability.md: taxonomy rows are not in "
                f"{METRIC_LIST} order")
    docs = dict(declared)
    for name, meaning in documented:
        if name in docs and meaning != docs[name]:
            problem(f"docs/observability.md: `{name}` reads '{meaning}', "
                    f"{METRIC_LIST} says '{docs[name]}'")
    print(f"ok: docs/observability.md: {len(documented)} metric row(s) "
          f"against {len(declared)} declared")


def main():
    readme = os.path.join(ROOT, "README.md")
    docs_dir = os.path.join(ROOT, "docs")
    index = os.path.join(docs_dir, "README.md")
    pages = sorted(
        os.path.join(docs_dir, f) for f in os.listdir(docs_dir)
        if f.endswith(".md"))

    for path in [readme] + pages:
        check_file(path)
    check_metric_table()

    # Index completeness: every doc page appears in docs/README.md, and
    # the top-level README points readers at the index.
    if not os.path.isfile(index):
        problem("docs/README.md: index missing")
    else:
        with open(index, encoding="utf-8") as f:
            index_text = f.read()
        for page in pages:
            name = os.path.basename(page)
            if name != "README.md" and name not in index_text:
                problem(f"docs/README.md: index does not mention {name}")
    with open(readme, encoding="utf-8") as f:
        if "docs/README.md" not in f.read():
            problem("README.md: no pointer to the docs index docs/README.md")

    if PROBLEMS:
        print(f"\n{len(PROBLEMS)} documentation violation(s)")
        return 1
    print("\nall documentation references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
