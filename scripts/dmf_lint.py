#!/usr/bin/env python3
"""dmf_lint: project-invariant linter for the dmf codebase.

Enforces the invariants the compiler cannot see — the determinism and
API contracts documented in README "Static analysis & concurrency
contracts":

  nondeterministic-rng   No rand()/srand(), std::random_device, or
                         time()-seeded randomness in deterministic
                         solver paths. Engine results must be a pure
                         function of (graph, query, seed); entropy from
                         the environment breaks bitwise replay.
  unordered-iteration    No iteration over std::unordered_{map,set} in
                         deterministic solver paths. Iteration order
                         depends on libstdc++ internals and the hash
                         seed; any order-dependent fold over it is a
                         nondeterminism bug. Keyed lookups are fine.
  require-not-assert     API boundaries use DMF_REQUIRE (always on,
                         throws) or DMF_ASSERT, never C assert(): a
                         Release build silently compiles assert() away
                         and ships the unchecked path.
  naked-thread           std::thread is confined to the session and
                         serve layers. Everything else must go through
                         the WorkerPool so shutdown, accounting, and
                         determinism contracts hold.
  unguarded-field        Heuristic backstop for clang's Thread Safety
                         Analysis (the real enforcement, in the lint CI
                         job): a member declared DMF_GUARDED_BY(mu) is
                         only touched by functions that visibly hold or
                         require `mu` in the same file.
  layering               Files under src/graph/ and src/util/ include
                         only graph/, util/ and system headers. They are
                         the foundation every other layer builds on;
                         an include upward (say lsst/ or engine/) makes
                         a dependency cycle and drags a higher layer's
                         decisions into the snapshot.
  graph-twin             A header in src/ must not declare one function
                         name with both a `const Graph&` and a
                         `const CsrGraph&` first parameter. Such a Graph
                         form only packs a CSR and forwards; its caller
                         packs once (`const CsrGraph csr(g);`) instead,
                         so every pack is visible where it is paid.

Suppression: append `// dmf-lint: allow(rule-name) <justification>` to
the offending line, or put it alone on the previous line.

Usage:
  scripts/dmf_lint.py                 lint src/ under the repo root
  scripts/dmf_lint.py FILE...         lint specific files
  scripts/dmf_lint.py --diff [REF]    lint only files changed vs REF
                                      (default: HEAD)
  scripts/dmf_lint.py --self-test     run the fixture corpus in
                                      scripts/lint_fixtures/

Exit status: 0 clean, 1 findings, 2 usage/internal error.

No dependencies beyond the Python 3 standard library.
"""

import argparse
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose results must be a pure function of (graph, query,
# seed). The engine/serve layers may use wall clocks and threads; these
# may not.
SOLVER_DIRS = (
    "src/maxflow",
    "src/capprox",
    "src/cluster",
    "src/congest",
    "src/jtree",
    "src/graph",
    "src/baselines",
    "src/lsst",
    "src/sparsify",
)

# Files allowed to own std::thread. Everyone else submits work through
# the WorkerPool so shutdown and accounting stay centralized.
THREAD_OWNERS = (
    "src/engine/session",
    "src/serve/",
)

# Foundation layers and the only project headers they may include.
LOWER_LAYERS = ("src/graph/", "src/util/")
LOWER_LAYER_INCLUDES = ("graph/", "util/")

# Every rule above; --self-test fails when one has no expected finding
# in the fixture corpus, so a rule cannot ship untested.
RULES = (
    "nondeterministic-rng",
    "unordered-iteration",
    "require-not-assert",
    "naked-thread",
    "unguarded-field",
    "layering",
    "graph-twin",
)

SUPPRESS_RE = re.compile(r"//\s*dmf-lint:\s*allow\(([a-z\-, ]+)\)")
FIXTURE_PATH_RE = re.compile(r"//\s*dmf-lint-fixture-path:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z\-]+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so line numbers survive. Suppression/expectation comments
    must be harvested from the raw text before calling this."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated; recover
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def collect_suppressions(raw_lines):
    """Line number -> set of suppressed rule names. A suppression on a
    line that holds only the comment applies to the next line."""
    suppressed = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        target = idx
        if line.strip().startswith("//"):  # comment-only line: next line
            target = idx + 1
        suppressed.setdefault(target, set()).update(rules)
        suppressed.setdefault(idx, set()).update(rules)
    return suppressed


def in_solver_dir(relpath):
    p = relpath.replace(os.sep, "/")
    return any(p.startswith(d + "/") or p == d for d in SOLVER_DIRS)


def is_header(relpath):
    return relpath.endswith(".h") or relpath.endswith(".hpp")


# --- rule implementations ----------------------------------------------------

RNG_PATTERNS = (
    (re.compile(r"(?<!_)\bs?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()-seeded randomness"),
)


def check_rng(relpath, code_lines, findings):
    if not in_solver_dir(relpath):
        return
    for idx, line in enumerate(code_lines, start=1):
        for pat, what in RNG_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    relpath, idx, "nondeterministic-rng",
                    f"{what} in a deterministic solver path; derive "
                    "randomness from the engine seed (util/rng.h)"))


UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<")


def unordered_variable_names(code):
    """Names declared in this file with an unordered container type
    (members and locals alike — matching is purely syntactic)."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        # Walk the template argument list to its closing '>'.
        i = m.end() - 1
        depth = 0
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = code[i + 1:i + 160]
        dm = re.match(r"[&\s]*(\w+)\s*[;={(\[]", tail)
        if dm and dm.group(1) not in ("const", "constexpr", "operator"):
            names.add(dm.group(1))
    return names


def check_unordered_iteration(relpath, code, code_lines, findings):
    if not in_solver_dir(relpath):
        return
    names = unordered_variable_names(code)
    if not names:
        return
    alt = "|".join(re.escape(n) for n in sorted(names))
    range_for = re.compile(r"for\s*\([^;)]*:\s*(?:this->)?(" + alt + r")\b")
    begin_call = re.compile(
        r"\b(" + alt + r")\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(")
    for idx, line in enumerate(code_lines, start=1):
        m = range_for.search(line) or begin_call.search(line)
        if m:
            findings.append(Finding(
                relpath, idx, "unordered-iteration",
                f"iteration over unordered container '{m.group(1)}' in a "
                "deterministic solver path; iteration order is "
                "hash-seed-dependent — use std::map/std::vector or sort "
                "the keys first"))


ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")


def check_assert(relpath, code_lines, findings):
    if not is_header(relpath):
        return
    for idx, line in enumerate(code_lines, start=1):
        if "static_assert" in line:
            stripped = re.sub(r"\bstatic_assert\b", "", line)
        else:
            stripped = line
        if ASSERT_RE.search(stripped):
            findings.append(Finding(
                relpath, idx, "require-not-assert",
                "C assert() at an API boundary; use DMF_REQUIRE (always "
                "on, throws RequirementError) or DMF_ASSERT "
                "(util/require.h)"))


THREAD_RE = re.compile(r"\bstd::thread\b")


def check_naked_thread(relpath, code_lines, findings):
    p = relpath.replace(os.sep, "/")
    if any(p.startswith(owner) for owner in THREAD_OWNERS):
        return
    if not p.startswith("src/"):
        return
    for idx, line in enumerate(code_lines, start=1):
        if THREAD_RE.search(line):
            findings.append(Finding(
                relpath, idx, "naked-thread",
                "std::thread outside the session/serve layers; submit "
                "work through the WorkerPool so shutdown and accounting "
                "contracts hold"))


GUARDED_BY_RE = re.compile(
    r"\b(\w+)\s+DMF_GUARDED_BY\s*\(\s*([A-Za-z_][\w.>\-]*)\s*\)")
CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:DMF_\w+\s*(?:\([^)]*\))?\s*)?"
                      r"(?:\w+::)*(\w+)")
FUNC_RE = re.compile(
    r"(~?\w+)\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)\s*"
    r"((?:const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+|"
    r"DMF_\w+\s*(?:\([^)]*\))?|\s)*)\{")


def preceded_by_initializer_list(code, start):
    """True when the match at `start` is really the last entry of a
    constructor's member-initializer list (`: a(x), b(y) {`), which
    would otherwise parse as a function named after the last member."""
    j = start - 1
    while j >= 0 and code[j].isspace():
        j -= 1
    if j < 0:
        return False
    if code[j] == ",":
        return True
    if code[j] == ":":
        k = j - 1
        while k >= 0 and code[k].isspace():
            k -= 1
        # `Ctor(...) :` — init list. `public:` etc. end in a letter.
        return k >= 0 and code[k] == ")"
    return False


def function_bodies(code):
    """Yield (name, signature_annotations, body, body_start_line) for
    every brace-delimited function-looking region. Light tokenization:
    good enough for the files this repo contains; clang TSA is the
    authoritative check."""
    for m in FUNC_RE.finditer(code):
        name = m.group(1)
        if preceded_by_initializer_list(code, m.start()):
            continue
        open_brace = m.end() - 1
        depth = 0
        i = open_brace
        while i < len(code):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = code[open_brace:i + 1]
        sig = code[m.start():open_brace]
        yield name, sig, body, code.count("\n", 0, open_brace) + 1


CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "alignof", "decltype", "new", "delete"}
NON_TYPE_KEYWORDS = {"return", "co_return", "throw", "delete", "goto",
                     "case", "new"}


def declares_shadowing_local(body, field):
    """True when the body declares its own variable named `field`
    (e.g. `std::shared_ptr<const Serving> serving = ...`): every later
    mention refers to the local, not the guarded member."""
    for m in re.finditer(r"\b(\w+)(?:<[^;{}]*>)?[\s&*]+" +
                         re.escape(field) + r"\s*[=;({\[]", body):
        if m.group(1) not in NON_TYPE_KEYWORDS:
            return True
    return False


def check_unguarded_field(relpath, code, findings):
    guarded = {}  # field name -> mutex expression
    for m in GUARDED_BY_RE.finditer(code):
        guarded[m.group(1)] = m.group(2)
    if not guarded:
        return
    type_names = set(CLASS_RE.findall(code))
    for name, sig, body, start_line in function_bodies(code):
        if name in CONTROL_KEYWORDS:
            continue
        bare = name.lstrip("~")
        if bare in type_names:  # constructors/destructors are exempt,
            continue            # matching clang TSA's own rule
        for field, mutex in guarded.items():
            use = re.search(r"(?<![\w.>])" + re.escape(field) + r"\b", body)
            if not use:
                continue
            if declares_shadowing_local(body, field):
                continue
            # The mutex (or a lock/REQUIRES naming it) must be visible in
            # the signature or body. Strips member-access sugar so
            # `core->version_mutex` satisfies `version_mutex`.
            mutex_leaf = mutex.split("->")[-1].split(".")[-1]
            if re.search(r"\b" + re.escape(mutex_leaf) + r"\b", sig + body):
                continue
            line = start_line + body.count("\n", 0, use.start())
            findings.append(Finding(
                relpath, line, "unguarded-field",
                f"'{field}' is DMF_GUARDED_BY({mutex}) but this function "
                f"neither locks nor requires '{mutex}'; take a MutexLock "
                "or annotate with DMF_REQUIRES"))
            break  # one finding per function is enough signal


INCLUDE_DIRECTIVE_RE = re.compile(r"^\s*#\s*include\b")
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def check_layering(relpath, raw_lines, code_lines, findings):
    p = relpath.replace(os.sep, "/")
    if not p.startswith(LOWER_LAYERS):
        return
    for idx, (raw, code) in enumerate(zip(raw_lines, code_lines), start=1):
        # The directive must survive comment stripping (a commented-out
        # include is not one); the path comes from the raw line, since
        # stripping blanks string literals.
        if not INCLUDE_DIRECTIVE_RE.match(code):
            continue
        m = QUOTED_INCLUDE_RE.match(raw)
        if m and not m.group(1).startswith(LOWER_LAYER_INCLUDES):
            findings.append(Finding(
                relpath, idx, "layering",
                f"'{m.group(1)}' included from a foundation layer; "
                "src/graph/ and src/util/ may include only graph/, util/ "
                "and system headers — move the code that needs it up a "
                "layer"))


GRAPH_FIRST_PARAM_RE = re.compile(
    r"\b(~?[A-Za-z_]\w*)\s*\(\s*const\s+(?:dmf::)?(Graph|CsrGraph)\s*&")


def check_graph_twin(relpath, code, findings):
    p = relpath.replace(os.sep, "/")
    if not (p.startswith("src/") and is_header(p)):
        return
    forms = {}  # name -> {"Graph" | "CsrGraph": [lines]}
    for m in GRAPH_FIRST_PARAM_RE.finditer(code):
        line = code.count("\n", 0, m.start(1)) + 1
        forms.setdefault(m.group(1), {}).setdefault(m.group(2), []).append(
            line)
    for name, by_type in sorted(forms.items()):
        if "CsrGraph" not in by_type:
            continue
        for line in by_type.get("Graph", []):
            findings.append(Finding(
                relpath, line, "graph-twin",
                f"'{name}' has both a const Graph& and a const CsrGraph& "
                "form; delete the Graph form and let callers pack once "
                "(`const CsrGraph csr(g);`)"))


# --- driver ------------------------------------------------------------------

def lint_text(relpath, raw_text):
    raw_lines = raw_text.splitlines()
    suppressed = collect_suppressions(raw_lines)
    code = strip_comments_and_strings(raw_text)
    code_lines = code.splitlines()
    findings = []
    check_rng(relpath, code_lines, findings)
    check_unordered_iteration(relpath, code, code_lines, findings)
    check_assert(relpath, code_lines, findings)
    check_naked_thread(relpath, code_lines, findings)
    check_unguarded_field(relpath, code, findings)
    check_layering(relpath, raw_lines, code_lines, findings)
    check_graph_twin(relpath, code, findings)
    return [f for f in findings
            if f.rule not in suppressed.get(f.line, set())]


def lint_file(root, relpath):
    try:
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as fh:
            raw = fh.read()
    except OSError as e:
        print(f"dmf_lint: cannot read {relpath}: {e}", file=sys.stderr)
        return []
    return lint_text(relpath, raw)


def default_targets(root):
    out = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for fn in sorted(filenames):
            if fn.endswith((".h", ".hpp", ".cpp", ".cc")):
                out.append(os.path.relpath(os.path.join(dirpath, fn), root))
    return sorted(out)


def diff_targets(root, ref):
    try:
        res = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", ref, "--",
             "src"],
            cwd=root, capture_output=True, text=True, check=True)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"dmf_lint: git diff against '{ref}' failed: {e}",
              file=sys.stderr)
        sys.exit(2)
    return [p for p in res.stdout.splitlines()
            if p.endswith((".h", ".hpp", ".cpp", ".cc"))
            and os.path.exists(os.path.join(root, p))]


def run_self_test(root):
    fixture_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "lint_fixtures")
    fixtures = sorted(fn for fn in os.listdir(fixture_dir)
                      if fn.endswith((".cc", ".cpp", ".h")))
    if not fixtures:
        print("dmf_lint --self-test: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    covered = set()
    for fn in fixtures:
        path = os.path.join(fixture_dir, fn)
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        raw_lines = raw.splitlines()
        pm = FIXTURE_PATH_RE.search(raw)
        if not pm:
            print(f"FAIL {fn}: missing '// dmf-lint-fixture-path:' header")
            failures += 1
            continue
        virtual_path = pm.group(1)
        expected = {}  # line -> rule; expectation names the NEXT line
        for idx, line in enumerate(raw_lines, start=1):
            em = EXPECT_RE.search(line)
            if em:
                target = idx if not line.strip().startswith("//") else idx + 1
                expected[target] = em.group(1)
        got = {(f.line, f.rule) for f in lint_text(virtual_path, raw)}
        want = {(line, rule) for line, rule in expected.items()}
        covered.update(expected.values())
        missing = want - got
        extra = got - want
        if missing or extra:
            failures += 1
            print(f"FAIL {fn} (as {virtual_path})")
            for line, rule in sorted(missing):
                print(f"  expected a [{rule}] finding on line {line}, "
                      "none reported")
            for line, rule in sorted(extra):
                print(f"  unexpected [{rule}] finding on line {line}")
        else:
            label = f"{len(want)} finding(s)" if want else "clean"
            print(f"ok   {fn} (as {virtual_path}): {label}")
    for rule in RULES:
        if rule not in covered:
            failures += 1
            print(f"FAIL [{rule}]: no fixture expects a finding")
    if failures:
        print(f"dmf_lint --self-test: {failures}/{len(fixtures)} fixtures "
              "failed")
        return 1
    print(f"dmf_lint --self-test: all {len(fixtures)} fixtures passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        prog="dmf_lint.py",
        description="Project-invariant linter (determinism, layering, "
                    "lock-discipline conventions).")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: all of src/)")
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--diff", nargs="?", const="HEAD", metavar="REF",
                        help="lint only files changed vs REF "
                             "(default REF: HEAD)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus and exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(run_self_test(args.repo_root))

    root = os.path.abspath(args.repo_root)
    if args.paths:
        targets = [os.path.relpath(os.path.abspath(p), root)
                   for p in args.paths]
    elif args.diff is not None:
        targets = diff_targets(root, args.diff)
    else:
        targets = default_targets(root)

    all_findings = []
    for rel in targets:
        all_findings.extend(lint_file(root, rel))
    for f in all_findings:
        print(f)
    if all_findings:
        print(f"dmf_lint: {len(all_findings)} finding(s) in "
              f"{len(targets)} file(s)", file=sys.stderr)
        sys.exit(1)
    print(f"dmf_lint: clean ({len(targets)} file(s))")


if __name__ == "__main__":
    main()
