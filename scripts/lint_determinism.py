#!/usr/bin/env python3
"""Determinism linter: machine-checks the invariants every PR relies on.

Every published result of this reproduction depends on sessions being
bit-identical across thread counts, fidelity modes, and checkpoint resume.
That property rests on a handful of coding conventions (fork-before-
dispatch, never copy an Rng, never draw inside unordered-container
iteration, no wall-clock in library code). This linter turns those
conventions into named, suppressible rules so a refactor that breaks one
fails in CI instead of surfacing as a golden-trace diff three PRs later.

Usage:
    lint_determinism.py [--root DIR] [PATHS...]   lint files/dirs (default:
                                                  src bench tests examples,
                                                  minus tests/lint_fixtures)
    lint_determinism.py --self-test FIXTURE_DIR   run the fixture suite
    lint_determinism.py --list-rules              print the rule table

Suppression syntax (same line or the line directly above):
    // lint:allow <rule-name>: <one-line justification>
The justification is mandatory; a bare `lint:allow` is itself a finding
(rule `suppression-justified`), as is a clang-tidy NOLINT without a reason.

Exit codes: 0 clean, 1 findings (or self-test mismatch), 2 usage error.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Rule table. `scope` is a path-prefix filter (POSIX-style, relative to the
# repo root); `allow` lists files exempt by design (an entry ending in "/"
# exempts the whole directory). Keep this table in sync with the "Static
# analysis & enforced invariants" section of src/README.md.

RULES = {
    "wall-clock": {
        "desc": "no wall-clock reads in library code (src/); timing belongs "
                "to the bench drivers and the supervisor watchdog",
        "scope": ["src/"],
        "allow": ["src/util/supervisor.cc", "src/util/supervisor.h"],
    },
    "std-random": {
        "desc": "no std::rand/std::random_device/std::mt19937 anywhere; all "
                "randomness flows through util::Rng so a single 64-bit seed "
                "reproduces every experiment on every platform",
        "scope": ["src/", "bench/", "tests/", "examples/"],
        "allow": [],
    },
    "rng-by-value": {
        "desc": "util::Rng must not be taken by value or copy-initialized "
                "from another Rng; pass Rng&, fork() a child stream, or use "
                "the explicit duplicate() for deliberate peek copies",
        "scope": ["src/", "bench/", "tests/", "examples/"],
        "allow": [],
    },
    "fork-label-pure": {
        "desc": "fork() labels must be pure expressions (literals, "
                "constants, loop indices); a function call in a label can "
                "draw from the stream or read ambient state, making the "
                "child stream schedule-dependent",
        "scope": ["src/", "bench/", "tests/", "examples/"],
        "allow": [],
    },
    "unordered-iteration-draws": {
        "desc": "no RNG draws or stat accumulation inside iteration over "
                "unordered containers; iteration order is unspecified, so "
                "draw order (and thus every downstream byte) would depend "
                "on hash seeding and load factors",
        "scope": ["src/", "bench/", "tests/", "examples/"],
        "allow": [],
    },
    "float-equal": {
        "desc": "no raw float ==/!= against literals in sim/ and phy/; "
                "compare against a tolerance or restructure around exact "
                "integer state",
        "scope": ["src/sim/", "src/phy/"],
        "allow": [],
    },
    "no-stdio-library": {
        "desc": "no printf-family or iostream output from library code; "
                "results flow through return values so drivers own the "
                "(byte-compared) output channels",
        "scope": ["src/"],
        "allow": ["src/util/cli.cc"],
    },
    "no-file-io-library": {
        "desc": "no direct file I/O from library code; the checkpoint and "
                "trace writers are the only owners of on-disk artifacts "
                "(versioned, CRC-sealed, atomic tmp+rename), so a stray "
                "fopen cannot introduce an unversioned side channel",
        "scope": ["src/"],
        "allow": ["src/util/checkpoint.cc", "src/util/trace.cc"],
    },
    "no-raw-intrinsics": {
        "desc": "no vendor SIMD intrinsics (immintrin/arm_neon headers, "
                "_mm*/v*q_f64 calls, __m256d/float64x2_t types) outside "
                "src/linalg/simd/; lane-parallel code must go through the "
                "linalg::simd batch kernels so the byte-identity contract "
                "against linalg/mat.cc stays enforceable in one place",
        "scope": ["src/", "bench/", "tests/", "examples/"],
        "allow": ["src/linalg/simd/"],
    },
    "suppression-justified": {
        "desc": "every lint:allow and every clang-tidy NOLINT carries a "
                "one-line justification after the rule name",
        "scope": ["src/", "bench/", "tests/", "examples/", "scripts/"],
        "allow": [],
    },
}

SOURCE_EXT = {".cc", ".h", ".cpp", ".hpp", ".inc"}


# --------------------------------------------------------------------------
# Lexing: split each physical line into (code, comment) with string and char
# literal contents blanked out of the code part, so rule regexes never match
# inside strings and suppression scanning never matches inside code.

def mask_lines(text):
    """Return a list of (code, comment) per line."""
    out = []
    in_block = False
    for raw in text.splitlines():
        code = []
        comment = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    comment.append(raw[i:])
                    i = n
                else:
                    comment.append(raw[i:end])
                    code.append(" " * (end + 2 - i))
                    i = end + 2
                    in_block = False
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "/":
                comment.append(raw[i + 2:])
                i = n
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                code.append("  ")
                i += 2
                continue
            if c in "\"'":
                quote = c
                code.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        code.append("  ")
                        i += 2
                        continue
                    if raw[i] == quote:
                        code.append(quote)
                        i += 1
                        break
                    code.append(" ")
                    i += 1
                continue
            code.append(c)
            i += 1
        out.append(("".join(code), " ".join(comment)))
    return out


# --------------------------------------------------------------------------
# Individual rules. Each returns a list of (line_number, message) with
# 1-based line numbers.

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(?:steady|system|high_resolution)_clock"),
     "std::chrono clock read"),
    (re.compile(r"(?<![A-Za-z0-9_])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() call"),
    (re.compile(r"(?<![A-Za-z0-9_])clock\s*\(\s*\)"), "clock() call"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "wall-clock syscall"),
]

STD_RANDOM_PATTERNS = [
    (re.compile(r"std::rand\b"), "std::rand"),
    (re.compile(r"(?<![A-Za-z0-9_:.])s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\brandom_shuffle\b"), "std::random_shuffle"),
]

DRAW_METHODS = (r"uniform|uniform_int|gaussian|cgaussian|phase|exponential"
                r"|bernoulli|shuffle|sample_without_replacement|fork|next")


def rule_pattern_scan(masked, patterns, what):
    findings = []
    for ln, (code, _) in enumerate(masked, 1):
        for pat, msg in patterns:
            if pat.search(code):
                findings.append((ln, f"{msg} ({what})"))
    return findings


RNG_PARAM = re.compile(
    r"[(,]\s*(?:const\s+)?(?:nplus::)?(?:util::)?Rng\s+\w+\s*[,)=]")
RNG_COPY_INIT = re.compile(
    r"\bRng\s+\w+\s*=\s*[A-Za-z_][A-Za-z0-9_.\[\]>-]*\s*;")


def rule_rng_by_value(masked):
    findings = []
    for ln, (code, _) in enumerate(masked, 1):
        m = RNG_PARAM.search(code)
        if m and "=" not in m.group(0):
            findings.append(
                (ln, "util::Rng passed by value; take Rng& or fork a child "
                     "stream before the call"))
            continue
        if RNG_COPY_INIT.search(code):
            findings.append(
                (ln, "util::Rng copy-initialized from another Rng; use "
                     "fork(label) for an independent stream or duplicate() "
                     "for a deliberate peek copy"))
    return findings


STATIC_CAST = re.compile(r"static_cast\s*<[^<>]*>\s*\(")
CALL_IN_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\s*\(")


def rule_fork_label_pure(masked):
    # Join the masked code so fork arguments spanning lines still parse;
    # keep a map from character offset to line number.
    code_join = []
    line_of = []
    for ln, (code, _) in enumerate(masked, 1):
        code_join.append(code)
        line_of.extend([ln] * (len(code) + 1))
    text = "\n".join(code_join)

    findings = []
    for m in re.finditer(r"\bfork\s*\(", text):
        start = m.end()
        depth = 1
        i = start
        while i < len(text) and depth > 0:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        label = text[start:i - 1]
        # static_cast<T>(x) is the one permitted call-shaped wrapper: it
        # cannot draw or read ambient state.
        stripped = STATIC_CAST.sub("", label)
        if CALL_IN_LABEL.search(stripped):
            findings.append(
                (line_of[m.start()],
                 f"fork() label '{label.strip()}' contains a function "
                 "call; labels must be pure expressions over literals, "
                 "constants, and indices"))
    return findings


# Matches local/member/parameter declarations, including references; the
# template argument list may nest one level (e.g. unordered_map<K, pair<A,B>>).
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*"
    r"<(?:[^;{<>]|<[^;{<>]*>)*>\s*&?\s*(\w+)\s*[;{=(,)]")
STATS_DECL = re.compile(r"\b(?:RunningStats|Histogram)\s+(\w+)\s*[;{=(]")
DRAW_CALL = re.compile(r"[.>]\s*(?:" + DRAW_METHODS + r")\s*\(")


def rule_unordered_iteration(masked):
    unordered = set()
    stats = set()
    for code, _ in masked:
        for m in UNORDERED_DECL.finditer(code):
            unordered.add(m.group(1))
        for m in STATS_DECL.finditer(code):
            stats.add(m.group(1))
    if not unordered:
        return []

    code_join = []
    line_starts = []
    pos = 0
    for code, _ in masked:
        line_starts.append(pos)
        code_join.append(code)
        pos += len(code) + 1
    text = "\n".join(code_join)

    def line_at(off):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= off:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    findings = []
    loop_heads = []
    # Range-for over an unordered container, or an iterator loop on its
    # .begin(). Loop heads are extracted with explicit paren balancing so
    # iterator heads (which contain ';' and nested calls) parse too.
    for m in re.finditer(r"\bfor\s*\(", text):
        depth = 1
        i = m.end()
        while i < len(text) and depth > 0:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        head = text[m.end():i - 1]
        body_open = i
        while body_open < len(text) and text[body_open] in " \t\n":
            body_open += 1
        rm = re.search(r":\s*\*?([A-Za-z_][A-Za-z0-9_]*)\s*$", head)
        im = re.search(r"=\s*([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*begin\s*\(", head)
        name = rm.group(1) if rm else (im.group(1) if im else None)
        if name in unordered and body_open < len(text):
            loop_heads.append(body_open)

    for body_start in loop_heads:
        i = body_start
        if text[i] == "{":
            depth = 0
            while i < len(text):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
        else:
            # Braceless single-statement body: scan to the terminating ';'
            # at paren depth zero (a draw fits in one statement just fine).
            depth = 0
            while i < len(text):
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                elif text[i] == ";" and depth == 0:
                    break
                i += 1
        body = text[body_start:i]
        for dm in DRAW_CALL.finditer(body):
            findings.append(
                (line_at(body_start + dm.start()),
                 "RNG draw inside unordered-container iteration; "
                 "iteration order is unspecified, so the draw sequence "
                 "becomes platform/hash dependent"))
        for sm in re.finditer(r"(\w+)\s*\.\s*add\s*\(", body):
            if sm.group(1) in stats:
                findings.append(
                    (line_at(body_start + sm.start()),
                     "stat accumulation inside unordered-container "
                     "iteration; accumulation order is unspecified and "
                     "floating-point addition is not associative"))
    return findings


FLOAT_LIT = (r"[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?[fF]?"
             r"|\.[0-9]+(?:[eE][-+]?[0-9]+)?[fF]?"
             r"|[0-9]+[eE][-+]?[0-9]+[fF]?")
FLOAT_EQ = re.compile(
    r"[=!]=\s*[-+]?(?:" + FLOAT_LIT + r")(?![0-9.])|"
    r"(?:" + FLOAT_LIT + r")\s*[=!]=")


def rule_float_equal(masked):
    findings = []
    for ln, (code, _) in enumerate(masked, 1):
        # Skip preprocessor lines (version checks and the like).
        if code.lstrip().startswith("#"):
            continue
        if FLOAT_EQ.search(code):
            findings.append(
                (ln, "exact ==/!= against a floating-point literal; use a "
                     "tolerance or integer state"))
    return findings


STDIO_PATTERNS = [
    (re.compile(r"(?<![A-Za-z0-9_])(?:printf|fprintf|sprintf|snprintf|puts"
                r"|fputs|putchar|putc)\s*\("), "printf-family call"),
    (re.compile(r"std::(?:cout|cerr|clog)\b"), "iostream write"),
]

FILE_IO_PATTERNS = [
    (re.compile(r"(?<![A-Za-z0-9_])(?:std::)?(?:fopen|freopen|tmpfile)"
                r"\s*\("), "file open"),
    # fprintf/fputs are already no-stdio-library findings; this rule owns
    # the byte-level FILE* accessors.
    (re.compile(r"(?<![A-Za-z0-9_])(?:std::)?(?:fread|fwrite|fgets|fscanf)"
                r"\s*\("), "FILE* read/write"),
    (re.compile(r"std::(?:basic_)?[io]?fstream\b"), "fstream"),
    (re.compile(r"std::filesystem::"), "std::filesystem call"),
]

RAW_INTRINSICS_PATTERNS = [
    (re.compile(r'#\s*include\s*[<"][^<">]*'
                r"(?:immintrin|x86intrin|xmmintrin|emmintrin|pmmintrin"
                r"|tmmintrin|smmintrin|nmmintrin|wmmintrin|avxintrin"
                r"|avx2intrin|arm_neon|arm_sve)\.h"),
     "vendor intrinsic header include"),
    (re.compile(r"\b_mm\d*_[a-z0-9_]+\s*\("), "x86 SIMD intrinsic call"),
    (re.compile(r"\bv[a-z][a-z0-9_]*q_[fsu](?:8|16|32|64)\s*\("),
     "NEON intrinsic call"),
    (re.compile(r"\b(?:__m(?:128|256|512)[di]?"
                r"|(?:float|int|uint)(?:8|16|32|64)x\d+(?:x\d+)?_t)\b"),
     "SIMD vector type"),
]

ALLOW_RE = re.compile(r"lint:allow\s+([A-Za-z0-9-]+)\s*(:?)\s*(.*)")
NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\s*(?:\([^)]*\))?(.*)")


def rule_suppression_justified(masked):
    findings = []
    for ln, (_, comment) in enumerate(masked, 1):
        m = ALLOW_RE.search(comment)
        if m:
            if m.group(1) not in RULES:
                findings.append(
                    (ln, f"lint:allow names unknown rule '{m.group(1)}'"))
            elif m.group(2) != ":" or not m.group(3).strip():
                findings.append(
                    (ln, "lint:allow without a justification; write "
                         "'lint:allow <rule>: <reason>'"))
            continue
        if "NOLINT" in comment:
            nm = NOLINT_RE.search(comment)
            tail = nm.group(1) if nm else ""
            # The justification must be introduced by ':' or '--' so stray
            # trailing words can't pass as one.
            if not re.match(r"\s*(?::|--|—)\s*\S", tail):
                findings.append(
                    (ln, "NOLINT without a justification; write "
                         "'NOLINT(<checks>): <reason>'"))
    return findings


def run_rules(rel_path, text):
    """All findings for one file as (line, rule, message), pre-suppression."""
    masked = mask_lines(text)
    findings = []

    def in_scope(rule):
        spec = RULES[rule]
        for a in spec["allow"]:
            if rel_path == a or (a.endswith("/") and rel_path.startswith(a)):
                return False
        return any(rel_path.startswith(p) for p in spec["scope"])

    if in_scope("wall-clock"):
        for ln, msg in rule_pattern_scan(masked, WALL_CLOCK_PATTERNS,
                                         "wall-clock in library code"):
            findings.append((ln, "wall-clock", msg))
    if in_scope("std-random"):
        for ln, msg in rule_pattern_scan(masked, STD_RANDOM_PATTERNS,
                                         "use util::Rng"):
            findings.append((ln, "std-random", msg))
    if in_scope("rng-by-value"):
        for ln, msg in rule_rng_by_value(masked):
            findings.append((ln, "rng-by-value", msg))
    if in_scope("fork-label-pure"):
        for ln, msg in rule_fork_label_pure(masked):
            findings.append((ln, "fork-label-pure", msg))
    if in_scope("unordered-iteration-draws"):
        for ln, msg in rule_unordered_iteration(masked):
            findings.append((ln, "unordered-iteration-draws", msg))
    if in_scope("float-equal"):
        for ln, msg in rule_float_equal(masked):
            findings.append((ln, "float-equal", msg))
    if in_scope("no-stdio-library"):
        for ln, msg in rule_pattern_scan(masked, STDIO_PATTERNS,
                                         "library code must not print"):
            findings.append((ln, "no-stdio-library", msg))
    if in_scope("no-file-io-library"):
        for ln, msg in rule_pattern_scan(
                masked, FILE_IO_PATTERNS,
                "only the checkpoint/trace writers touch disk"):
            findings.append((ln, "no-file-io-library", msg))
    if in_scope("no-raw-intrinsics"):
        for ln, msg in rule_pattern_scan(masked, RAW_INTRINSICS_PATTERNS,
                                         "use the linalg::simd batch "
                                         "kernels"):
            findings.append((ln, "no-raw-intrinsics", msg))
    if in_scope("suppression-justified"):
        for ln, msg in rule_suppression_justified(masked):
            findings.append((ln, "suppression-justified", msg))

    # Apply suppressions: `lint:allow <rule>: reason` on the finding's line
    # or the line directly above it.
    allowed = {}
    for ln, (_, comment) in enumerate(masked, 1):
        m = ALLOW_RE.search(comment)
        if m and m.group(2) == ":" and m.group(3).strip():
            allowed.setdefault(m.group(1), set()).update({ln, ln + 1})

    kept = [(ln, rule, msg) for (ln, rule, msg) in findings
            if rule == "suppression-justified"
            or ln not in allowed.get(rule, set())]
    return sorted(kept)


# --------------------------------------------------------------------------
# Driver

def collect_files(root, paths):
    files = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            files.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            if rel_dir.startswith("tests/lint_fixtures"):
                dirnames[:] = []
                continue
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in SOURCE_EXT:
                    files.append(f"{rel_dir}/{fn}")
    return files


def lint_tree(root, paths):
    n_findings = 0
    for rel in collect_files(root, paths):
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        for ln, rule, msg in run_rules(rel, text):
            print(f"{rel}:{ln}: [{rule}] {msg}")
            n_findings += 1
    if n_findings:
        print(f"\n{n_findings} finding(s). Suppress a deliberate exception "
              "with '// lint:allow <rule>: <reason>'.", file=sys.stderr)
        return 1
    return 0


LINT_PATH_RE = re.compile(r"LINT-PATH:\s*(\S+)")
EXPECT_RE = re.compile(r"EXPECT:\s*([A-Za-z0-9-]+)")


def self_test(fixture_dir):
    """Each fixture declares its virtual repo path (`// LINT-PATH: ...`) and
    annotates every line the linter must flag (`// EXPECT: rule`). The suite
    fails on any missed or spurious finding, so the rules themselves are
    regression-tested."""
    failures = 0
    n_files = 0
    n_expected = 0
    for fn in sorted(os.listdir(fixture_dir)):
        if os.path.splitext(fn)[1] not in SOURCE_EXT:
            continue
        n_files += 1
        path = os.path.join(fixture_dir, fn)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        pm = LINT_PATH_RE.search(text)
        if not pm:
            print(f"{fn}: missing '// LINT-PATH: <virtual path>' directive")
            failures += 1
            continue
        virtual = pm.group(1)
        expected = set()
        for ln, line in enumerate(text.splitlines(), 1):
            for em in EXPECT_RE.finditer(line):
                expected.add((ln, em.group(1)))
        n_expected += len(expected)
        actual = {(ln, rule) for ln, rule, _ in run_rules(virtual, text)}
        for ln, rule in sorted(expected - actual):
            print(f"{fn}:{ln}: MISSED expected finding [{rule}]")
            failures += 1
        for ln, rule in sorted(actual - expected):
            print(f"{fn}:{ln}: SPURIOUS finding [{rule}]")
            failures += 1
    if failures:
        print(f"\nself-test FAILED: {failures} mismatch(es) over "
              f"{n_files} fixtures")
        return 1
    print(f"self-test passed: {n_files} fixtures, {n_expected} expected "
          "findings all matched, no spurious findings")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="determinism linter (see module docstring)")
    ap.add_argument("paths", nargs="*",
                    default=["src", "bench", "tests", "examples"])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--self-test", metavar="FIXTURE_DIR",
                    help="run the fixture suite instead of linting")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for name, spec in RULES.items():
            scope = " ".join(spec["scope"])
            print(f"{name:<{width}}  [{scope}]  {spec['desc']}")
        return 0
    if args.self_test:
        return self_test(args.self_test)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths if args.paths else ["src", "bench", "tests",
                                           "examples"]
    return lint_tree(root, paths)


if __name__ == "__main__":
    sys.exit(main())
