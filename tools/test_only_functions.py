#!/usr/bin/env python3
"""Lists the functions defined in src/ that only test binaries reach.

Builds the root project (every test, bench and example) and fi_bench
(benchmark/) at -O0 -g with one section per function, linked with
--gc-sections, so each binary keeps exactly the functions it can reach.
Reads every binary's defined symbols with `nm -C -l --defined-only`, keeps
those whose source line lies in src/, and prints the ones found in some
*_test binary and in no bench, example or fi_bench binary: first those
defined in src/**/*.cc, then, after a blank line, those defined in
src/**/*.h. At -O0 a binary emits every header (inline or template)
function it uses as a weak symbol, so the second list sees them too; it
leaves out constructors, destructors and assignment operators.

    python3 tools/test_only_functions.py [--build-dir DIR]

The list is informational: the script exits 0 whatever it finds, and
non-zero only when a build or nm fails.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
FLAGS = "-O0 -g -ffunction-sections -fdata-sections"
LINK = "-Wl,--gc-sections"
JOBS = os.cpu_count() or 1


def build(source, build_dir, extra):
    subprocess.run(["cmake", "-S", source, "-B", build_dir,
                    f"-DCMAKE_EXE_LINKER_FLAGS={LINK}"] + extra, check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(JOBS)], check=True,
                   stdout=subprocess.DEVNULL)


# A demangled name (its parameter list stripped) that ends in a
# constructor, a destructor or an assignment operator.
SPECIAL = re.compile(r"(?:^|::)(\w+)(?:<.*>)?::\1(?:<.*>)?$|::~\w+(?:<.*>)?$|::operator=$")


def special_member(name):
    """True for a constructor, destructor or assignment operator."""
    depth = 0
    for i in range(len(name) - 1, -1, -1):  # The '(' opening the parameters.
        depth += {")": 1, "(": -1}.get(name[i], 0)
        if depth == 0 and name[i] == "(":
            return bool(SPECIAL.search(name[:i]))
    return False


def src_functions(binary):
    """{demangled name: 'src/...:line'} of the text symbols from src/."""
    out = subprocess.run(["nm", "-C", "-l", "--defined-only", binary], check=True,
                         capture_output=True, text=True).stdout
    funcs = {}
    for line in out.splitlines():
        sym, _, loc = line.partition("\t")
        parts = sym.split(" ", 2)
        if len(parts) < 3 or parts[1] not in ("T", "t", "W", "w"):
            continue
        loc = loc.split(" ")[0]  # Drop a trailing "(discriminator N)".
        path = os.path.normpath(loc.rsplit(":", 1)[0])
        # _GLOBAL__sub_I_* are compiler-made static initializers.
        if path.startswith(SRC) and path.endswith((".cc", ".h")) and \
                not parts[2].startswith("_GLOBAL_"):
            funcs[parts[2]] = os.path.relpath(loc, ROOT)
    return funcs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-reach"))
    args = ap.parse_args()

    root_dir = os.path.join(args.build_dir, "root")
    bench_dir = os.path.join(args.build_dir, "fi_bench")
    build(ROOT, root_dir, ["-DCMAKE_BUILD_TYPE=Debug", f"-DCMAKE_CXX_FLAGS={FLAGS}"])
    # fi_bench forces Release, so its Release flags carry the -O0 -g.
    build(os.path.join(ROOT, "benchmark"), bench_dir,
          [f"-DCMAKE_CXX_FLAGS={FLAGS}", "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -g"])

    binaries = [os.path.join(bench_dir, "fi_bench")] + sorted(
        os.path.join(root_dir, f) for f in os.listdir(root_dir)
        if f.endswith("_test") or f.startswith(("bench_", "example_")))
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        symbols = dict(zip(binaries, pool.map(src_functions, binaries)))

    locs, tests, others = {}, set(), set()
    for binary, funcs in symbols.items():
        locs.update(funcs)
        (tests if os.path.basename(binary).endswith("_test") else others).update(funcs)
    for ext in (".cc", ".h"):
        names = {n for n, loc in locs.items() if loc.split(":")[0].endswith(ext) and
                 not (ext == ".h" and special_member(n))}
        test_only = sorted((locs[n], n) for n in names & tests - others)
        if ext == ".h":
            print()
        for loc, name in test_only:
            print(f"{loc}\t{name}")
        print(f"{len(test_only)} of {len(names)} src/**/*{ext} functions that any of "
              f"{len(binaries)} binaries reaches are reached only by tests", file=sys.stderr)


if __name__ == "__main__":
    main()
