#!/usr/bin/env bash
# Reachability check: every strong function the libraries define is
# reached by a program, or is on tools/reachability_allowlist.txt with
# the test that needs it.
#
#   tools/reachability.sh [build-dir]    (default: build-reach)
#
# Builds every library and program target (the tcss CLI, every bench and
# example) in a Debug tree, and perfbench's tree from
# perfbench/CMakeLists.txt into <build-dir>/perfbench, all with
# -ffunction-sections -fdata-sections and -Wl,--gc-sections, so a linked
# program keeps exactly the functions it can reach. -O0 keeps call sites
# from being inlined away. The check collects the `T` (strong text)
# symbols of every library under <build-dir>/src, tcss_proptest
# included, and subtracts every symbol of every executable in tools/,
# bench/, examples/ and perfbench/; a new program counts without an edit
# here. The remainder, demangled without parameters (an overload set or
# a constructor's C1/C2 pair is one name), must equal the allowlist:
#   - an unreached name that no entry matches fails;
#   - an entry that matches no unreached name fails, whether a program
#     now reaches it or no library defines it any more.
# Entries are demangled qualified names; only tcss::proptest:: and
# tcss::FaultInjectionEnv:: may be prefix patterns (a trailing `*`).
#
# What it cannot see: inline and template functions (header bodies,
# instantiations) are weak symbols and outside its reach; file-local
# functions are `t` symbols, which -Wunused-function under -Wall already
# reports when unused; a virtual function counts as reached once its
# class's vtable is, whether or not a program calls it.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-reach}"
ALLOWLIST=tools/reachability_allowlist.txt
CMAKE_ARGS=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
            "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
            "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Every library and every program target, never the tests: each
# directory's Makefile builds its own targets and what they link.
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}" > /dev/null
for dir in src tools bench examples; do
  make -C "$BUILD_DIR/$dir" -j "$(nproc)" > /dev/null
done
cmake -B "$BUILD_DIR/perfbench" -S perfbench "${CMAKE_ARGS[@]}" > /dev/null
cmake --build "$BUILD_DIR/perfbench" --target tcss_perfbench \
  -j "$(nproc)" > /dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

nm --defined-only "$BUILD_DIR"/src/*.a |
  awk '$2 == "T" { print $3 }' | sort -u > "$work/lib"
mapfile -t programs < <(find "$BUILD_DIR/tools" "$BUILD_DIR/bench" \
  "$BUILD_DIR/examples" "$BUILD_DIR/perfbench" -maxdepth 1 -type f \
  -perm -u+x | sort)
for p in "${programs[@]}"; do nm --defined-only "$p"; done |
  awk '{ print $NF }' | sort -u > "$work/prog"
comm -23 "$work/lib" "$work/prog" > "$work/unreached"
c++filt -p < "$work/unreached" | sort -u > "$work/unreached_names"
c++filt -p < "$work/lib" | sort -u > "$work/lib_names"

echo "reachability: ${#programs[@]} programs; $(wc -l < "$work/lib")" \
     "strong functions in the libraries, $(wc -l < "$work/unreached")" \
     "reach no program ($(wc -l < "$work/unreached_names") names)"

awk -v allowlist="$ALLOWLIST" -v libnames="$work/lib_names" '
  function matches(pat, name) {
    if (substr(pat, length(pat)) != "*") return name == pat
    return index(name, substr(pat, 1, length(pat) - 1)) == 1
  }
  BEGIN {
    while ((getline line < allowlist) > 0) {
      if (line ~ /^[ \t]*(#|$)/) continue
      n = split(line, f, /[ \t]+/)
      pat[++npat] = f[1]
      if (n < 2) {
        print "allowlist entry without the test that needs it: " f[1]
        bad = 1
      }
      if (f[1] ~ /\*/ && f[1] != "tcss::proptest::*" &&
          f[1] != "tcss::FaultInjectionEnv::*") {
        print "allowlist prefix pattern not allowed: " f[1]
        bad = 1
      }
    }
    while ((getline name < libnames) > 0) lib[name] = 1
  }
  {
    hit = 0
    for (i = 1; i <= npat; i++)
      if (matches(pat[i], $0)) { used[i] = 1; hit = 1 }
    if (!hit) { print "reaches no program and is not allowlisted: " $0; bad = 1 }
  }
  END {
    for (i = 1; i <= npat; i++) {
      if (used[i]) continue
      defined = 0
      for (name in lib) if (matches(pat[i], name)) defined = 1
      if (defined) print "stale allowlist entry, reached by a program: " pat[i]
      else print "stale allowlist entry, defined by no library: " pat[i]
      bad = 1
    }
    exit bad
  }' "$work/unreached_names"
echo "reachability check passed"
