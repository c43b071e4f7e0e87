#!/usr/bin/env bash
# Fails when a crate under crates/ lists a `titanc-*` crate under
# `[dependencies]` that its `src/` never mentions: an edge the crate graph
# carries for nothing, which orders and rebuilds crates for no reason.
# Dev-dependencies are not checked (tests may be their only user). The
# root package holds the repository's integration tests and examples, so
# its `[dependencies]` are checked against `src/`, `tests/` and
# `examples/` together.
#
#   ci/crate-deps-guard.sh [repo root]    (default: .)
#
# Offline and grep-based: a dependency counts as used when those
# directories name its library as a path (`titanc_opt::`) or in a `use`.
set -euo pipefail

cd "${1:-.}"
status=0
check() { # manifest, then the directories that may use its dependencies
  local manifest=$1 deps dep lib
  shift
  deps=$(awk '/^\[/ { in_deps = ($0 == "[dependencies]") } in_deps && /^titanc[-a-z]* *=/ { print $1 }' "$manifest")
  for dep in $deps; do
    lib=${dep//-/_}
    if ! grep -rqE "\\b$lib::|\\buse $lib\\b" "$@"; then
      echo "crate-deps-guard: $manifest depends on $dep, but no file under $* names it" >&2
      status=1
    fi
  done
}
for manifest in crates/*/Cargo.toml; do
  check "$manifest" "${manifest%/Cargo.toml}/src"
done
check Cargo.toml src tests examples
exit $status
