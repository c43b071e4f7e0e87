#!/usr/bin/env bash
# Fails when a crate under crates/ lists a `titanc-*` crate under
# `[dependencies]` that its `src/` never mentions: an edge the crate graph
# carries for nothing, which orders and rebuilds crates for no reason.
# Dev-dependencies are not checked (tests may be their only user).
#
#   ci/crate-deps-guard.sh [repo root]    (default: .)
#
# Offline and grep-based: a dependency counts as used when `src/` names
# its library as a path (`titanc_opt::`) or in a `use`.
set -euo pipefail

cd "${1:-.}"
status=0
for manifest in crates/*/Cargo.toml; do
  dir=${manifest%/Cargo.toml}
  deps=$(awk '/^\[/ { in_deps = ($0 == "[dependencies]") } in_deps && /^titanc[-a-z]* *=/ { print $1 }' "$manifest")
  for dep in $deps; do
    lib=${dep//-/_}
    if ! grep -rqE "\\b$lib::|\\buse $lib\\b" "$dir/src"; then
      echo "crate-deps-guard: $manifest depends on $dep, which $dir/src never mentions" >&2
      status=1
    fi
  done
done
exit $status
