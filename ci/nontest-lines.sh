#!/usr/bin/env bash
# Prints the non-test line ledger: one line per crate with the lines of
# its `src/**/*.rs`, each file counted up to its first top-level
# `#[cfg(test)]` and `tests.rs` files left out, then the workspace total,
# then the loop passes' figure — `crates/{opt,vector,deps}/src` without
# the `*_reference.rs` oracles — that a simplicity change quotes as its
# net lines.
#
#   ci/nontest-lines.sh [repo root]    (default: .)
set -euo pipefail

cd "${1:-.}"
count() { # the files to count
  awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' "$@"
}
sources() { # the crate directories whose sources count
  find "$@" -name '*.rs' ! -name tests.rs | sort
}
for crate in crates/*/; do
  printf '%-20s %6d\n' "${crate}src" "$(count $(sources "${crate}src"))"
done
printf '%-20s %6d\n' 'crates/*/src' "$(count $(sources crates/*/src))"
loop=$(sources crates/{opt,vector,deps}/src | grep -v '_reference\.rs$')
printf '%-20s %6d\n' 'loop passes' "$(count $loop)"
