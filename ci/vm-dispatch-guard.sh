#!/usr/bin/env bash
# Fails when the scalar VM's dispatch loop calls one of its hot helpers out
# of line: IL arithmetic (`titanc_il::fold`), the memory accessors, the
# meter, frame entry and exit, or `vm_enter`. Each such call costs the
# `sim_scalar` workload about a third of its time when the inliner drops it;
# see ROADMAP.md, "Scalar VM dispatch".
#
#   ci/vm-dispatch-guard.sh [path/to/titanc]    (default: target/release/titanc)
#
# Needs `nm` and `objdump` (binutils). A `vm_exec` that cannot be found is a
# failure too, so a rename cannot turn the check into a silent pass.
set -euo pipefail

bin=${1:-target/release/titanc}
sym='titanc_titan::vm::<impl titanc_titan::machine::Simulator>::vm_exec'
line=$(nm -S -C "$bin" | grep -F " $sym" | grep -v -F "$sym::" || true)
if [ "$(printf '%s' "$line" | grep -c .)" -ne 1 ]; then
  echo "vm-dispatch-guard: expected one \`$sym\` in $bin, found:" >&2
  printf '%s\n' "${line:-  (none)}" >&2
  exit 1
fi
read -r addr size _ <<<"$line"
start=$((16#$addr))
stop=$((start + 16#$size))

hot='fold::(eval_(binop|unop|cast)|normalize)>'
hot="$hot|Simulator>?::(load|store|read_mem|write_mem|span|flush|flush_branch|charge|sink|enter_frame|leave_frame|layout)>"
hot="$hot|::vm_enter>"
calls=$(objdump -d -C --no-show-raw-insn --start-address="$start" --stop-address="$stop" "$bin" \
  | grep -E '\scall' || true)
bad=$(printf '%s\n' "$calls" | grep -E "$hot" || true)
if [ -n "$bad" ]; then
  echo "vm-dispatch-guard: vm_exec calls hot helpers out of line:" >&2
  printf '%s\n' "$bad" >&2
  exit 1
fi
echo "vm-dispatch-guard: vm_exec ($((16#$size)) bytes) makes $(printf '%s\n' "$calls" | grep -c .) calls, none to a hot helper"
