#!/usr/bin/env bash
# Checks that each ISA-flagged kernel object exports nothing but its table
# accessor. A weak or unique symbol in such an object (an inline function,
# a template instantiation) merges with the same symbol from objects built
# for other ISAs, and the linker keeps one copy for every caller, possibly
# one encoded for an ISA the CPU lacks.
#
# Usage: isa_symbols.sh NM ACCESSOR=OBJECT...
#   e.g. isa_symbols.sh nm Avx2Table=path/to/simd_lanes.cpp.o
# Fails on, per object:
#   - any weak symbol (W, w, V, v) except DW.ref.__gxx_personality_v0;
#   - any unique global symbol (u);
#   - any global text symbol (T) other than proximity::detail::ACCESSOR();
#   - a missing accessor.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 NM ACCESSOR=OBJECT..." >&2
  exit 2
fi
nm_tool=$1
shift

status=0
for spec in "$@"; do
  accessor="proximity::detail::${spec%%=*}()"
  object=${spec#*=}
  # --defined-only lines are "VALUE TYPE NAME"; -C demangles NAME, which
  # may then contain spaces.
  report=$("$nm_tool" --defined-only -C "$object" | awk -v acc="$accessor" '
    {
      type = $2
      name = $0
      sub(/^[^ ]+ [^ ]+ /, "", name)
    }
    type ~ /^[WwVvu]$/ && name != "DW.ref.__gxx_personality_v0" {
      print "  leaked " type ": " name
    }
    type == "T" && name != acc { print "  extra T: " name }
    type == "T" && name == acc { found = 1 }
    END { if (!found) print "  missing T: " acc }
  ')
  if [[ -n "$report" ]]; then
    echo "FAIL $object"
    echo "$report"
    status=1
  else
    echo "ok   $object (exports only $accessor)"
  fi
done
exit $status
