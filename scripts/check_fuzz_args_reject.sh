#!/usr/bin/env bash
# Asserts that mondet-fuzz rejects malformed numeric options cleanly:
# non-numeric, negative, out-of-range and trailing-garbage values of
# --seeds, --seed and --budget-ms must exit 2 with the usage message,
# never abort (exit 134) or silently wrap. Well-formed values of the
# same options must still parse (checked with --list, which exits 0).
#
# Usage: check_fuzz_args_reject.sh <mondet-fuzz>
set -u

fuzz="$1"
status_all=0
for opt in --seeds --seed --budget-ms; do
  for value in abc -1 99999999999999999999 12x "" " 7" +3; do
    out="$("$fuzz" "$opt" "$value" --oracle none 2>&1)"
    status=$?
    if [ "$status" -ne 2 ] || ! printf '%s\n' "$out" | grep -q '^usage:'; then
      echo "$opt '$value': expected exit 2 with usage, got $status" >&2
      echo "$out" >&2
      status_all=1
    fi
  done
done
if ! "$fuzz" --seeds 7 --seed 4294967295 --budget-ms 10 --list > /dev/null; then
  echo "well-formed numeric options were rejected" >&2
  status_all=1
fi
exit "$status_all"
