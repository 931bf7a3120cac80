#!/usr/bin/env bash
# Asserts that `mondet-fuzz --replay` rejects every `.repro` file in a
# directory cleanly: exit code 2 (a load error, not an abort, which would
# exit 134 or similar) and a line:col position in the message.
#
# Usage: check_replay_rejects.sh <mondet-fuzz> <dir>
set -u

fuzz="$1"
dir="$2"
found=0
for f in "$dir"/*.repro; do
  [ -e "$f" ] || continue
  found=1
  out="$("$fuzz" --replay "$f" 2>&1)"
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "$f: expected exit code 2 (load error), got $status" >&2
    echo "$out" >&2
    exit 1
  fi
  if ! printf '%s\n' "$out" | grep -Eq 'line [0-9]+:[0-9]+'; then
    echo "$f: expected a line:col position in the message" >&2
    echo "$out" >&2
    exit 1
  fi
done
if [ "$found" -eq 0 ]; then
  echo "no .repro files under $dir" >&2
  exit 1
fi
exit 0
