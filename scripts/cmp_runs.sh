#!/usr/bin/env bash
# Compare two scripts/byte_runs.sh output trees byte for byte.
#
# Usage: bash scripts/cmp_runs.sh A_DIR B_DIR [SKIP_PATH ...]
#
# Both trees must hold the same files, and every file must hold the same bytes in both,
# except each run's manifest.json (it records its own output path) and the SKIP_PATHs,
# given relative to the tree roots (as `odd/plans.andp`). A SKIP_PATH that neither tree
# holds is an error, so a misspelt declaration cannot pass unseen. Prints every difference
# and exits 1 if there is any.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: bash scripts/cmp_runs.sh A_DIR B_DIR [SKIP_PATH ...]" >&2
  exit 2
fi
a="$1"
b="$2"
shift 2

files() { (cd "$1" && find . -type f ! -name manifest.json | sed 's|^\./||' | LC_ALL=C sort); }

status=0
if ! diff <(files "$a") <(files "$b"); then
  echo "the two trees hold different files" >&2
  status=1
fi
for f in "$@"; do
  if [ ! -f "$a/$f" ]; then
    echo "declared path $f is not an output of the runs" >&2
    status=1
  fi
done
while read -r f; do
  case " $* " in
    *" $f "*) cmp -s "$a/$f" "$b/$f" || echo "declared change: $f differs" ;;
    *) cmp "$a/$f" "$b/$f" || status=1 ;;
  esac
done < <(files "$a")
exit "$status"
