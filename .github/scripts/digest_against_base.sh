#!/usr/bin/env bash
# Compare this tree's output digests (tests/op_digest.py) with a base
# commit's, both computed on this machine: the digests depend on the
# machine's BLAS kernels, so only a same-machine comparison means anything.
#
# Usage, from the repository root:
#
#     .github/scripts/digest_against_base.sh BASE_SHA HEAD_DIGESTS
#
# HEAD_DIGESTS holds this tree's `tests/op_digest.py --seeds 401` output.
# The base commit is checked out as a detached git worktree (BASE_SHA must
# be in the local object store) and runs its own tests/op_digest.py on its
# own src and perfbench.  Each digest line that differs from this tree's
# prints a GitHub Actions ::warning:: (a change may move outputs on
# purpose, so the script never fails on a difference); a line that only
# one side prints, or a base without tests/op_digest.py, prints a ::notice::.
set -euo pipefail
base_sha=$1
head_digests=$2
root=$(mktemp -d)
worktree="$root/base"
git worktree add --detach --quiet "$worktree" "$base_sha"
trap 'git worktree remove --force "$worktree"; rm -rf "$root"' EXIT
if [ ! -f "$worktree/tests/op_digest.py" ]; then
  echo "::notice::the base commit ${base_sha} has no tests/op_digest.py: no digest comparison"
  exit 0
fi
# the base's own package, not an installed one, must answer its imports
found=$(cd "$root" && PYTHONPATH="$worktree/src" python -c "import chgeom; print(chgeom.__file__)")
case $found in
  "$worktree"/*) ;;
  *) echo "::warning::chgeom resolves to ${found}, not the base worktree: no digest comparison"
     exit 0 ;;
esac
base_digests="$root/digest-base.out"
if ! PYTHONPATH="$worktree/src" python "$worktree/tests/op_digest.py" --seeds 401 > "$base_digests"; then
  echo "::warning::tests/op_digest.py failed at the base commit ${base_sha}: no digest comparison"
  exit 0
fi
echo "base ${base_sha}:"
cat "$base_digests"
# lines "NAME  N ops  DIGEST": compare the digests of each NAME
awk -v base="$base_sha" '
  FNR == NR { want[$1] = $4; next }
  !($1 in want) { printf "::notice::the base commit %s prints no %s digest\n", base, $1; next }
  want[$1] != $4 {
    printf "::warning::the %s digest differs from the base commit %s: outputs changed\n", $1, base
  }
  { delete want[$1] }
  END { for (name in want) printf "::notice::only the base commit %s prints a %s digest\n", base, name }
' "$base_digests" "$head_digests"
