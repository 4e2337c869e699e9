#!/usr/bin/env bash
# Build e2e_bench from BASE and from the working tree at one path, and
# report whether the two binaries are identical.
#
# Usage: scripts/e2e_identity.sh BASE
#
# Both builds run in one git worktree, `target/e2e_identity` under the
# repository root, so the two binaries embed the same paths. The working
# tree is taken as `git stash create` records it: tracked files with
# their changes, staged new files included, untracked files left out.
# For each build the script prints the binary's sha256 and the address of
# `core::str::converts::from_utf8` mod 64: e2e_bench's calibration kernel
# runs fastest when that address is 0 mod 64 (ROADMAP, item 1). The
# worktree is removed on exit.
set -euo pipefail

base=${1:?usage: scripts/e2e_identity.sh BASE}
root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$base^{commit}")
work_rev=$(git stash create)
work_rev=${work_rev:-$(git rev-parse HEAD)}
tree="$root/target/e2e_identity"

cleanup() {
  git worktree remove --force "$tree" >/dev/null 2>&1 || true
  git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$tree" "$base_rev"

report() {
  local label=$1 rev=$2
  git -C "$tree" checkout --quiet --detach "$rev"
  cargo build --release --offline --quiet --manifest-path "$tree/e2e_bench/Cargo.toml"
  local bin="$tree/e2e_bench/target/release/e2e_bench"
  local sha addr
  sha=$(sha256sum "$bin" | cut -d' ' -f1)
  # awk reads to the end: an early exit would fail the pipeline on SIGPIPE
  addr=$(nm -C "$bin" | awk '$3 == "core::str::converts::from_utf8" && !n++ { print $1 }')
  if [ -z "$addr" ]; then
    echo "$label: no core::str::converts::from_utf8 symbol in $bin" >&2
    exit 1
  fi
  printf '%-4s %s  sha256 %s  from_utf8 0x%x (%d mod 64)\n' \
    "$label" "${rev:0:12}" "$sha" "$((16#$addr))" "$((16#$addr % 64))"
}

report base "$base_rev"
report work "$work_rev"
