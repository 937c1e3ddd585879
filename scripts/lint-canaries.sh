#!/usr/bin/env bash
# Proves that the lint configuration bites (DESIGN.md §10, "The lint
# configuration"): clippy.toml's disallowed types and methods, the
# `[workspace.lints]` table, the decode files' `unwrap_used`/`expect_used`
# denies and the required `Actor::state_digest`.
#
# In a temporary copy of the working tree (the tracked and untracked,
# not ignored, files: what `git archive` of a commit of the tree holds)
# it first runs the CI clippy command, which must pass and must print no
# "does not refer to a reachable type" (a clippy.toml path that does not
# resolve is only a warning). Then it plants one violation at a time, runs
# `cargo clippy -p <crate> --lib -- -D warnings`, and requires the run to
# fail and to name the expected lint; the file is restored before the next
# one. The violations: one per rule, then one workspace lint per crate, so
# that a crate dropping `[lints] workspace = true` is caught.
#
# usage: scripts/lint-canaries.sh
# Needs no network. The copy is checked from cold: about 15 s on 2 cores.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

copy="$tmp/tree"
mkdir "$copy"
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$copy"
export CARGO_TARGET_DIR="$tmp/target"

echo "lint-canaries: clippy on the unmodified tree" >&2
if ! (cd "$copy" && cargo clippy --quiet --offline --workspace --all-targets -- -D warnings) \
    > "$tmp/baseline.txt" 2>&1; then
    cat "$tmp/baseline.txt" >&2
    echo "lint-canaries: the unmodified tree does not pass clippy" >&2
    exit 1
fi
if grep -q "does not refer to a reachable type" "$tmp/baseline.txt"; then
    grep "does not refer to a reachable type" "$tmp/baseline.txt" >&2
    echo "lint-canaries: clippy.toml names a path that does not resolve" >&2
    exit 1
fi

planted=0
missed=0
# plant <crate> <file> <lint> <what> <code>: appends <code> to <file>
# (relative to the copy), checks that clippy on <crate>'s library fails
# with output naming <lint> and <what> (both extended regular
# expressions), and restores the file.
plant() {
    local crate=$1 file=$2 lint=$3 what=$4 code=$5
    planted=$((planted + 1))
    cp -- "$copy/$file" "$tmp/pristine"
    printf '\n%s\n' "$code" >> "$copy/$file"
    local status=0
    (cd "$copy" && cargo clippy --quiet --offline -p "$crate" --lib -- -D warnings) \
        > "$tmp/run.txt" 2>&1 || status=$?
    cp -- "$tmp/pristine" "$copy/$file"
    if [ "$status" -ne 0 ] && grep -Eq -- "$lint" "$tmp/run.txt" && grep -Eq -- "$what" "$tmp/run.txt"; then
        echo "lint-canaries: caught $lint ($what) in $file" >&2
    else
        missed=$((missed + 1))
        echo "lint-canaries: MISSED $lint ($what) in $file (clippy exit $status)" >&2
        head -n 20 "$tmp/run.txt" >&2
    fi
}

# One violation per rule.
plant vd-simnet crates/simnet/src/lib.rs 'disallowed[-_]types' 'std::collections::HashMap' \
    'pub fn lint_canary() -> std::collections::HashMap<u8, u8> { Default::default() }'
plant vd-orb crates/orb/src/lib.rs 'disallowed[-_]types' 'std::time::Instant' \
    'pub fn lint_canary() -> std::time::Instant { std::time::Instant::now() }'
plant vd-core crates/core/src/lib.rs 'disallowed[-_]methods' 'std::thread::sleep' \
    'pub fn lint_canary() { std::thread::sleep(std::time::Duration::ZERO) }'
plant vd-group crates/group/src/lib.rs 'disallowed[-_]types' 'std::sync::Mutex' \
    'pub static LINT_CANARY: std::sync::Mutex<u8> = std::sync::Mutex::new(0);'
plant vd-node crates/node/src/lib.rs 'disallowed[-_]types' 'std::net::UdpSocket' \
    'pub fn lint_canary() -> std::io::Result<std::net::UdpSocket> { std::net::UdpSocket::bind("127.0.0.1:0") }'
plant vd-group crates/group/src/lib.rs 'wildcard[-_]enum[-_]match[-_]arm' 'GroupMsg' \
    'pub fn lint_canary(m: &message::GroupMsg) -> u8 { match m { message::GroupMsg::Data(_) => 1, _ => 0 } }'
plant vd-node crates/node/src/codec.rs 'unwrap[-_]used' 'unwrap' \
    'pub fn lint_canary(b: &[u8]) -> u8 { *b.first().unwrap() }'
plant vd-node crates/node/src/lib.rs 'unsafe[-_]code' 'unsafe' \
    'pub fn lint_canary(x: &u8) -> u8 { unsafe { *(x as *const u8) } }'
plant vd-core crates/core/src/lib.rs 'E0046' 'state_digest' \
    'pub struct LintCanary;
impl vd_simnet::actor::Actor for LintCanary {
    fn on_message(&mut self, _: &mut vd_simnet::actor::Context<'"'"'_>, _: vd_simnet::topology::ProcessId, _: Box<dyn vd_simnet::actor::Payload>) {}
}'
plant vd-orb crates/orb/src/lib.rs 'unfulfilled[-_]lint[-_]expectations' 'expectation is unfulfilled' \
    '#[expect(clippy::wildcard_enum_match_arm, reason = "canary: nothing here matches")]
pub fn lint_canary() {}'
plant vd-simnet crates/simnet/src/lib.rs 'allow[-_]attributes[-_]without[-_]reason' 'without' \
    '#[expect(dead_code)]
fn lint_canary() {}'

# One workspace lint per crate (allow-by-default, so only a crate that
# opts into `[workspace.lints]` fails).
for crate in core group orb simnet node; do
    plant "vd-$crate" "crates/$crate/src/lib.rs" 'allow[-_]attributes' '#\[allow\]' \
        '#[allow(dead_code, reason = "canary")]
fn lint_canary() {}'
done

if [ "$missed" -gt 0 ]; then
    echo "lint-canaries: $missed of $planted planted violations were not caught" >&2
    exit 1
fi
echo "lint-canaries: all $planted planted violations caught"
