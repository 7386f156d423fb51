#!/bin/sh
# Fail CI when a "PR N:"-titled commit lands without its CHANGES.md
# entry. The head commit's subject names the PR (repo convention:
# "PR 7: ..."); CHANGES.md must then contain a matching "PR 7"
# heading. Commits whose subject names no PR (fixups, reverts) pass —
# the check guards the PR-landing commit itself, which is the one
# that must carry the changelog.
#
# Usage: tools/check_changelog.sh [changes-file]   (from the repo root)
#        tools/check_changelog.sh --cli-smoke <warped_sim>
#
# --cli-smoke exercises the strict-CLI contract of run mode and the
# campaign subcommand on a built warped_sim binary: malformed or
# missing required arguments must exit 2 (usage), never run with a
# silently defaulted value, a torn checkpoint must exit 1, and a stale
# one must be warned about on stderr. CI runs it after the build so a
# new subcommand can't land without its argument validation.

set -eu

if [ "${1:-}" = "--cli-smoke" ]; then
    sim="${2:?usage: check_changelog.sh --cli-smoke <warped_sim>}"

    expect_exit() {
        want="$1"
        shift
        set +e
        "$@" >/dev/null 2>&1
        got=$?
        set -e
        if [ "$got" -ne "$want" ]; then
            echo "check_changelog --cli-smoke: '$*' exited $got," \
                 "expected $want" >&2
            exit 1
        fi
    }

    # Like expect_exit, and stderr must also match the grep pattern
    # given after the exit code.
    expect_stderr() {
        want="$1"
        pattern="$2"
        shift 2
        set +e
        err=$("$@" 2>&1 >/dev/null)
        got=$?
        set -e
        if [ "$got" -ne "$want" ]; then
            echo "check_changelog --cli-smoke: '$*' exited $got," \
                 "expected $want" >&2
            exit 1
        fi
        if ! printf '%s\n' "$err" | grep -q "$pattern"; then
            echo "check_changelog --cli-smoke: '$*' printed no" \
                 "'$pattern' on stderr" >&2
            exit 1
        fi
    }

    # Strict numeric parsing in campaign mode.
    expect_exit 2 "$sim" campaign SCAN --sites banana
    expect_exit 2 "$sim" campaign SCAN --checkpoint-every 0
    expect_exit 2 "$sim" campaign SCAN --strata 0
    # `campaign` is the one campaign mode: `serve` and `shard` fall
    # into run mode, which refuses them like any unknown workload.
    expect_exit 2 "$sim" serve SCAN --shards 2
    expect_exit 2 "$sim" shard SCAN --shard-index 0
    # A torn checkpoint (its writer died mid-write) is a hard,
    # explained error, never a silent restart from zero.
    torn="${TMPDIR:-/tmp}/warped_cli_smoke_torn.$$.ckpt"
    printf '{\n  "shard.version": 1' >"$torn"
    expect_exit 1 "$sim" campaign SCAN --size 2 --sites 5 \
        --checkpoint "$torn"
    rm -f "$torn"
    # A checkpoint of another configuration is stale: the campaign
    # restarts from zero, and says so.
    stale="${TMPDIR:-/tmp}/warped_cli_smoke_stale.$$.ckpt"
    rm -f "$stale"
    expect_exit 0 "$sim" campaign SCAN --size 2 --sites 5 --seed 1 \
        --checkpoint "$stale"
    expect_stderr 0 "does not match this configuration" \
        "$sim" campaign SCAN --size 2 --sites 5 --seed 2 \
        --checkpoint "$stale"
    rm -f "$stale"
    # Values are never guessed: an unknown or missing choice, a second
    # positional workload and an unknown workload all refuse, in run
    # mode and campaign mode alike.
    expect_exit 2 "$sim" --mapping Linear
    expect_exit 2 "$sim" --sched bogus
    expect_exit 2 "$sim" --dmr bogus
    expect_exit 2 "$sim" SCAN --dmr
    expect_exit 2 "$sim" SCAN BFS
    expect_exit 2 "$sim" NOPE
    expect_exit 2 "$sim" campaign SCAN --mapping Linear
    expect_exit 2 "$sim" campaign SCAN --sched bogus
    expect_exit 2 "$sim" campaign SCAN --dmr bogus
    expect_exit 2 "$sim" campaign SCAN --dmr
    expect_exit 2 "$sim" campaign SCAN BFS
    expect_exit 2 "$sim" campaign NOPE
    # A machine the simulator would refuse to build is a usage error,
    # checked right after parsing in every mode.
    expect_exit 2 "$sim" SCAN --sms 0
    expect_exit 2 "$sim" SCAN --warp 0
    expect_exit 2 "$sim" SCAN --cluster 3
    expect_exit 2 "$sim" campaign SCAN --sms 0
    # --help is a request, not an error, on every mode.
    expect_exit 0 "$sim" --help
    expect_exit 0 "$sim" campaign --help
    echo "check_changelog --cli-smoke: CLI edges OK"
    exit 0
fi

changes="${1:-CHANGES.md}"

if [ ! -f "$changes" ]; then
    echo "check_changelog: $changes not found" >&2
    exit 1
fi

if ! grep -Eq 'PR [0-9]+' "$changes"; then
    echo "check_changelog: $changes has no 'PR <n>' entries at all" >&2
    exit 1
fi

subject=$(git log -1 --format=%s)
pr=$(printf '%s\n' "$subject" | sed -n 's/^PR \([0-9][0-9]*\):.*/\1/p')

if [ -z "$pr" ]; then
    echo "check_changelog: head commit does not name a PR" \
         "('$subject') - skipping entry check"
    exit 0
fi

if grep -Eq "PR ${pr}[^0-9]" "$changes"; then
    echo "check_changelog: found CHANGES.md entry for PR ${pr}"
    exit 0
fi

echo "check_changelog: head commit is 'PR ${pr}: ...' but $changes" \
     "has no 'PR ${pr}' entry - add one describing this PR" >&2
exit 1
