#!/usr/bin/env bash
# Write-crash smoke test: prove the streaming pack path is atomic under
# every way a write can die.
#
#   pack golden references (default window) for v2 / v3 / v4 parity schemes
#     → a pack through a 2 KiB window is byte-identical for every scheme
#     → injected crashes (`--fault-sink crash_at=N`) across a matrix of
#       byte offsets: exit 3, the destination is absent or the old file
#       is byte-intact, the stranded .tmp is an exact prefix of the true
#       container, and re-running the pack heals it
#     → injected ENOSPC (`--fault-sink enospc_at=N`): typed exit 3, NO
#       temp file left, destination untouched
#     → real SIGKILL of a child `zmesh pack` at varied delays:
#       on-disk state is always one of {absent, old-intact, committed +
#       scrub-clean}, and a rerun converges to the golden bytes
#
# Uses the testing-feature build of `zmesh` (write-side fault injection
# is compiled out of release-default builds).

set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d "${TMPDIR:-/tmp}/zmesh_write_crash_smoke.XXXXXX")
cleanup() {
    rm -rf "$workdir"
}
trap cleanup EXIT

expect_code() {
    want=$1
    shift
    set +e
    "$@" >"$workdir/cmd.out" 2>"$workdir/cmd.err"
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        echo "write_crash_smoke: expected exit $want from: $*" >&2
        echo "  got exit $got; stderr:" >&2
        cat "$workdir/cmd.err" >&2
        exit 1
    fi
}

echo "==> build the testing-feature CLI"
cargo build -q --release -p zmesh-cli --features testing --bin zmesh
zmesh=target/release/zmesh

echo "==> golden references: default-window pack per parity scheme"
"$zmesh" generate blast2d -o "$workdir/data.zmd" --scale tiny
parities="none xor:3 rs:4,2"
for p in $parities; do
    tag=$(echo "$p" | tr ':,' '__')
    "$zmesh" pack "$workdir/data.zmd" -o "$workdir/golden_$tag.zms" \
        --chunk-kb 1 --parity "$p"
done

echo "==> a small window packs byte-identical stores (every scheme)"
for p in $parities; do
    tag=$(echo "$p" | tr ':,' '__')
    "$zmesh" pack "$workdir/data.zmd" -o "$workdir/stream_$tag.zms" \
        --chunk-kb 1 --parity "$p" --window-bytes 2048 \
        >"$workdir/stream_$tag.out"
    cmp "$workdir/golden_$tag.zms" "$workdir/stream_$tag.zms"
    grep -q "streamed" "$workdir/stream_$tag.out"
done
echo "    3/3 schemes byte-identical, stats report the stream window"

echo "==> injected crash matrix: torn tmp, never a wrong store"
old_marker="$workdir/old_marker"
printf 'previous generation - must survive byte-intact' >"$old_marker"
for p in $parities; do
    tag=$(echo "$p" | tr ':,' '__')
    golden="$workdir/golden_$tag.zms"
    total=$(wc -c <"$golden")
    dest="$workdir/crash_$tag.zms"
    for kill in 0 1 100 $((total / 3)) $((total / 2)) $((total - 17)) $((total - 1)); do
        for old in fresh seeded; do
            rm -f "$dest" "$dest.tmp"
            [ "$old" = seeded ] && cp "$old_marker" "$dest"
            expect_code 3 "$zmesh" pack "$workdir/data.zmd" -o "$dest" \
                --chunk-kb 1 --parity "$p" --fault-sink "crash_at=$kill"
            grep -q "fault injection active" "$workdir/cmd.err"
            # Destination: absent or the old bytes, never a partial store.
            if [ "$old" = seeded ]; then
                cmp "$old_marker" "$dest"
            elif [ -e "$dest" ]; then
                echo "write_crash_smoke: crash at $kill published a destination" >&2
                exit 1
            fi
            # The stranded tmp (a killed process never cleans up) is an
            # exact byte prefix of the true container.
            head -c "$kill" "$golden" >"$workdir/want_prefix"
            cmp "$workdir/want_prefix" "$dest.tmp"
            # A torn prefix must never scrub clean (0-byte tmp: scrub
            # exits 3 on the empty read; anything longer is torn/corrupt).
            set +e
            "$zmesh" scrub "$dest.tmp" >/dev/null 2>&1
            scrub_code=$?
            set -e
            if [ "$scrub_code" -eq 0 ]; then
                echo "write_crash_smoke: torn tmp at $kill scrubbed clean" >&2
                exit 1
            fi
            # Re-running the pack heals the stranded tmp.
            "$zmesh" pack "$workdir/data.zmd" -o "$dest" \
                --chunk-kb 1 --parity "$p" >/dev/null
            cmp "$golden" "$dest"
            if [ -e "$dest.tmp" ]; then
                echo "write_crash_smoke: rerun left a stale tmp" >&2
                exit 1
            fi
        done
    done
    rm -f "$dest"
done
echo "    every crash point left {absent|old-intact} + prefix tmp; reruns heal"

echo "==> injected ENOSPC: typed abort, no tmp, destination untouched"
for p in $parities; do
    tag=$(echo "$p" | tr ':,' '__')
    total=$(wc -c <"$workdir/golden_$tag.zms")
    dest="$workdir/enospc_$tag.zms"
    for wall in 0 64 $((total / 2)) $((total - 1)); do
        rm -f "$dest" "$dest.tmp"
        cp "$old_marker" "$dest"
        expect_code 3 "$zmesh" pack "$workdir/data.zmd" -o "$dest" \
            --chunk-kb 1 --parity "$p" --fault-sink "enospc_at=$wall"
        grep -q "no space" "$workdir/cmd.err"
        cmp "$old_marker" "$dest"
        if [ -e "$dest.tmp" ]; then
            echo "write_crash_smoke: ENOSPC at $wall left a tmp file" >&2
            exit 1
        fi
    done
    rm -f "$dest"
done
echo "    ENOSPC aborts are clean at every wall"

echo "==> release builds reject --fault-sink"
cargo build -q --release -p zmesh-cli --bin zmesh
expect_code 2 "$zmesh" pack "$workdir/data.zmd" -o "$workdir/reject.zms" \
    --fault-sink "crash_at=0"
grep -q "testing build" "$workdir/cmd.err"
# Rebuild the testing binary for the SIGKILL leg below.
cargo build -q --release -p zmesh-cli --features testing --bin zmesh

echo "==> real SIGKILL matrix: kill a live child pack at varied delays"
# A bigger dataset widens the kill window; chunk-kb 1 + a one-chunk
# window serializes the pipeline so the write phase has real duration.
"$zmesh" generate blast2d -o "$workdir/big.zmd" --scale small
"$zmesh" pack "$workdir/big.zmd" -o "$workdir/big_golden.zms" \
    --chunk-kb 1 --parity rs:4,2
dest="$workdir/sigkill.zms"
kills=0
commits=0
for delay in 0 0.02 0.05 0.1 0.2 0.4; do
    for old in fresh seeded; do
        rm -f "$dest" "$dest.tmp"
        [ "$old" = seeded ] && cp "$old_marker" "$dest"
        "$zmesh" pack "$workdir/big.zmd" -o "$dest" \
            --chunk-kb 1 --parity rs:4,2 --window-bytes 1024 \
            >/dev/null 2>&1 &
        pack_pid=$!
        sleep "$delay"
        if kill -KILL "$pack_pid" 2>/dev/null; then
            kills=$((kills + 1))
        fi
        set +e
        wait "$pack_pid" 2>/dev/null
        set -e
        # Invariant: destination is absent, the old bytes, or the fully
        # committed store (scrub-clean and byte-exact).
        if [ -e "$dest" ]; then
            if [ "$old" = seeded ] && cmp -s "$old_marker" "$dest"; then
                : # old generation survived byte-intact
            else
                cmp "$workdir/big_golden.zms" "$dest"
                "$zmesh" scrub "$dest" >/dev/null
                commits=$((commits + 1))
            fi
        elif [ "$old" = seeded ]; then
            echo "write_crash_smoke: SIGKILL destroyed the old store" >&2
            exit 1
        fi
        # Whatever the kill left behind, a rerun converges to golden.
        "$zmesh" pack "$workdir/big.zmd" -o "$dest" \
            --chunk-kb 1 --parity rs:4,2 >/dev/null
        cmp "$workdir/big_golden.zms" "$dest"
        if [ -e "$dest.tmp" ]; then
            echo "write_crash_smoke: rerun left a stale tmp after SIGKILL" >&2
            exit 1
        fi
    done
done
echo "    $kills kill(s) landed, $commits pack(s) outran the kill; invariant held for all 12"

echo "write_crash_smoke: all steps passed"
