#!/bin/sh
# Minimal CI entry point: everything a PR must pass, in the order a
# failure is cheapest to report. Mirrors `make check`; exists so CI
# systems without make (and pre-push hooks) run the identical gauntlet.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
# The end-to-end benchmark is a module of its own; run its determinism
# and output-gate tests too (`make perfbench-test`).
(cd perfbench && go test ./...)
go test -race ./internal/mpi ./internal/collector ./internal/core \
	./internal/interpose ./internal/detect ./internal/cluster \
	./internal/obs ./internal/faults ./internal/wal ./internal/stg

# Chaos stage: the fault-tolerance soaks must hold the exact
# loss-accounting invariant (consumed == delivered + sequence gaps)
# with the race detector on — single server killed/restarted 5x under
# multi-rank load, one shard server of 8 killed/restarted under the
# sharded tier (per-shard books, survivors keep ticking, re-attach via
# the rebalanced shard map), and the durability soak: both tiers die
# mid-run and a second generation — server rebuilt from its journal,
# clients replaying their spill WALs — closes the books with zero loss
# and a bit-identical journal-replayed analysis.
go test -race -count=2 -timeout 120s \
	-run 'TestChaosSoakServerRestarts|TestChaosShardServerKillRestart|TestChaosSoakJournalCrashReplay' \
	./internal/collector
# Equivalence fuzz: the sharded tier's merged analysis must stay
# bit-identical to shard-restricted references (a plain pool fed only
# the owning shard's deliveries) across 100 scripted delivery
# schedules × shard counts {1,2,4,8}, raced.
go test -race -count=1 -timeout 120s -run 'TestShardedEquivalenceFuzz' \
	./internal/collector
# Native fuzz smoke: a few seconds of coverage-guided input generation
# per hostile-bytes surface, on top of the committed regression corpora
# (which every plain `go test` already replays). One target per
# invocation — the fuzz engine requires it.
go test -run xxx -fuzz 'FuzzDecodeBatchMeta' -fuzztime 3s ./internal/trace
go test -run xxx -fuzz 'FuzzDecodeHello' -fuzztime 3s ./internal/trace
go test -run xxx -fuzz 'FuzzDecodeRecord' -fuzztime 3s ./internal/trace
go test -run xxx -fuzz 'FuzzLogRecover' -fuzztime 3s ./internal/wal
# Bench smoke: one iteration each, correctness plus the recorded scale
# bounds. Every MonitorTick bench (and the sharded tier) runs 3x with
# in-bench settle ticks, and benchjson -min keeps each benchmark's
# fastest line (min-of-runs) — single cold runs used to make
# BENCH_*.json non-monotone across resident sizes. The asserts gate the
# PR 6 flat-tick ratio, the PR 7 per-shard ratio (2048 ranks × 8 shards
# within 1.5x of 256 ranks × 1 shard per shard-tick), the PR 8
# trace-overhead bound (the traced wire dispatch — sample, stamp,
# exemplar ring — must keep the sharded tick within 1.05x of the
# untraced path), and the PR 10 multi-D bound (the incremental plane's
# comm/IO-heavy tick at ≤0.35x of the batch fallback). Raw output and
# the parsed BENCH_8.json are kept for the CI artifact upload.
go test -run xxx -bench 'BenchmarkPoolIngest$|BenchmarkWindowResults' \
	-benchtime 1x -benchmem . | tee bench-smoke.out
go test -run xxx -bench 'BenchmarkMonitorTick|BenchmarkShardedTickScale' \
	-benchtime 1x -count=3 -benchmem . | tee -a bench-smoke.out
go run ./cmd/benchjson -min -out BENCH_8.json \
	-assert 'MonitorTickScale/servers=1/resident=1000k<=1.5*MonitorTickScale/servers=1/resident=100k' \
	-assert 'MonitorTickScale/servers=4/resident=1000k<=1.5*MonitorTickScale/servers=4/resident=100k' \
	-assert 'ShardedTickScale/shards=8/ranks=2048<=1.5*ShardedTickScale/shards=1/ranks=256@ns_per_shard_tick' \
	-assert 'ShardedTickScaleTraced/shards=8/ranks=2048<=1.05*ShardedTickScale/shards=8/ranks=2048@ns_per_shard_tick' \
	-assert 'MonitorTickMultiD/plane=inc<=0.35*MonitorTickMultiD/plane=batch' \
	< bench-smoke.out

# Observability smoke: boot a real collector, scrape its metrics
# endpoint with `vapro status`, and assert the cross-layer metric names
# are exposed.
go build -o /tmp/vapro-check ./cmd/vapro
/tmp/vapro-check serve -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
	>/tmp/vapro-serve.out 2>&1 &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
# Wait for the server to print its bound metrics address.
i=0
while ! grep -q '^metrics=' /tmp/vapro-serve.out; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "vapro serve never came up"; cat /tmp/vapro-serve.out; exit 1; }
	sleep 0.1
done
METRICS_ADDR=$(sed -n 's/^metrics=//p' /tmp/vapro-serve.out)
/tmp/vapro-check status -addr "$METRICS_ADDR" -raw prom >/tmp/vapro-metrics.out
for name in vapro_uptime_seconds vapro_intake_staged vapro_intake_batches_total \
	vapro_wire_frames_total vapro_wire_frames_rejected_total \
	vapro_wire_seq_gaps_total vapro_net_batches_lost_total \
	vapro_net_reconnects_total vapro_net_spill_depth \
	vapro_detect_window_ns vapro_cluster_cache_hits \
	vapro_cluster_cache_inc_hits vapro_detect_prep_rebuilds_total \
	vapro_detect_prep_rebuilds_cold_total vapro_detect_prep_rebuilds_mixed_total \
	vapro_detect_prep_rebuilds_compaction_total vapro_detect_prep_rebuilds_delta_total \
	vapro_storage_bytes_per_rank_second \
	vapro_detect_store_appends_total \
	vapro_detect_region_cells_carried_total \
	vapro_detect_region_cells_regrown_total \
	vapro_view_cursor_advances_total vapro_view_epoch_rebases_total \
	vapro_ols_rank1_updates_total vapro_ols_refactors_total; do
	grep -q "$name" /tmp/vapro-metrics.out || {
		echo "metrics endpoint missing $name"; exit 1; }
done
# The rendered panel must come up on the same endpoint.
/tmp/vapro-check status -addr "$METRICS_ADDR" | grep -q 'vapro collector'
kill $SERVE_PID
trap - EXIT

# Sharded observability smoke: boot the rank-sharded tier (2 shard
# servers), and assert the spatial scale-out surface — the tier
# counters plus the per-shard gauge rows — is exposed end to end.
/tmp/vapro-check serve -shards 2 -ranks 8 -listen 127.0.0.1:0 \
	-metrics 127.0.0.1:0 >/tmp/vapro-serve-sharded.out 2>&1 &
SHARD_PID=$!
trap 'kill $SHARD_PID 2>/dev/null || true' EXIT
i=0
while ! grep -q '^metrics=' /tmp/vapro-serve-sharded.out; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "sharded vapro serve never came up"; cat /tmp/vapro-serve-sharded.out; exit 1; }
	sleep 0.1
done
# Both shard listeners must have been announced.
grep -q '^wire=' /tmp/vapro-serve-sharded.out
grep -q '^wire1=' /tmp/vapro-serve-sharded.out
SHARD_METRICS_ADDR=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-sharded.out)
/tmp/vapro-check status -addr "$SHARD_METRICS_ADDR" -raw prom >/tmp/vapro-shard-metrics.out
for name in vapro_shards vapro_shard_strips_merged_total \
	vapro_shard_regions_stitched_total vapro_shardmap_rebalances_total \
	vapro_shard_redirects_total vapro_shard_misroutes_total \
	vapro_shard0_resident_ranks vapro_shard1_resident_ranks \
	vapro_shard0_seq_gaps vapro_shard1_intake_staged; do
	grep -q "$name" /tmp/vapro-shard-metrics.out || {
		echo "sharded metrics endpoint missing $name"; exit 1; }
done
# The panel grows the shard rows on a sharded endpoint.
/tmp/vapro-check status -addr "$SHARD_METRICS_ADDR" | grep -q 'shard 1: resident'
kill $SHARD_PID
trap - EXIT

# Fleet observability smoke: boot the rank-sharded tier (4 shard
# servers) with per-shard metrics listeners and the fleet scraper,
# stream real traced batches through the wire with `vapro feed`, and
# assert the fleet's merged counter exactly equals the sum of the
# per-shard endpoints — the merge must be additive, not approximate.
# The fleet health table, the stable -json schema, and the batch
# journey view must all come up on the same deployment.
/tmp/vapro-check serve -shards 4 -ranks 16 -listen 127.0.0.1:0 \
	-metrics 127.0.0.1:0 -fleet 127.0.0.1:0 \
	>/tmp/vapro-serve-fleet.out 2>&1 &
FLEET_PID=$!
trap 'kill $FLEET_PID 2>/dev/null || true' EXIT
i=0
while ! grep -q '^fleet=' /tmp/vapro-serve-fleet.out; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "fleet vapro serve never came up"; cat /tmp/vapro-serve-fleet.out; exit 1; }
	sleep 0.1
done
WIRE_ADDR=$(sed -n 's/^wire=//p' /tmp/vapro-serve-fleet.out)
FLEET_METRICS_ADDR=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-fleet.out)
FLEET_ADDR=$(sed -n 's/^fleet=//p' /tmp/vapro-serve-fleet.out)
/tmp/vapro-check feed -bootstrap "$WIRE_ADDR" -ranks 8 -batches 5
# The feed has drained, so the shard counters are static; poll until
# the fleet scraper's merged view catches up and agrees exactly.
i=0
while :; do
	SHARD_SUM=0
	for maddr in $(grep '^metrics[0-9]' /tmp/vapro-serve-fleet.out | cut -d= -f2); do
		v=$(/tmp/vapro-check status -addr "$maddr" -raw prom |
			awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }')
		SHARD_SUM=$((SHARD_SUM + ${v:-0}))
	done
	FLEET_SUM=$(/tmp/vapro-check status -addr "$FLEET_ADDR" -raw prom |
		awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }')
	[ "$SHARD_SUM" -gt 0 ] && [ "${FLEET_SUM:-0}" -eq "$SHARD_SUM" ] && break
	i=$((i + 1))
	[ "$i" -gt 100 ] && {
		echo "fleet merged frames ($FLEET_SUM) never matched shard sum ($SHARD_SUM)"
		exit 1
	}
	sleep 0.1
done
# The fleet's own scrape-loop metrics ride the merged view too.
/tmp/vapro-check status -addr "$FLEET_ADDR" -raw prom >/tmp/vapro-fleet-metrics.out
for name in vapro_fleet_scrapes_total vapro_fleet_health vapro_fleet_shards \
	vapro_trace_batches_total vapro_trace_sampled_total; do
	grep -q "$name" /tmp/vapro-fleet-metrics.out || {
		echo "fleet endpoint missing $name"; exit 1; }
done
# All three status views render against the live deployment.
/tmp/vapro-check status -addr "$FLEET_ADDR" -fleet | grep -q 'vapro fleet (fleet)'
/tmp/vapro-check status -addr "$FLEET_ADDR" -json | grep -q '"source": "fleet"'
/tmp/vapro-check status -addr "$FLEET_METRICS_ADDR" -trace | grep -q 'batch journeys'
kill $FLEET_PID
trap - EXIT

# Crash-replay smoke: the durability plane against a real SIGKILL. A
# journaling server takes a full feed, dies with no shutdown path, and
# a restart over the same journal must rebuild the delivered stream
# exactly — then a second feed (clients reopening their spill WALs)
# lands on the rebuilt tracker with zero sequence gaps, and `vapro
# analyze` reproduces the combined run offline. The journal and WAL
# dirs stay behind on failure for the CI artifact upload.
JDIR=/tmp/vapro-check-journal
WDIR=/tmp/vapro-check-feedwal
rm -rf "$JDIR" "$WDIR"
/tmp/vapro-check serve -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
	-journal "$JDIR" >/tmp/vapro-serve-journal.out 2>&1 &
JRN_PID=$!
trap 'kill -9 $JRN_PID 2>/dev/null || true' EXIT
i=0
while ! grep -q '^metrics=' /tmp/vapro-serve-journal.out; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "journaling serve never came up"; cat /tmp/vapro-serve-journal.out; exit 1; }
	sleep 0.1
done
J_WIRE=$(sed -n 's/^wire=//p' /tmp/vapro-serve-journal.out)
J_METRICS=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-journal.out)
/tmp/vapro-check feed -bootstrap "$J_WIRE" -ranks 4 -batches 8 -wal "$WDIR"
# Wait until all 32 frames are delivered — and therefore journaled.
i=0
while :; do
	FRAMES=$(/tmp/vapro-check status -addr "$J_METRICS" -raw prom |
		awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }')
	[ "${FRAMES:-0}" -eq 32 ] && break
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "journaling serve delivered ${FRAMES:-0}/32"; exit 1; }
	sleep 0.1
done
# SIGKILL: no flush, no close — the journal on disk is all that survives.
kill -9 $JRN_PID
trap - EXIT
wait $JRN_PID 2>/dev/null || true
/tmp/vapro-check serve -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
	-journal "$JDIR" >/tmp/vapro-serve-journal2.out 2>&1 &
JRN2_PID=$!
trap 'kill $JRN2_PID 2>/dev/null || true' EXIT
i=0
while ! grep -q '^metrics=' /tmp/vapro-serve-journal2.out; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "restarted journaling serve never came up"; cat /tmp/vapro-serve-journal2.out; exit 1; }
	sleep 0.1
done
grep -q 'replayed=32' /tmp/vapro-serve-journal2.out
J2_WIRE=$(sed -n 's/^wire=//p' /tmp/vapro-serve-journal2.out)
J2_METRICS=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-journal2.out)
/tmp/vapro-check status -addr "$J2_METRICS" -raw prom >/tmp/vapro-journal-metrics.out
for name in vapro_wal_journal_segments vapro_wal_journal_appended_total \
	vapro_wal_journal_replayed_total vapro_wal_journal_oldest_age_seconds; do
	grep -q "$name" /tmp/vapro-journal-metrics.out || {
		echo "journal metrics missing $name"; exit 1; }
done
REPLAYED=$(awk '/^vapro_wal_journal_replayed_total[{ ]/ { printf "%.0f", $2 }' /tmp/vapro-journal-metrics.out)
[ "${REPLAYED:-missing}" = "32" ]
REBUILT=$(awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }' /tmp/vapro-journal-metrics.out)
[ "${REBUILT:-missing}" = "32" ]
GAPS=$(awk '/^vapro_wire_seq_gaps_total[{ ]/ { printf "%.0f", $2 }' /tmp/vapro-journal-metrics.out)
[ "${GAPS:-missing}" = "0" ]
# The status panel grows the journal row on a journaling server.
/tmp/vapro-check status -addr "$J2_METRICS" | grep -q 'journal'
# Second generation of clients: same WAL dirs, rebuilt tracker. The
# restarted numbering must dedup cleanly — gaps stay zero.
/tmp/vapro-check feed -bootstrap "$J2_WIRE" -ranks 4 -batches 8 -wal "$WDIR"
i=0
while :; do
	FRAMES=$(/tmp/vapro-check status -addr "$J2_METRICS" -raw prom |
		awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }')
	[ "${FRAMES:-0}" -eq 64 ] && break
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "restarted serve delivered ${FRAMES:-0}/64"; exit 1; }
	sleep 0.1
done
GAPS=$(/tmp/vapro-check status -addr "$J2_METRICS" -raw prom |
	awk '/^vapro_wire_seq_gaps_total[{ ]/ { printf "%.0f", $2 }')
[ "${GAPS:-missing}" = "0" ]
kill $JRN2_PID
trap - EXIT
wait $JRN2_PID 2>/dev/null || true
# Offline historical queries over the journal reproduce the whole run.
/tmp/vapro-check analyze -journal "$JDIR" | tee /tmp/vapro-analyze.out
grep -Fq 'replayed 64 frame(s)' /tmp/vapro-analyze.out
/tmp/vapro-check analyze -journal "$JDIR" -json |
	grep -q '"replayed_frames": 64'
rm -rf "$JDIR" "$WDIR"

# Recording smoke: a run with -record DIR journals the stream its
# collector saw, and `vapro analyze -journal DIR` reports from it. The
# online run's offline re-analysis must count the same fragments, class
# by class; an offline -diagnose report must equal the live one, apart
# from the app label that reads "recording:" offline.
REC_DIR=/tmp/vapro-check-record
rm -rf "$REC_DIR"
/tmp/vapro-check -app CG -ranks 16 -online -record "$REC_DIR" >/tmp/vapro-online.out
/tmp/vapro-check analyze -journal "$REC_DIR" >/tmp/vapro-online-analyze.out
FRAGS_RE='[0-9]* fragments ([0-9]* comp, [0-9]* comm, [0-9]* io)'
ONLINE_FRAGS=$(grep -o "$FRAGS_RE" /tmp/vapro-online.out)
ANALYZED_FRAGS=$(grep -o "$FRAGS_RE" /tmp/vapro-online-analyze.out)
[ -n "$ONLINE_FRAGS" ] && [ "$ONLINE_FRAGS" = "$ANALYZED_FRAGS" ]
rm -rf "$REC_DIR"
/tmp/vapro-check -app CG -ranks 16 -cpu-noise node=0,start=0.5,end=1.5,share=0.5 \
	-diagnose -record "$REC_DIR" >/tmp/vapro-record-live.out
/tmp/vapro-check analyze -journal "$REC_DIR" -diagnose >/tmp/vapro-record-offline.out
# Live line 1 is "recorded … to …"; the summary follows it.
[ "$(sed -n '2s/^CG:/recording:/p' /tmp/vapro-record-live.out)" = "$(sed -n 1p /tmp/vapro-record-offline.out)" ]
tail -n +3 /tmp/vapro-record-live.out >/tmp/vapro-record-live.body
tail -n +2 /tmp/vapro-record-offline.out >/tmp/vapro-record-offline.body
cmp /tmp/vapro-record-live.body /tmp/vapro-record-offline.body
rm -rf "$REC_DIR"
