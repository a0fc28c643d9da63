package core

// The graphhd daemon serves StepStats/ServerStats as JSON; their json tags
// are the wire schema. These tests pin the exact field-name sets and the
// value round-trip so a Go-side field rename (or a lost tag) breaks loudly
// here instead of silently changing the protocol.

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/disk"
)

func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal %T keys: %v", v, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestStepStatsJSONSchema(t *testing.T) {
	want := []string{
		"checkpoint_ns", "dense_msgs", "duration_ns", "gathered_edges",
		"loaded_tiles", "migrated_tiles", "raw_bytes",
		"rebalance_ns", "skipped_tiles", "sparse_msgs", "superstep", "updated", "wire_bytes",
	}
	if got := jsonKeys(t, StepStats{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("StepStats wire schema drifted:\n got %v\nwant %v", got, want)
	}
}

func TestServerStatsJSONSchema(t *testing.T) {
	want := []string{
		"bytes_recv", "bytes_sent", "cache", "cache_mode", "cache_policy",
		"checkpoint_bytes", "checkpoints", "disk", "joins", "membership_epoch",
		"memory_bytes", "prefetch_hits", "prefetch_issued", "prefetch_wasted",
		"recoveries", "recovery_time_ns", "residency", "send_queue_cap",
		"send_queue_high_water", "send_stalls", "server", "shared_tile_loads",
		"tiles_adopted", "vertex_slots",
	}
	if got := jsonKeys(t, ServerStats{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ServerStats wire schema drifted:\n got %v\nwant %v", got, want)
	}
	wantDisk := []string{
		"batched_reads", "queue_high_water", "queued_ops", "read_bytes",
		"read_ops", "write_bytes", "write_ops",
	}
	if got := jsonKeys(t, disk.Counters{}); !reflect.DeepEqual(got, wantDisk) {
		t.Fatalf("disk.Counters wire schema drifted:\n got %v\nwant %v", got, wantDisk)
	}
	wantCache := []string{
		"bytes_cached", "decompress_time_ns", "entries", "evictions", "hits",
		"misses",
	}
	if got := jsonKeys(t, cache.Stats{}); !reflect.DeepEqual(got, wantCache) {
		t.Fatalf("cache.Stats wire schema drifted:\n got %v\nwant %v", got, wantCache)
	}
}

// TestStatsJSONRoundTrip pins value fidelity: every field survives a
// marshal/unmarshal cycle, including the string-encoded enums and the
// nanosecond-encoded durations.
func TestStatsJSONRoundTrip(t *testing.T) {
	step := StepStats{
		Superstep: 7, Updated: 1234, WireBytes: 1 << 30, RawBytes: 1 << 31,
		DenseMsgs: 3, SparseMsgs: 4, SkippedTiles: 5, LoadedTiles: 6, GatheredEdges: 1 << 33,
		MigratedTiles: 2, Duration: 250 * time.Millisecond,
		Rebalance: time.Millisecond, Checkpoint: 3 * time.Microsecond,
	}
	raw, err := json.Marshal(step)
	if err != nil {
		t.Fatalf("marshal StepStats: %v", err)
	}
	var step2 StepStats
	if err := json.Unmarshal(raw, &step2); err != nil {
		t.Fatalf("unmarshal StepStats: %v", err)
	}
	if step2 != step {
		t.Fatalf("StepStats round trip: got %+v, want %+v", step2, step)
	}

	sv := ServerStats{
		Server: 3, MemoryBytes: 1 << 33, VertexSlots: 77,
		Disk: disk.Counters{ReadBytes: 1, WriteBytes: 2, ReadOps: 3,
			WriteOps: 4, BatchedReads: 5, QueuedOps: 6, QueueHighWater: 7},
		Cache: cache.Stats{Hits: 8, Misses: 9, Evictions: 10, BytesCached: 11,
			Entries: 12, DecompressTime: 13 * time.Millisecond},
		CacheMode: compress.Zlib1, CachePolicy: cache.Clock,
		Residency: ResidencyStreaming, PrefetchIssued: 14, PrefetchHits: 15,
		PrefetchWasted: 16, BytesSent: 17, BytesRecv: 18, SendStalls: 19,
		SendQueueHighWater: 20, SendQueueCap: 21, Checkpoints: 24, CheckpointBytes: 25,
		TilesAdopted: 26, Recoveries: 27, RecoveryTime: 28 * time.Second,
		Joins: 29, MembershipEpoch: 30, SharedTileLoads: 31,
	}
	raw, err = json.Marshal(sv)
	if err != nil {
		t.Fatalf("marshal ServerStats: %v", err)
	}
	// The enum fields travel as their String names, not integers.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal ServerStats map: %v", err)
	}
	if m["cache_mode"] != "zlib-1" || m["cache_policy"] != "clock" || m["residency"] != "streaming" {
		t.Fatalf("enum fields not string-encoded: mode=%v policy=%v residency=%v",
			m["cache_mode"], m["cache_policy"], m["residency"])
	}
	var sv2 ServerStats
	if err := json.Unmarshal(raw, &sv2); err != nil {
		t.Fatalf("unmarshal ServerStats: %v", err)
	}
	if sv2 != sv {
		t.Fatalf("ServerStats round trip:\n got %+v\nwant %+v", sv2, sv)
	}

	// Unknown enum names are rejected, not silently zeroed.
	if err := json.Unmarshal([]byte(`{"cache_policy":"fifo"}`), &sv2); err == nil {
		t.Fatal("unknown cache_policy name unmarshalled without error")
	}
	if err := json.Unmarshal([]byte(`{"cache_mode":"lz4"}`), &sv2); err == nil {
		t.Fatal("unknown cache_mode name unmarshalled without error")
	}
	if err := json.Unmarshal([]byte(`{"residency":"pinned"}`), &sv2); err == nil {
		t.Fatal("unknown residency name unmarshalled without error")
	}
}
