package core

// White-box tests for the tile-migration protocol: the three wire formats
// must round-trip, reject truncation and corruption, and the
// admission/drop bookkeeping must fail cleanly — never corrupt server
// state — on duplicated or mangled payloads.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/csr"
)

func TestStatsMsgRoundTrip(t *testing.T) {
	costs := []costmodel.TileCost{
		{ID: 0, Nanos: 1234, Bytes: 9999},
		{ID: 7, Nanos: 1 << 40, Bytes: 3},
		{ID: 42, Nanos: 0, Bytes: 0},
	}
	msg := appendStatsMsg(nil, 11, costs)
	step, got, err := decodeStatsMsg(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if step != 11 || len(got) != len(costs) {
		t.Fatalf("decoded step %d, %d records", step, len(got))
	}
	for i := range costs {
		if got[i] != costs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], costs[i])
		}
	}
	// Empty stats (a server with no tiles left) must round-trip too.
	if _, got, err = decodeStatsMsg(appendStatsMsg(nil, 0, nil), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty stats: %v, %d records", err, len(got))
	}
}

func TestPlanMsgRoundTrip(t *testing.T) {
	moves := []costmodel.Move{{Tile: 3, From: 1, To: 0}, {Tile: 9, From: 1, To: 2}}
	msg := appendPlanMsg(nil, 5, moves)
	step, got, err := decodePlanMsg(msg)
	if err != nil {
		t.Fatal(err)
	}
	if step != 5 || len(got) != 2 || got[0] != moves[0] || got[1] != moves[1] {
		t.Fatalf("decoded step %d moves %+v", step, got)
	}
	if _, got, err = decodePlanMsg(appendPlanMsg(nil, 2, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty plan: %v, %d moves", err, len(got))
	}
}

func TestTileMsgRoundTrip(t *testing.T) {
	body := []byte("not a real tile, but the envelope does not care")
	msg := appendTileMsg(nil, 17, body)
	id, got, err := decodeTileMsg(msg)
	if err != nil {
		t.Fatal(err)
	}
	if id != 17 || !bytes.Equal(got, body) {
		t.Fatalf("decoded tile %d body %q", id, got)
	}
}

// TestRebalanceDecodeRejectsMangled drives every decoder over truncations
// and single-byte corruptions of valid messages: each must error, never
// panic, and never silently succeed on a damaged tile payload (the CRC
// catches body flips the length checks cannot).
func TestRebalanceDecodeRejectsMangled(t *testing.T) {
	stats := appendStatsMsg(nil, 3, []costmodel.TileCost{{ID: 1, Nanos: 5, Bytes: 6}})
	plan := appendPlanMsg(nil, 3, []costmodel.Move{{Tile: 1, From: 0, To: 1}})
	tilemsg := appendTileMsg(nil, 1, []byte("0123456789abcdef"))

	for name, msg := range map[string][]byte{"stats": stats, "plan": plan, "tile": tilemsg} {
		for cut := 0; cut < len(msg); cut++ {
			if err := decodeAny(msg[:cut]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded successfully", name, cut)
			}
		}
	}
	// Body corruption in a tile payload must trip the CRC.
	for i := tileHeaderSize; i < len(tilemsg); i++ {
		bad := append([]byte(nil), tilemsg...)
		bad[i] ^= 0x40
		if _, _, err := decodeTileMsg(bad); err == nil {
			t.Errorf("tile body flip at %d decoded successfully", i)
		}
	}
	// Unknown kinds are rejected at classification.
	if _, err := rebalanceKind([]byte{0xB7, 0, 0}); err == nil {
		t.Error("comm magic accepted as a rebalance kind")
	}
	if _, err := rebalanceKind(nil); err == nil {
		t.Error("empty message classified")
	}
}

// decodeAny dispatches a payload to the decoder its first byte claims.
func decodeAny(msg []byte) error {
	kind, err := rebalanceKind(msg)
	if err != nil {
		return err
	}
	switch kind {
	case kindStats:
		_, _, err = decodeStatsMsg(msg, nil)
	case kindPlan:
		_, _, err = decodePlanMsg(msg)
	case kindTile:
		_, _, err = decodeTileMsg(msg)
	}
	return err
}

// FuzzDecodeRebalance throws arbitrary bytes at the migration-protocol
// decoders. Nothing may panic, and any payload that decodes must re-encode
// to the identical bytes (the formats are canonical).
func FuzzDecodeRebalance(f *testing.F) {
	f.Add(appendStatsMsg(nil, 1, []costmodel.TileCost{{ID: 2, Nanos: 3, Bytes: 4}}))
	f.Add(appendPlanMsg(nil, 1, []costmodel.Move{{Tile: 2, From: 0, To: 1}}))
	f.Add(appendTileMsg(nil, 2, []byte("body bytes")))
	f.Add([]byte{kindStats})
	f.Add([]byte{kindTile, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, msg []byte) {
		kind, err := rebalanceKind(msg)
		if err != nil {
			return
		}
		switch kind {
		case kindStats:
			step, costs, err := decodeStatsMsg(msg, nil)
			if err == nil && !bytes.Equal(appendStatsMsg(nil, step, costs), msg) {
				t.Fatalf("stats round-trip mismatch for %x", msg)
			}
		case kindPlan:
			step, moves, err := decodePlanMsg(msg)
			if err == nil && !bytes.Equal(appendPlanMsg(nil, step, moves), msg) {
				t.Fatalf("plan round-trip mismatch for %x", msg)
			}
		case kindTile:
			id, body, err := decodeTileMsg(msg)
			if err == nil && !bytes.Equal(appendTileMsg(nil, id, body), msg) {
				t.Fatalf("tile round-trip mismatch for %x", msg)
			}
		}
	})
}

// TestAdmitDropTile exercises the donor/recipient bookkeeping directly on a
// warm server: dropping a tile must evict its cache entry and store blob
// and shrink the per-tile scratch; re-admitting the same blob must restore
// the metadata in id order; duplicated and truncated payloads must error
// without touching state.
func TestAdmitDropTile(t *testing.T) {
	sv, _, cleanup := newWarmServer(t, func(c *Config) { c.CacheMode = compress.None }, false)
	defer cleanup()

	before := len(sv.metas)
	if before < 3 {
		t.Fatalf("warm server has only %d tiles", before)
	}
	k := 1
	meta := sv.metas[k]
	blob, err := sv.store.Read(meta.blob)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate admission of an owned tile must fail without changing state.
	if err := sv.admitTile(meta.id, blob); err == nil {
		t.Fatal("admitting an already-owned tile succeeded")
	}
	if len(sv.metas) != before {
		t.Fatalf("failed admission changed meta count to %d", len(sv.metas))
	}

	if err := sv.dropTile(k); err != nil {
		t.Fatal(err)
	}
	if len(sv.metas) != before-1 || len(sv.updBufs) != before-1 || len(sv.outs) != before-1 {
		t.Fatalf("drop left metas/updBufs/outs at %d/%d/%d",
			len(sv.metas), len(sv.updBufs), len(sv.outs))
	}
	if sv.metaIndex(meta.id) >= 0 {
		t.Fatal("dropped tile still indexed")
	}
	if _, ok := sv.cache.Get(meta.id); ok {
		t.Fatal("dropped tile still cached")
	}
	if sv.store.Exists(meta.blob) {
		t.Fatal("dropped tile blob still on disk")
	}

	// Truncated payload: error, and the store must stay clean.
	if err := sv.admitTile(meta.id, blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated tile blob admitted")
	}
	if sv.store.Exists(meta.blob) {
		t.Fatal("truncated blob was persisted")
	}

	// Clean re-admission restores the tile in id order.
	if err := sv.admitTile(meta.id, blob); err != nil {
		t.Fatal(err)
	}
	if got := sv.metaIndex(meta.id); got != k {
		t.Fatalf("re-admitted tile at index %d, want %d", got, k)
	}
	if len(sv.metas) != before || len(sv.updBufs) != before || len(sv.outs) != before {
		t.Fatalf("re-admission left metas/updBufs/outs at %d/%d/%d",
			len(sv.metas), len(sv.updBufs), len(sv.outs))
	}
	for i := 1; i < len(sv.metas); i++ {
		if sv.metas[i-1].id >= sv.metas[i].id {
			t.Fatalf("metas out of order at %d: %d >= %d", i, sv.metas[i-1].id, sv.metas[i].id)
		}
	}
}

// TestAdmitTileNeverTearsBlob is the regression test for the torn tile
// write: in a multi-tenant session one job's recovery re-admits a tile —
// rewriting the blob under its existing name — while a sibling job's runner
// loads the same name. The readers hammer ReadInto + decode throughout and
// must only ever see the whole blob; with a truncate-then-write persist
// they caught it empty or half written ("csr: encoded tile too short").
func TestAdmitTileNeverTearsBlob(t *testing.T) {
	sv, _, cleanup := newWarmServer(t, func(c *Config) { c.CacheMode = compress.None }, false)
	defer cleanup()
	sv.multi = true // runner semantics: dropTile keeps the shared blob
	const k = 1
	meta := sv.metas[k]
	blob, err := sv.store.Read(meta.blob)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []byte
			var tl csr.Tile
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := sv.store.ReadInto(meta.blob, buf[:0])
				if err != nil {
					t.Errorf("read during re-admission: %v", err)
					return
				}
				buf = data
				if len(data) != len(blob) {
					t.Errorf("read %d of %d bytes during re-admission", len(data), len(blob))
					return
				}
				if err := csr.DecodeInto(&tl, data); err != nil {
					t.Errorf("decode during re-admission: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if err := sv.dropTile(k); err != nil {
			t.Fatal(err)
		}
		if err := sv.admitTile(meta.id, blob); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
}
