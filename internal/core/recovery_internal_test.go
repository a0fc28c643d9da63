package core

// White-box tests for the tile bookkeeping recovery's reconciliation runs
// on: dropping a reassigned tile and adopting a dead peer's blob must fail
// cleanly — never corrupt server state — on duplicated or mangled payloads,
// and must never tear a blob a concurrent reader is loading. They live apart
// from recovery_test.go because that file is the external core_test package
// and cannot reach a server's internals.

import (
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/csr"
)

// TestAdmitDropTile exercises the drop/adopt bookkeeping directly on a
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
