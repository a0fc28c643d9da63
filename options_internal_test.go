package graphh

// White-box coverage of the Options → core.Config mapping: every public
// knob must thread through engineConfig, including the nil-pointer
// auto-select paths (CacheMode, CachePolicy, MessageCodec) and the
// contradictory ForceDense+ForceSparse rejection.

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/core"
)

func TestEngineConfigMapsEveryKnob(t *testing.T) {
	zlib1 := CodecZlib1
	snappy := CodecSnappy
	clock := CacheClock
	plan := &FaultPlan{Kills: []Kill{{Server: 1, Step: 2, Point: KillMidStep}}}
	full := Options{
		Servers:             4,
		Workers:             3,
		MaxSupersteps:       17,
		Transport:           TransportTCP,
		DiskReadBandwidth:   1e6,
		DiskWriteBandwidth:  2e6,
		DiskReadLatency:     2 * time.Millisecond,
		NetBandwidth:        3e6,
		CacheCapacity:       4096,
		CacheMode:           &zlib1,
		CachePolicy:         &clock,
		PrefetchDepth:       7,
		Residency:           ResidencyStreaming,
		MessageCodec:        &snappy,
		OnDemandReplication: true,
		DisableBloomSkip:    true,
		CheckpointEvery:     4,
		FailureTimeout:      1500 * time.Millisecond,
		Faults:              plan,
		WorkDir:             "/tmp/graphh-knobs",
	}
	cfg, err := full.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want any
	}{
		{"NumServers", cfg.NumServers, 4},
		{"WorkersPerServer", cfg.WorkersPerServer, 3},
		{"MaxSupersteps", cfg.MaxSupersteps, 17},
		{"Transport", cfg.Transport, cluster.TCP},
		{"Disk.ReadBandwidth", cfg.Disk.ReadBandwidth, int64(1e6)},
		{"Disk.WriteBandwidth", cfg.Disk.WriteBandwidth, int64(2e6)},
		{"Disk.ReadLatency", cfg.Disk.ReadLatency, 2 * time.Millisecond},
		{"PrefetchDepth", cfg.PrefetchDepth, 7},
		{"Residency", cfg.Residency, core.ResidencyStreaming},
		{"NetBandwidth", cfg.NetBandwidth, int64(3e6)},
		{"CacheCapacity", cfg.CacheCapacity, int64(4096)},
		{"CacheAuto", cfg.CacheAuto, false},
		{"CacheMode", cfg.CacheMode, compress.Zlib1},
		{"CachePolicyAuto", cfg.CachePolicyAuto, false},
		{"CachePolicy", cfg.CachePolicy, cache.Clock},
		{"MsgCodec", *cfg.MsgCodec, compress.Snappy},
		{"Replication", cfg.Replication, core.OnDemand},
		{"BloomSkip", cfg.BloomSkip, false},
		{"CheckpointEvery", cfg.CheckpointEvery, 4},
		{"FailureTimeout", cfg.FailureTimeout, 1500 * time.Millisecond},
		{"Faults", cfg.Faults, plan},
		{"WorkDir", cfg.WorkDir, "/tmp/graphh-knobs"},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestEngineConfigAutoSelectDefaults(t *testing.T) {
	cfg, err := Options{}.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.CacheAuto {
		t.Error("nil CacheMode must leave automatic cache-mode selection on")
	}
	if !cfg.CachePolicyAuto {
		t.Error("nil CachePolicy must leave automatic policy selection on")
	}
	if cfg.MsgCodec != nil {
		t.Errorf("nil MessageCodec must leave the codec to the per-job cost model, got %v", *cfg.MsgCodec)
	}
	if cfg.Comm != comm.Auto {
		t.Errorf("default wire encoding must be hybrid, got %v", cfg.Comm)
	}
	if cfg.Replication != core.AllInAll {
		t.Errorf("default replication must be All-in-All, got %v", cfg.Replication)
	}
	if !cfg.BloomSkip {
		t.Error("Bloom tile skipping must default on")
	}
	if cfg.PrefetchDepth != 0 {
		t.Errorf("prefetch depth must default to automatic sizing, got %d", cfg.PrefetchDepth)
	}
	if cfg.Residency != core.ResidencyAuto {
		t.Errorf("residency must default to auto, got %v", cfg.Residency)
	}
}

func TestEngineConfigCommModes(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		want  comm.ModeChoice
		isErr bool
	}{
		{"hybrid", Options{}, comm.Auto, false},
		{"dense", Options{ForceDense: true}, comm.ForceDense, false},
		{"sparse", Options{ForceSparse: true}, comm.ForceSparse, false},
		{"both", Options{ForceDense: true, ForceSparse: true}, comm.Auto, true},
	}
	for _, c := range cases {
		cfg, err := c.opts.engineConfig()
		if c.isErr {
			if err == nil {
				t.Errorf("%s: contradictory encoding options were accepted", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if cfg.Comm != c.want {
			t.Errorf("%s: got %v, want %v", c.name, cfg.Comm, c.want)
		}
	}
}

// TestRunRejectsContradictoryEncoding pins the public behaviour: both Run
// and Open must refuse ForceDense+ForceSparse instead of silently keeping
// hybrid.
func TestRunRejectsContradictoryEncoding(t *testing.T) {
	g := GenerateRMAT(50, 200, 3)
	p, err := Partition(g, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{ForceDense: true, ForceSparse: true, WorkDir: t.TempDir()}
	if _, err := Run(p, NewPageRank(), bad); err == nil {
		t.Fatal("Run accepted ForceDense+ForceSparse")
	}
	if _, err := Open(p, bad); err == nil {
		t.Fatal("Open accepted ForceDense+ForceSparse")
	}
}
