package bench

import (
	"bytes"
	"strings"
	"testing"
)

// smokeContext is a tiny configuration so every experiment runs in seconds.
func smokeContext() *Context {
	c := NewContext()
	c.Scale = 0.01
	c.Servers = 3
	c.Supersteps = 3
	c.DiskBW = 0 // unthrottled for smoke tests
	c.NetBW = 0
	return c
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"t1", "t2", "t3", "t4", "t5",
		"f1a", "f1b", "f6a", "f6b", "f7", "f7b",
		"f8a", "f8b", "f8c", "f8d", "f9", "f10",
		"a1", "a2", "a3", "a4", "a5",
		"ooc", "multijob",
	}
	all := All()
	byID := map[string]bool{}
	for _, e := range all {
		byID[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !byID[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(all) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(all), len(want))
	}
	if _, err := ByID("f9"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short mode")
	}
	c := smokeContext()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(c, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestDatasetMemoization(t *testing.T) {
	c := smokeContext()
	a, err := c.Dataset("twitter-sim")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Dataset("twitter-sim")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not memoized")
	}
	p1, err := c.Partitioned("twitter-sim")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Partitioned("twitter-sim")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("partition not memoized")
	}
	if _, err := c.Dataset("bogus"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestTable1MentionsAllDatasets(t *testing.T) {
	c := smokeContext()
	var buf bytes.Buffer
	e, err := ByID("t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(c, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"twitter-sim", "uk2007-sim", "uk2014-sim", "eu2015-sim"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table I output missing %s:\n%s", name, out)
		}
	}
}
