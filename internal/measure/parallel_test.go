package measure

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
)

// TestGenerateAIMWorkerInvariance: the dataset is byte-identical for any
// worker count — the per-city streams are forked before the fan-out and
// results merge in city order.
func TestGenerateAIMWorkerInvariance(t *testing.T) {
	e := testEnv(t)
	cfg := AIMConfig{
		TestsPerCity: 3,
		Snapshots:    []time.Duration{0, 29 * time.Minute},
		Seed:         11,
	}
	cfg.Workers = 1
	seq, err := e.GenerateAIM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := e.GenerateAIM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("empty dataset")
	}
	if !reflect.DeepEqual(seq, par) {
		for i := range seq {
			if i < len(par) && seq[i] != par[i] {
				t.Fatalf("record %d differs:\n  seq %+v\n  par %+v", i, seq[i], par[i])
			}
		}
		t.Fatalf("datasets differ in length: %d vs %d", len(seq), len(par))
	}
}

// TestRunNetMetWorkerInvariance: the paired campaign is identical for any
// worker count — each country's stream is keyed on its ISO code alone.
func TestRunNetMetWorkerInvariance(t *testing.T) {
	e := testEnv(t)
	cfg := WebConfig{
		Countries:    []string{"DE", "NG", "ES", "BR"},
		LoadsPerSite: 2,
		Snapshot:     0,
		Seed:         23,
	}
	cfg.Workers = 1
	seq, err := e.RunNetMet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := e.RunNetMet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("empty campaign")
	}
	if !reflect.DeepEqual(seq, par) {
		for i := range seq {
			if i < len(par) && seq[i] != par[i] {
				t.Fatalf("record %d differs:\n  seq %+v\n  par %+v", i, seq[i], par[i])
			}
		}
		t.Fatalf("campaigns differ in length: %d vs %d", len(seq), len(par))
	}
}

// TestSnapshotSharedUnderConcurrency: goroutines asking for the same instant
// all get the one stored *Snapshot (first store wins), goroutines asking for
// different instants get different ones, and a path resolves on every one.
// Under -race it also fails if the snapshot table loses its locking.
func TestSnapshotSharedUnderConcurrency(t *testing.T) {
	// A fresh, empty snapshot table over the shared models, so every run
	// (-count) has the goroutines race to build the instants, not read them.
	base := testEnv(t)
	e := &Environment{
		Constellation: base.Constellation,
		LSN:           base.LSN,
		snaps:         make(map[time.Duration]*constellation.Snapshot),
	}
	instants := []time.Duration{0, 19 * time.Minute, 38 * time.Minute}
	const workers = 8
	got := make([]*constellation.Snapshot, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = e.Snapshot(instants[g%len(instants)])
			loc := geo.NewPoint(50.11+float64(g%2), 8.68)
			_, errs[g] = e.LSN.ResolvePath(loc, "DE", got[g])
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Errorf("goroutine %d: ResolvePath: %v", g, errs[g])
		}
		if want := e.Snapshot(instants[g%len(instants)]); got[g] != want {
			t.Errorf("goroutine %d got snapshot %p for %v, want the stored %p",
				g, got[g], instants[g%len(instants)], want)
		}
	}
	if got[0] == got[1] || got[1] == got[2] || got[0] == got[2] {
		t.Error("different instants share a snapshot")
	}
}
