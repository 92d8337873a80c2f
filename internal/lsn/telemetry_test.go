package lsn

import (
	"testing"

	"spacecdn/internal/telemetry"
)

// TestResolvePathTelemetry: lsn_path_compute_us observes path computations
// — a memo miss and an error here — and the error counter counts the error.
func TestResolvePathTelemetry(t *testing.T) {
	m := testModel()
	tel := telemetry.New(0)
	m.SetTelemetry(tel)
	snap := testConst.Snapshot(0)
	madrid := mustCity(t, "Madrid, ES")

	if _, err := m.ResolvePath(madrid.Loc, "ES", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResolvePath(madrid.Loc, "??", snap); err == nil {
		t.Fatal("unknown country must fail")
	}
	// A memo hit is not a computation: it reads no clock and observes
	// nothing.
	if _, err := m.ResolvePath(madrid.Loc, "ES", snap); err != nil {
		t.Fatal(err)
	}

	snapshot := tel.Snapshot()
	hv, ok := snapshot.Histogram("lsn_path_compute_us")
	if !ok || hv.Count != 2 {
		t.Fatalf("lsn_path_compute_us = %+v, want 2 observations", hv)
	}
	if hv.Sum <= 0 {
		t.Error("path compute wall time must be positive")
	}
	cv, ok := snapshot.Counter("lsn_path_errors_total", nil)
	if !ok || cv.Value != 1 {
		t.Fatalf("lsn_path_errors_total = %+v, want 1", cv)
	}

	// Detaching restores the uninstrumented path.
	m.SetTelemetry(nil)
	if _, err := m.ResolvePath(madrid.Loc, "ES", snap); err != nil {
		t.Fatal(err)
	}
	if hv2, _ := tel.Snapshot().Histogram("lsn_path_compute_us"); hv2.Count != 2 {
		t.Errorf("detached model still observed: %+v", hv2)
	}
}
