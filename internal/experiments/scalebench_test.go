package experiments

import "testing"

// TestScaleBench pins what the scale sweep computes rather than how fast:
// the constellation each fast-mode point deploys and the data-structure
// shapes the adaptive sizing rules give it. A resolve error at either scale
// fails the run; rates only have to exist.
func TestScaleBench(t *testing.T) {
	res, err := testSuite(t).ScaleBench()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name                     string
		sats, shells, rows, cols int
	}{
		{"shell1", 1584, 1, 18, 36},
		{"shell1+kuiper", 4820, 4, 25, 50},
	}
	if len(res.Points) != len(want) {
		t.Fatalf("fast sweep has %d points, want %d", len(res.Points), len(want))
	}
	for i, w := range want {
		p := res.Points[i]
		if p.Name != w.name || p.Sats != w.sats || p.Shells != w.shells ||
			p.GridRows != w.rows || p.GridCols != w.cols {
			t.Errorf("point %d = %+v, want %+v", i, p, w)
		}
		if p.Requests == 0 || p.SnapshotBuildMs <= 0 || p.SweepStepsPerSec <= 0 || p.ResolveReqPerSec <= 0 {
			t.Errorf("point %s: non-positive rate: %+v", p.Name, p)
		}
	}
}
