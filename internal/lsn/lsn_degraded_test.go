package lsn

import (
	"strings"
	"testing"

	"spacecdn/internal/faults"
	"spacecdn/internal/routing"
)

func TestResolveGroundHealthyViewMatchesResolvePath(t *testing.T) {
	m := testModel()
	snap := testConst.Snapshot(0)
	madrid := mustCity(t, "Madrid, ES")
	want, err := m.ResolvePath(madrid.Loc, "ES", snap)
	if err != nil {
		t.Fatal(err)
	}
	got, failover, err := m.ResolveGround(madrid.Loc, "ES", snap, &faults.View{})
	if err != nil {
		t.Fatal(err)
	}
	if failover {
		t.Fatal("healthy view must not fail over")
	}
	if got != want {
		t.Fatalf("degraded path over healthy view differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestResolveGroundDeadPoPFailsOver(t *testing.T) {
	m := testModel()
	snap := testConst.Snapshot(0)
	madrid := mustCity(t, "Madrid, ES")
	fv := &faults.View{Epoch: 1, DeadPoPs: map[string]bool{"mad": true}}
	p, failover, err := m.ResolveGround(madrid.Loc, "ES", snap, fv)
	if err != nil {
		t.Fatal(err)
	}
	if !failover {
		t.Fatal("dead assigned PoP must report a failover")
	}
	if p.PoP.Name == "mad" {
		t.Fatal("served from the blacked-out PoP")
	}
	// Nearest-first sweep: the replacement should be European, not another
	// continent.
	if p.PoP.Country != "ES" && !strings.Contains("DE GB FR IT", p.PoP.Country) {
		t.Logf("failover PoP = %s (%s)", p.PoP.Name, p.PoP.Country)
	}
	healthy, err := m.ResolvePath(madrid.Loc, "ES", snap)
	if err != nil {
		t.Fatal(err)
	}
	if p.OneWayPropagation() < healthy.OneWayPropagation() {
		t.Fatal("failover path cannot beat the healthy assignment")
	}
}

func TestResolveGroundAllPoPsDeadErrors(t *testing.T) {
	m := testModel()
	snap := testConst.Snapshot(0)
	madrid := mustCity(t, "Madrid, ES")
	fv := &faults.View{Epoch: 1, DeadPoPs: map[string]bool{}}
	for _, pop := range m.Ground.PoPs() {
		fv.DeadPoPs[strings.ToLower(pop.Name)] = true
	}
	_, failover, err := m.ResolveGround(madrid.Loc, "ES", snap, fv)
	if err == nil {
		t.Fatal("all PoPs dead must error")
	}
	if !failover {
		t.Fatal("a failed sweep is still a failover")
	}
}

func TestResolveGroundRoutesAroundDeadUplink(t *testing.T) {
	m := testModel()
	snap := testConst.Snapshot(0)
	madrid := mustCity(t, "Madrid, ES")
	healthy, err := m.ResolvePath(madrid.Loc, "ES", snap)
	if err != nil {
		t.Fatal(err)
	}
	deadSats := routing.NewBitset(testConst.Total())
	deadSats.Set(int(healthy.UpSat))
	p, failover, err := m.ResolveGround(madrid.Loc, "ES", snap, &faults.View{Epoch: 1, DeadSats: deadSats})
	if err != nil {
		t.Fatal(err)
	}
	if failover {
		t.Fatal("a dead satellite is not a PoP failover")
	}
	if p.UpSat == healthy.UpSat || p.DownSat == healthy.UpSat {
		t.Fatal("path still uses the dead satellite")
	}
}
