package webmodel

import (
	"testing"
	"time"

	"spacecdn/internal/stats"
)

func fixedRTT(ms float64) func(*stats.Rand) time.Duration {
	return func(*stats.Rand) time.Duration {
		return time.Duration(ms * float64(time.Millisecond))
	}
}

func baseParams(rttMs float64) NetParams {
	return NetParams{
		RTTSample:    fixedRTT(rttMs),
		DownlinkMbps: 100,
		DNSCachedP:   1, // deterministic: skip DNS
		Connections:  6,
	}
}

func TestTop20PagesShape(t *testing.T) {
	pages := Top20Pages(1)
	if len(pages) != 20 {
		t.Fatalf("pages = %d", len(pages))
	}
	for _, p := range pages {
		if p.HTMLBytes < 10<<10 {
			t.Errorf("page %s HTML too small: %d", p.Name, p.HTMLBytes)
		}
		if len(p.Critical) < 6 || len(p.Critical) > 12 {
			t.Errorf("page %s critical count %d out of range", p.Name, len(p.Critical))
		}
		for _, b := range p.Critical {
			if b < 5<<10 {
				t.Errorf("page %s has tiny critical asset %d", p.Name, b)
			}
		}
		if p.TotalBytes() <= p.HTMLBytes {
			t.Errorf("page %s TotalBytes inconsistent", p.Name)
		}
	}
	// Deterministic.
	again := Top20Pages(1)
	for i := range pages {
		if pages[i].Name != again[i].Name || pages[i].HTMLBytes != again[i].HTMLBytes {
			t.Fatal("Top20Pages not deterministic")
		}
	}
}

func TestValidation(t *testing.T) {
	rng := stats.NewRand(1)
	page := Top20Pages(1)[0]
	bad := baseParams(20)
	bad.RTTSample = nil
	if _, err := LoadPage(page, bad, rng); err == nil {
		t.Error("nil RTTSample accepted")
	}
	bad = baseParams(20)
	bad.DownlinkMbps = 0
	if _, err := LoadPage(page, bad, rng); err == nil {
		t.Error("zero downlink accepted")
	}
	bad = baseParams(20)
	bad.Connections = 0
	if _, err := LoadPage(page, bad, rng); err == nil {
		t.Error("zero connections accepted")
	}
}

func TestHRTDefinition(t *testing.T) {
	// HRT = one RTT + server processing, nothing else.
	rng := stats.NewRand(2)
	page := Page{Name: "p", HTMLBytes: 100 << 10, Critical: []int64{50 << 10}, ServerProcMs: 10}
	res, err := LoadPage(page, baseParams(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * time.Millisecond
	if res.HRT != want {
		t.Errorf("HRT = %v, want %v", res.HRT, want)
	}
	// DNS skipped (cached), connect and TLS each one RTT.
	if res.DNS != 0 || res.Connect != 40*time.Millisecond || res.TLS != 40*time.Millisecond {
		t.Errorf("phases: dns=%v connect=%v tls=%v", res.DNS, res.Connect, res.TLS)
	}
}

func TestFCPIncludesEverything(t *testing.T) {
	rng := stats.NewRand(3)
	page := Page{Name: "p", HTMLBytes: 200 << 10, Critical: []int64{100 << 10, 100 << 10}, ServerProcMs: 5}
	res, err := LoadPage(page, baseParams(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: connect + TLS + HRT + render + at least one wave RTT.
	min := 30*time.Millisecond*3 + 5*time.Millisecond + renderDelay + 30*time.Millisecond
	if res.FCP < min {
		t.Errorf("FCP = %v below structural minimum %v", res.FCP, min)
	}
	if res.Bytes != page.TotalBytes() {
		t.Errorf("bytes = %d, want %d", res.Bytes, page.TotalBytes())
	}
	if res.FCP < res.HRT {
		t.Error("FCP must include HRT")
	}
}

func TestRTTDominatesFCP(t *testing.T) {
	// Same page, same bandwidth: 40 ms RTT access must paint later than
	// 10 ms RTT access, by at least several RTT differences.
	page := Top20Pages(5)[0]
	fast, err := LoadPage(page, baseParams(10), stats.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := LoadPage(page, baseParams(40), stats.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	gap := slow.FCP - fast.FCP
	if gap < 90*time.Millisecond { // >= 3 exchanges * 30 ms
		t.Errorf("FCP gap = %v, want >= 90ms for a 30ms RTT difference", gap)
	}
}

func TestBandwidthMattersForHeavyPages(t *testing.T) {
	page := Page{Name: "heavy", HTMLBytes: 2 << 20, Critical: []int64{3 << 20, 3 << 20}, ServerProcMs: 5}
	fast := baseParams(20)
	fast.DownlinkMbps = 200
	slow := baseParams(20)
	slow.DownlinkMbps = 20
	rf, err := LoadPage(page, fast, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := LoadPage(page, slow, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if rs.FCP < rf.FCP+time.Second {
		t.Errorf("20 Mbps FCP %v should lag 200 Mbps FCP %v by seconds on an 8 MB page", rs.FCP, rf.FCP)
	}
}

func TestExchangeJitterShiftsFCP(t *testing.T) {
	// Satellite-style per-exchange jitter must show up multiple times in
	// FCP (the paper's ~200 ms Starlink FCP gap despite similar baseline
	// RTTs).
	page := Top20Pages(9)[3]
	plain := baseParams(15)
	jittery := baseParams(15)
	jittery.ExchangeJitter = func(rng *stats.Rand) time.Duration {
		return time.Duration(rng.Uniform(10, 20) * float64(time.Millisecond))
	}
	var gapSum time.Duration
	n := 50
	for i := 0; i < n; i++ {
		a, err := LoadPage(page, plain, stats.NewRand(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := LoadPage(page, jittery, stats.NewRand(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		gapSum += b.FCP - a.FCP
	}
	avgGap := gapSum / time.Duration(n)
	if avgGap < 30*time.Millisecond {
		t.Errorf("average jitter-induced FCP gap = %v, want >= 30ms", avgGap)
	}
}

func TestDNSCachedProbability(t *testing.T) {
	page := Top20Pages(1)[0]
	p := baseParams(20)
	p.DNSCachedP = 0 // always resolve
	res, err := LoadPage(page, p, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.DNS != 20*time.Millisecond {
		t.Errorf("DNS = %v, want 20ms", res.DNS)
	}
}

func TestLoadMany(t *testing.T) {
	pages := Top20Pages(2)[:3]
	rs, err := LoadMany(pages, baseParams(25), 4, stats.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 12 {
		t.Fatalf("results = %d, want 12", len(rs))
	}
	h := HRTs(rs)
	f := FCPs(rs)
	if len(h) != 12 || len(f) != 12 {
		t.Fatal("extractors wrong length")
	}
	for i := range rs {
		if f[i] < h[i] {
			t.Errorf("FCP %v < HRT %v at %d", f[i], h[i], i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	pages := Top20Pages(3)[:2]
	p := baseParams(22)
	p.DNSCachedP = 0.5
	p.ExchangeJitter = func(rng *stats.Rand) time.Duration {
		return time.Duration(rng.Uniform(0, 10) * float64(time.Millisecond))
	}
	a, err := LoadMany(pages, p, 3, stats.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadMany(pages, p, 3, stats.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loads not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDownloadTimePerSegmentTruncation pins the closed form with values
// worked out by hand at 7 Mbit/s, where one byte takes 1142.857… ns: each
// 64 KiB segment is truncated to the nanosecond on its own, so a transfer
// is not the truncated time of its total bytes.
func TestDownloadTimePerSegmentTruncation(t *testing.T) {
	const rate = 7e6
	for _, tc := range []struct {
		bytes int64
		want  time.Duration
	}{
		{0, 0},
		{1, 1142},             // 1142.857…
		{65535, 74897142},     // 74,897,142.857…
		{65536, 74898285},     // one full segment: 74,898,285.714…
		{65537, 74899427},     // 74,898,285 + 1,142 (whole: …428)
		{3000000, 3428571396}, // 45 × 74,898,285 + 50,880 B → 58,148,571
	} {
		if got := downloadTime(tc.bytes, rate); got != tc.want {
			t.Errorf("downloadTime(%d) = %d ns, want %d ns", tc.bytes, got, tc.want)
		}
	}
}
