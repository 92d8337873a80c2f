package main

import (
	"strings"
	"testing"
	"time"

	"spacecdn/internal/spacecdn"
)

// A green check only means something if the validator rejects corrupted
// outputs; every test here corrupts one thing.

var testLimits = limits{MinISLHops: 1, MaxHops: 10, TotalSats: 1584, RTTFloor: 3669 * time.Microsecond, Step: 15 * time.Second}

func validObservation(epoch uint64) observation {
	return observation{
		Source: int(spacecdn.SourceISL), Sat: 7, Hops: 3, RTT: 40 * time.Millisecond,
		Epoch: epoch, TMs: int64(epoch-1) * 15000,
	}
}

func (v *validator) total() int64 {
	var n int64
	for _, c := range v.counts {
		n += c
	}
	return n
}

func TestValidatorAcceptsValidSequence(t *testing.T) {
	v := validator{lim: testLimits}
	for e := uint64(1); e <= 5; e++ {
		v.observe(validObservation(e))
		v.observe(observation{Source: int(spacecdn.SourceOverhead), Sat: 0, Hops: 0, RTT: 5 * time.Millisecond, Epoch: e, TMs: int64(e-1) * 15000})
		v.observe(observation{Source: int(spacecdn.SourceGround), RTT: 90 * time.Millisecond, Epoch: e, TMs: int64(e-1) * 15000})
	}
	if n := v.total(); n != 0 {
		t.Fatalf("valid sequence produced %d violations: %v", n, v.counts)
	}
}

func TestValidatorRejectsCorruptedOutputs(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(o *observation)
		want    violation
	}{
		{"unknown source", func(o *observation) { o.Source = -1 }, badSource},
		{"source past the enum", func(o *observation) { o.Source = 3 }, badSource},
		{"hops over the bound", func(o *observation) { o.Hops = 11 }, badHops},
		{"isl with zero hops", func(o *observation) { o.Hops = 0 }, badHops},
		{"overhead with hops", func(o *observation) { o.Source = int(spacecdn.SourceOverhead) }, badHops},
		{"satellite outside the fleet", func(o *observation) { o.Sat = 1584 }, badSat},
		{"negative satellite", func(o *observation) { o.Sat = -1 }, badSat},
		{"RTT under the physical floor", func(o *observation) { o.RTT = 3 * time.Millisecond }, badRTT},
		{"t_ms not matching the epoch", func(o *observation) { o.TMs += 15000 }, badEpochTime},
		{"epoch zero", func(o *observation) { o.Epoch, o.TMs = 0, -15000 }, badEpochTime},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := validator{lim: testLimits}
			o := validObservation(4)
			tc.corrupt(&o)
			v.observe(o)
			if v.counts[tc.want] != 1 {
				t.Fatalf("want one %q violation, got %v", tc.want, v.counts)
			}
			var rep checkReport
			rep.checkViolations(v.counts)
			if rep.ok() {
				t.Fatal("check passed on a corrupted output")
			}
		})
	}
}

func TestValidatorRejectsEpochGoingBackwards(t *testing.T) {
	v := validator{lim: testLimits}
	v.observe(validObservation(9))
	v.observe(validObservation(8))
	if v.counts[epochRewound] != 1 {
		t.Fatalf("want one rewound epoch, got %v", v.counts)
	}
	v.observe(validObservation(8)) // staying on an epoch is fine
	if v.counts[epochRewound] != 1 {
		t.Fatalf("repeated epoch counted as rewound: %v", v.counts)
	}
}

func TestLiveApplierAllowsZeroHopISL(t *testing.T) {
	lim := testLimits
	lim.MinISLHops = 0
	v := validator{lim: lim}
	o := validObservation(2)
	o.Hops = 0
	v.observe(o)
	if v.total() != 0 {
		t.Fatalf("zero-hop ISL rejected under a live applier: %v", v.counts)
	}
}

func TestAccountingRejectsDroppedResponse(t *testing.T) {
	var rep checkReport
	rep.checkAccounting(1000, 999, 1, 999, 1)
	if !rep.ok() {
		t.Fatalf("balanced accounting rejected: %v", rep.Failures)
	}
	for name, args := range map[string][5]int64{
		"server served one more than the clients saw": {1000, 999, 1, 1000, 1},
		"clients invented a response":                 {1000, 1000, 0, 999, 0},
		"server error the clients never saw":          {1000, 1000, 0, 1000, 1},
		"attempted does not add up":                   {1001, 999, 1, 999, 1},
	} {
		var rep checkReport
		rep.checkAccounting(args[0], args[1], args[2], args[3], args[4])
		if rep.ok() {
			t.Errorf("%s: accounting check passed", name)
		}
	}
}

func TestFailedShareThreshold(t *testing.T) {
	var rep checkReport
	rep.checkFailedShare(100000, 500)
	if !rep.ok() {
		t.Fatalf("0.5 %% failed rejected: %v", rep.Failures)
	}
	rep.checkFailedShare(100000, 501)
	if rep.ok() {
		t.Fatal("over 0.5 % failed accepted")
	}
	rep = checkReport{}
	rep.checkFailedShare(0, 0)
	if rep.ok() {
		t.Fatal("a run that attempted nothing accepted")
	}
}

func TestStreamHashSeesEveryField(t *testing.T) {
	base := []spacecdn.BatchResult{
		{Resolution: spacecdn.Resolution{Source: spacecdn.SourceISL, Sat: 4, Hops: 2, RTT: 30 * time.Millisecond}},
		{Resolution: spacecdn.Resolution{Source: spacecdn.SourceGround, RTT: 80 * time.Millisecond}},
	}
	hashOf := func(rs []spacecdn.BatchResult) uint64 {
		h := newStreamHash()
		for _, r := range rs {
			h.add(r)
		}
		return h.h
	}
	want := hashOf(base)
	if hashOf(base) != want {
		t.Fatal("hash is not a function of the stream")
	}
	mutations := map[string]func(r *spacecdn.BatchResult){
		"source": func(r *spacecdn.BatchResult) { r.Source = spacecdn.SourceOverhead },
		"sat":    func(r *spacecdn.BatchResult) { r.Sat++ },
		"hops":   func(r *spacecdn.BatchResult) { r.Hops++ },
		"rtt":    func(r *spacecdn.BatchResult) { r.RTT++ },
		"error":  func(r *spacecdn.BatchResult) { r.Err = errTest },
	}
	for name, mutate := range mutations {
		rs := append([]spacecdn.BatchResult(nil), base...)
		mutate(&rs[0])
		if hashOf(rs) == want {
			t.Errorf("changing %s left the hash unchanged", name)
		}
	}
	swapped := []spacecdn.BatchResult{base[1], base[0]}
	if hashOf(swapped) == want {
		t.Error("reordering the stream left the hash unchanged")
	}
	// A stream that differs between worker counts fails check (1).
	var rep checkReport
	rep.checkStreamHash(want, hashOf(swapped))
	if rep.ok() || !strings.Contains(rep.Failures[0], "determinism") {
		t.Fatalf("differing worker-count hashes accepted: %v", rep.Failures)
	}
	rep = checkReport{}
	rep.checkStreamHash(want, want)
	if !rep.ok() {
		t.Fatalf("equal hashes rejected: %v", rep.Failures)
	}
}

var errTest = testError("resolve failed")

type testError string

func (e testError) Error() string { return string(e) }

func TestParseBody(t *testing.T) {
	good := `{"epoch":12,"t_ms":165000,"source":"isl","sat":881,"hops":4,"rtt_us":41250}` + "\n"
	o, ok := parseBody([]byte(good))
	want := observation{Source: int(spacecdn.SourceISL), Sat: 881, Hops: 4, RTT: 41250 * time.Microsecond, Epoch: 12, TMs: 165000}
	if !ok || o != want {
		t.Fatalf("parseBody(%q) = %+v, %v; want %+v", good, o, ok, want)
	}
	if o, ok := parseBody([]byte(strings.Replace(good, "isl", "moon", 1))); !ok || o.Source != -1 {
		t.Fatalf("unknown source name must parse and be flagged, got %+v, %v", o, ok)
	}
	for name, body := range map[string]string{
		"empty":            "",
		"truncated":        good[:len(good)-2],
		"missing newline":  strings.TrimSuffix(good, "\n"),
		"seventh field":    strings.Replace(good, "}", `,"x":1}`, 1),
		"field missing":    strings.Replace(good, `,"hops":4`, "", 1),
		"fields reordered": `{"t_ms":165000,"epoch":12,"source":"isl","sat":881,"hops":4,"rtt_us":41250}` + "\n",
		"number missing":   strings.Replace(good, `"sat":881`, `"sat":`, 1),
		"trailing bytes":   good + "x",
		"an error page":    "spacecdn: no satellite visible\n",
	} {
		if _, ok := parseBody([]byte(body)); ok {
			t.Errorf("%s: malformed body accepted: %q", name, body)
		}
	}
}

func TestNoisyGuard(t *testing.T) {
	if noisy([]float64{100, 101, 99, 100, 130}) {
		t.Error("one outlier of five marked the attempt noisy")
	}
	if noisy([]float64{100, 101, 99, 70, 130}) {
		t.Error("two outliers of five marked the attempt noisy")
	}
	if !noisy([]float64{100, 140, 60, 70, 130}) {
		t.Error("three outliers of five not marked noisy")
	}
}

func TestJudge(t *testing.T) {
	lower := e2eSpec{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := e2eSpec{Name: "req_per_s", Unit: "req/s", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary { return summarize([]float64{v * 0.99, v * 0.995, v, v * 1.005, v * 1.01}) }
	loose := func(v float64) summary { return summarize([]float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2}) }
	cases := []struct {
		name      string
		m         e2eSpec
		base, cur summary
		want      string
	}{
		{"lower: within bound", lower, tight(100), tight(109), verdictOK},
		{"lower: over bound", lower, tight(100), tight(111), verdictWorse},
		{"lower: improvement", lower, tight(100), tight(50), verdictOK},
		{"higher: within bound", higher, tight(100), tight(91), verdictOK},
		{"higher: under bound", higher, tight(100), tight(89), verdictWorse},
		{"spread wider than the bound", lower, loose(100), tight(100), verdictUnresolved},
		{"worse wins over unresolved", lower, loose(100), tight(120), verdictWorse},
	}
	for _, tc := range cases {
		if got := judge(tc.m, tc.base, tc.cur).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	got, want := summarize([]float64{7, 1, 11, 2, 4}).spread(), (9.0-1.5)/4.0
	if got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if s := summarize([]float64{3}).spread(); s != 0 {
		t.Fatalf("single value has spread %v", s)
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want within 1 %% of %v", q, got, want)
		}
	}
	if got := h.beyond(0.99); got != 1000 {
		t.Errorf("beyond(0.99) = %d, want 1000", got)
	}
	for _, v := range []int64{0, 1, 127, 128, 255, 256, 257, 1 << 20, 1<<40 + 12345} {
		low, width := histBounds(histBucket(v))
		if float64(v) < low || float64(v) >= low+width {
			t.Errorf("value %d landed in bucket [%v, %v)", v, low, low+width)
		}
	}
}
