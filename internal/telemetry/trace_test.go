package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanKindTableExhaustive round-trips every kind through the name table,
// catching silently-added constants without names.
func TestSpanKindTableExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for k := SpanKind(0); k < numSpanKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "spankind(") {
			t.Fatalf("SpanKind %d has no name table entry", int(k))
		}
		if seen[name] {
			t.Fatalf("duplicate span kind name %q", name)
		}
		seen[name] = true
		back, ok := SpanKindFromString(name)
		if !ok || back != k {
			t.Fatalf("round trip %q -> %v, want %v", name, back, k)
		}
	}
	if _, ok := SpanKindFromString("no-such-kind"); ok {
		t.Error("unknown name must not parse")
	}
	if got := SpanKind(99).String(); got != "spankind(99)" {
		t.Errorf("out-of-range stringer = %q", got)
	}
}

func TestSpanKindJSONRoundTrip(t *testing.T) {
	in := Span{Kind: SpanISLHop, Hop: 3, Dur: 7 * time.Millisecond}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"isl-hop"`) {
		t.Fatalf("span JSON %s lacks kind name", b)
	}
	var out Span
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	var bad Span
	if err := json.Unmarshal([]byte(`{"kind":"bogus"}`), &bad); err == nil {
		t.Error("unknown kind must fail to unmarshal")
	}
}

func TestTraceSpanSum(t *testing.T) {
	tr := RequestTrace{
		RTT: 10 * time.Millisecond,
		Spans: []Span{
			{Kind: SpanUplink, Dur: 4 * time.Millisecond},
			{Kind: SpanISLHop, Hop: 1, Dur: 3 * time.Millisecond},
			{Kind: SpanSched, Dur: 3 * time.Millisecond},
		},
	}
	if tr.SpanSum() != tr.RTT {
		t.Fatalf("span sum %v != rtt %v", tr.SpanSum(), tr.RTT)
	}
}

func TestTraceSinkSamplingStride(t *testing.T) {
	s := NewTraceSink(0.25, 100) // stride 4
	sampled := 0
	for i := 0; i < 100; i++ {
		if _, ok := s.Sample(); ok {
			sampled++
			s.Add(RequestTrace{Seq: uint64(i)})
		}
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at rate 0.25", sampled)
	}
	if s.Seen() != 100 || s.Sampled() != 25 {
		t.Fatalf("seen=%d sampled=%d", s.Seen(), s.Sampled())
	}
	if got := s.Traces(); len(got) != 25 || got[0].Seq != 0 {
		t.Fatalf("traces len=%d first=%+v", len(got), got[0])
	}
}

func TestTraceSinkFirstRequestSampled(t *testing.T) {
	s := NewTraceSink(0.01, 10)
	if _, ok := s.Sample(); !ok {
		t.Fatal("first request must be sampled so short runs still emit a trace")
	}
}

func TestTraceSinkRingEviction(t *testing.T) {
	s := NewTraceSink(1, 4)
	for i := 0; i < 10; i++ {
		if _, ok := s.Sample(); ok {
			s.Add(RequestTrace{Seq: uint64(i)})
		}
	}
	got := s.Traces()
	if len(got) != 4 {
		t.Fatalf("ring len = %d, want 4", len(got))
	}
	for i, tr := range got {
		if want := uint64(6 + i); tr.Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d (oldest first)", i, tr.Seq, want)
		}
	}
	if s.Sampled() != 10 {
		t.Errorf("sampled = %d, want 10", s.Sampled())
	}
}

// TestTraceSinkCopiesSpans: Add keeps its own copy of the spans, so a
// caller may build the next trace in the same buffer; Traces hands out
// copies, so a reader never sees a slot being reused; and a full ring
// retains traces without allocating.
func TestTraceSinkCopiesSpans(t *testing.T) {
	s := NewTraceSink(1, 4)
	buf := []Span{{Kind: SpanUplink, Dur: 1}, {Kind: SpanSched, Dur: 2}}
	s.Add(RequestTrace{Seq: 1, Source: "overhead", RTT: 3, Spans: buf})
	buf[0].Dur = 99
	got := s.Traces()
	if len(got) != 1 || got[0].Seq != 1 || got[0].Source != "overhead" || got[0].SpanSum() != 3 {
		t.Fatalf("retained %+v, want the trace as added", got)
	}
	got[0].Spans[0].Dur = 42
	for i := 0; i < 8; i++ { // wrap the ring twice: every slot is reused
		s.Add(RequestTrace{Seq: uint64(2 + i), Spans: buf[:1]})
	}
	if got[0].Spans[0].Dur != 42 || got[0].Spans[1].Dur != 2 {
		t.Fatalf("a returned trace changed under ring reuse: %+v", got[0].Spans)
	}
	if n := testing.AllocsPerRun(100, func() { s.Add(RequestTrace{Seq: 1, Spans: buf}) }); n != 0 {
		t.Fatalf("Add into a full ring allocates %v per op, want 0", n)
	}
}

func TestTraceSinkDisabled(t *testing.T) {
	for _, s := range []*TraceSink{NewTraceSink(0, 10), NewTraceSink(-1, 10), NewTraceSink(0, 0)} {
		if _, ok := s.Sample(); ok {
			t.Error("disabled sink must not sample")
		}
		s.Add(RequestTrace{})
		if len(s.Traces()) != 0 {
			t.Error("disabled sink must retain nothing")
		}
	}
}

// A positive sample rate with a non-positive capacity used to construct a
// sink that silently retained nothing — the -trace-sample-without-capacity
// footgun. It now clamps to the default ring.
func TestTraceSinkCapacityClamp(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		s := NewTraceSink(1, capacity)
		if _, ok := s.Sample(); !ok {
			t.Fatalf("capacity %d: sampling-enabled sink must sample", capacity)
		}
		s.Add(RequestTrace{Seq: 1})
		if got := len(s.Traces()); got != 1 {
			t.Fatalf("capacity %d: retained %d traces, want 1", capacity, got)
		}
		if got := cap(s.ring); got != DefaultTraceCapacity {
			t.Fatalf("capacity %d: ring capacity %d, want DefaultTraceCapacity %d",
				capacity, got, DefaultTraceCapacity)
		}
	}
}
