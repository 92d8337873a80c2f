package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind types one stage of a request's latency budget.
type SpanKind int

// The resolve-path stages, in wire order. numSpanKinds must stay last — the
// name table below is sized by it, so an added kind without a name fails the
// exhaustiveness test.
const (
	// SpanUplink is the two-way terminal<->satellite radio leg.
	SpanUplink SpanKind = iota
	// SpanSched is access-link scheduling: MAC frame alignment, grant
	// cycles, gateway processing and jitter residue.
	SpanSched
	// SpanISLHop is one inter-satellite laser hop (two-way), tagged with its
	// 1-based hop index.
	SpanISLHop
	// SpanGroundRTT is the two-way satellite->ground-station->PoP tail of a
	// bent-pipe fallback.
	SpanGroundRTT
	// SpanCacheProbe is a cache lookup on the serving path.
	SpanCacheProbe

	numSpanKinds // keep last
)

// spanKindNames is the exhaustive name table; indexed by SpanKind.
var spanKindNames = [numSpanKinds]string{
	SpanUplink:     "uplink",
	SpanSched:      "sched",
	SpanISLHop:     "isl-hop",
	SpanGroundRTT:  "ground-rtt",
	SpanCacheProbe: "cache-probe",
}

func (k SpanKind) String() string {
	if k < 0 || k >= numSpanKinds || spanKindNames[k] == "" {
		return fmt.Sprintf("spankind(%d)", int(k))
	}
	return spanKindNames[k]
}

// SpanKindFromString inverts String for the named kinds.
func SpanKindFromString(s string) (SpanKind, bool) {
	for k, name := range spanKindNames {
		if name == s {
			return SpanKind(k), true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its name, keeping trace artifacts
// readable.
func (k SpanKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the name form produced by MarshalJSON.
func (k *SpanKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	got, ok := SpanKindFromString(s)
	if !ok {
		return fmt.Errorf("telemetry: unknown span kind %q", s)
	}
	*k = got
	return nil
}

// Span is one timed stage of a request.
type Span struct {
	Kind SpanKind `json:"kind"`
	// Hop is the 1-based hop index for SpanISLHop spans, 0 otherwise.
	Hop int `json:"hop,omitempty"`
	// Dur is the stage's contribution to the request's RTT.
	Dur time.Duration `json:"durNs"`
}

// RequestTrace is the hop-by-hop record of one resolved request. Span
// durations sum to RTT exactly — the trace is a decomposition, not a
// re-measurement.
type RequestTrace struct {
	// Seq is the request's arrival number at the trace sink (TraceSink.Sample).
	Seq uint64 `json:"seq"`
	// Source names where the request was served from (spacecdn.Source).
	Source string `json:"source"`
	// Sat is the serving satellite index (-1 when served from the ground).
	Sat int `json:"sat"`
	// Hops is the ISL hop count on the serving path.
	Hops int `json:"hops"`
	// RTT is the client-observed round trip.
	RTT   time.Duration `json:"rttNs"`
	Spans []Span        `json:"spans"`
}

// SpanSum returns the sum of span durations; equal to RTT for well-formed
// traces.
func (t RequestTrace) SpanSum() time.Duration {
	var sum time.Duration
	for _, s := range t.Spans {
		sum += s.Dur
	}
	return sum
}

// TraceSink retains a sampled subset of traces in a fixed ring buffer:
// deterministic 1-in-stride sampling (no RNG, so runs stay reproducible),
// oldest traces overwritten once the ring is full. A nil *TraceSink never
// samples. Safe for concurrent use.
type TraceSink struct {
	stride uint64 // sample every stride-th request; 0 = disabled
	seen   atomic.Uint64

	mu      sync.Mutex
	ring    []RequestTrace
	next    int
	sampled uint64
}

// NewTraceSink creates a sink sampling the given fraction of requests
// (clamped to [0,1]; 0 disables) into a ring of the given capacity. A
// non-positive capacity with sampling enabled clamps to
// DefaultTraceCapacity — a positive sample rate that silently retained
// nothing would be a wiring footgun, not a configuration.
func NewTraceSink(sampleRate float64, capacity int) *TraceSink {
	if sampleRate <= 0 {
		return &TraceSink{}
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if sampleRate > 1 {
		sampleRate = 1
	}
	stride := uint64(1 / sampleRate)
	if stride < 1 {
		stride = 1
	}
	return &TraceSink{stride: stride, ring: make([]RequestTrace, 0, capacity)}
}

// Sample counts one arriving request and reports whether the caller should
// record a trace for it, and under which sequence number: the request's
// 1-based arrival rank at the sink, which therefore doubles as the trace
// identity (one shared write per request, not a counter each). The first
// request is always sampled when sampling is enabled; a disabled sink counts
// nothing.
func (s *TraceSink) Sample() (seq uint64, ok bool) {
	if s == nil || s.stride == 0 {
		return 0, false
	}
	seq = s.seen.Add(1)
	return seq, (seq-1)%s.stride == 0
}

// Add retains a copy of a trace, evicting the oldest when the ring is full.
// The spans are copied into the ring slot's own array, which the slot keeps
// and reuses, so the caller may build them in a buffer of its own, and a
// full ring retains traces without allocating.
func (s *TraceSink) Add(t RequestTrace) {
	if s == nil || s.stride == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampled++
	var slot *RequestTrace
	if len(s.ring) < cap(s.ring) {
		s.ring = s.ring[:len(s.ring)+1]
		slot = &s.ring[len(s.ring)-1]
	} else {
		slot = &s.ring[s.next]
		s.next = (s.next + 1) % len(s.ring)
	}
	// Field by field, not *slot = t: t.Spans must not be stored.
	slot.Seq, slot.Source, slot.Sat, slot.Hops, slot.RTT = t.Seq, t.Source, t.Sat, t.Hops, t.RTT
	slot.Spans = append(slot.Spans[:0], t.Spans...)
}

// Traces returns copies of the retained traces, oldest first.
func (s *TraceSink) Traces() []RequestTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RequestTrace, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	for i := range out {
		out[i].Spans = append([]Span(nil), out[i].Spans...)
	}
	return out
}

// Seen returns how many requests passed through Sample.
func (s *TraceSink) Seen() uint64 {
	if s == nil {
		return 0
	}
	return s.seen.Load()
}

// Sampled returns how many traces were retained (including since-evicted
// ones).
func (s *TraceSink) Sampled() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampled
}
