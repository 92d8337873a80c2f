package main

import (
	"fmt"
	"time"

	"spacecdn/internal/orbit"
	"spacecdn/internal/spacecdn"
)

// Output checks. Every response of every workload passes through a
// validator; the properties are the ones the simulator guarantees by
// construction (ROADMAP aim 3), so nothing here is a frozen golden and
// nothing depends on a reference implementation.

// violation is one way an output can be wrong.
type violation int

const (
	badSource    violation = iota // source outside {overhead, isl, ground}
	badHops                       // overhead with hops != 0, isl outside MinISLHops..MaxISLSearchHops
	badSat                        // space source with sat outside [0, Total)
	badRTT                        // RTT below two slant paths at the shell altitude
	badEpochTime                  // t_ms != (epoch-1)·Step
	epochRewound                  // epoch decreased on one client
	badBody                       // HTTP body is not the six appendResponse fields
	numViolations
)

var violationNames = [numViolations]string{
	badSource:    "unknown source",
	badHops:      "hops outside the bound for the source",
	badSat:       "satellite id outside the fleet",
	badRTT:       "RTT under the physical floor",
	badEpochTime: "t_ms does not match the epoch",
	epochRewound: "epoch went backwards",
	badBody:      "malformed response body",
}

func (v violation) String() string { return violationNames[v] }

// limits are the bounds a valid response stays inside.
type limits struct {
	// MinISLHops is 1 where placement is static. With a live lifecycle
	// applier it is 0: a pull-through fill can land on the overhead satellite
	// between the request's overhead probe and its replica search, and the
	// search then finds the copy zero hops away and reports it as ISL.
	MinISLHops int
	MaxHops    int
	TotalSats  int
	RTTFloor   time.Duration
	// Step is the sim time one epoch advances; zero skips the epoch checks
	// (sim-day has no epochs).
	Step time.Duration
}

func limitsFor(sys *spacecdn.System, step time.Duration) limits {
	c := sys.Constellation()
	alt := c.Config().Walker.AltitudeKm
	minHops := 1
	if sys.Lifecycle() != nil {
		minHops = 0
	}
	return limits{
		MinISLHops: minHops,
		MaxHops:    sys.Config().MaxISLSearchHops,
		TotalSats:  c.Total(),
		RTTFloor:   2 * orbit.PropagationDelay(alt),
		Step:       step,
	}
}

// observation is one response as a client saw it, whichever transport
// carried it.
type observation struct {
	Source int // spacecdn.Source, or -1 when the name was unknown
	Sat    int
	Hops   int
	RTT    time.Duration
	Epoch  uint64
	TMs    int64
}

// validator checks one client's response sequence. It is not safe for
// concurrent use: each client goroutine owns one.
type validator struct {
	lim       limits
	lastEpoch uint64
	counts    [numViolations]int64
}

func (v *validator) observe(o observation) {
	switch spacecdn.Source(o.Source) {
	case spacecdn.SourceOverhead:
		if o.Hops != 0 {
			v.counts[badHops]++
		}
	case spacecdn.SourceISL:
		if o.Hops < v.lim.MinISLHops || o.Hops > v.lim.MaxHops {
			v.counts[badHops]++
		}
	case spacecdn.SourceGround:
	default:
		v.counts[badSource]++
		return
	}
	if spacecdn.Source(o.Source) != spacecdn.SourceGround && (o.Sat < 0 || o.Sat >= v.lim.TotalSats) {
		v.counts[badSat]++
	}
	if o.RTT < v.lim.RTTFloor {
		v.counts[badRTT]++
	}
	if v.lim.Step > 0 {
		if o.Epoch < 1 || o.TMs != int64(o.Epoch-1)*int64(v.lim.Step/time.Millisecond) {
			v.counts[badEpochTime]++
		}
		if o.Epoch < v.lastEpoch {
			v.counts[epochRewound]++
		}
		v.lastEpoch = o.Epoch
	}
}

// checkReport collects the verdicts of one workload run.
type checkReport struct {
	Failures []string `json:"failures"`
}

func (c *checkReport) failf(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

func (c *checkReport) ok() bool { return len(c.Failures) == 0 }

// checkViolations is check (2): no response broke a property.
func (c *checkReport) checkViolations(counts [numViolations]int64) {
	for k, n := range counts {
		if n > 0 {
			c.failf("property: %d responses with %s", n, violation(k))
		}
	}
}

// checkAccounting is check (3): what the clients counted is what the server
// counted, so no response was dropped or invented on the way.
func (c *checkReport) checkAccounting(attempted, ok, failed, serverOK, serverErr int64) {
	if attempted != ok+failed {
		c.failf("accounting: attempted %d != ok %d + failed %d", attempted, ok, failed)
	}
	if ok != serverOK {
		c.failf("accounting: clients saw %d ok responses, server served %d", ok, serverOK)
	}
	if failed != serverErr {
		c.failf("accounting: clients saw %d failures, server counted %d errors", failed, serverErr)
	}
}

// maxFailedShare is check (5).
const maxFailedShare = 0.005

func (c *checkReport) checkFailedShare(attempted, failed int64) {
	if attempted < 1 {
		c.failf("failed share: nothing attempted")
		return
	}
	if share := float64(failed) / float64(attempted); share > maxFailedShare {
		c.failf("failed share: %d of %d requests failed (%.4f > %.4f)", failed, attempted, share, maxFailedShare)
	}
}

// checkStreamHash is check (1): sim-day is deterministic, so the measured
// run and a one-worker run on a fresh system must produce the same stream.
func (c *checkReport) checkStreamHash(measured, oneWorker uint64) {
	if measured != oneWorker {
		c.failf("determinism: sim-day stream hash %016x at the measured worker count, %016x at one worker", measured, oneWorker)
	}
}

// streamHash is an FNV-1a hash over an ordered result stream.
type streamHash struct{ h uint64 }

func newStreamHash() streamHash { return streamHash{h: 14695981039346656037} }

func (s *streamHash) mix(v uint64) {
	for i := 0; i < 8; i++ {
		s.h ^= v & 0xff
		s.h *= 1099511628211
		v >>= 8
	}
}

func (s *streamHash) add(r spacecdn.BatchResult) {
	s.mix(uint64(r.Source))
	s.mix(uint64(r.Sat))
	s.mix(uint64(r.Hops))
	s.mix(uint64(r.RTT))
	if r.Err != nil {
		s.mix(1)
	} else {
		s.mix(0)
	}
}
