package lsn

import (
	"fmt"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
	"spacecdn/internal/stats"
)

// ReconfigInterval is the scheduling granularity at which the operator
// re-plans terminal-satellite assignments (Starlink reconfigures paths every
// 15 seconds; the paper's §2 describes the constantly changing connectivity
// this produces).
const ReconfigInterval = 15 * time.Second

// RTTSample is one point of a subscriber's latency time series.
type RTTSample struct {
	At  time.Duration
	RTT time.Duration
	// UpSat is the serving satellite during this interval; changes mark
	// handovers.
	UpSat int
	// Handover is true when the serving satellite changed at this sample.
	Handover bool
}

// RTTTimeSeries samples a subscriber's RTT to their PoP every
// ReconfigInterval across [from, to): each interval re-resolves the path
// (satellites have moved) and draws one measured RTT. The series shows the
// sawtooth the paper's background describes — latency drifts as the serving
// satellite moves, then steps at handover. The sampling advances a sweep
// cursor, so each interval costs the incremental world update rather than a
// rebuild.
func (m *Model) RTTTimeSeries(client geo.Point, iso2 string, from, to time.Duration, rng *stats.Rand) ([]RTTSample, error) {
	cur := m.Constellation.Sweep(from, ReconfigInterval)
	defer cur.Close()
	return m.rttTimeSeriesOver(cur, client, iso2, to, rng)
}

// RTTTimeSeriesScan is the naive reference form of RTTTimeSeries: a fresh
// snapshot per interval. Kept for the sweep-equivalence proof; the two must
// produce byte-identical series.
func (m *Model) RTTTimeSeriesScan(client geo.Point, iso2 string, from, to time.Duration, rng *stats.Rand) ([]RTTSample, error) {
	cur := m.Constellation.SweepScan(from, ReconfigInterval)
	return m.rttTimeSeriesOver(cur, client, iso2, to, rng)
}

func (m *Model) rttTimeSeriesOver(cur constellation.Cursor, client geo.Point, iso2 string, to time.Duration, rng *stats.Rand) ([]RTTSample, error) {
	if to <= cur.Time() {
		return nil, fmt.Errorf("lsn: empty time range")
	}
	var out []RTTSample
	prevSat := -1
	for snap := cur.At(); snap.Time() < to; snap = cur.Advance() {
		t := snap.Time()
		path, err := m.ResolvePath(client, iso2, snap)
		if err != nil {
			// Coverage gap: skip the interval, keep the series going.
			continue
		}
		s := RTTSample{
			At:       t,
			RTT:      m.SampleRTTToPoP(path, rng),
			UpSat:    int(path.UpSat),
			Handover: prevSat >= 0 && int(path.UpSat) != prevSat,
		}
		prevSat = int(path.UpSat)
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lsn: no coverage for %v during the window", client)
	}
	return out, nil
}

// HandoverRate returns handovers per minute over a series.
func HandoverRate(series []RTTSample) float64 {
	if len(series) < 2 {
		return 0
	}
	handovers := 0
	for _, s := range series {
		if s.Handover {
			handovers++
		}
	}
	span := series[len(series)-1].At - series[0].At
	if span <= 0 {
		return 0
	}
	return float64(handovers) / span.Minutes()
}
