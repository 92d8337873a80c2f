package parallel

import (
	"sync"
	"sync/atomic"
)

// Stripes is the slot count of every striped counter: a power of two, so a
// stripe index reduces with a mask.
const Stripes = 8

// Striped is an exact counter whose writers spread over cache-line-sized
// slots: Add touches one slot, Load sums them all, so the total is exact
// whichever slot each Add hit and the stripe index only decides which cores
// share a line. Slots only ever take the deltas they are given, so a reader
// summing them while writers run sees a value between the totals before and
// after its pass — for non-negative deltas, one that never goes down. The
// zero value is ready to use.
type Striped struct {
	slots [Stripes]struct {
		n atomic.Int64
		_ [56]byte // counters 64 bytes apart never share a 64-byte line
	}
}

// Add adds n to the slot stripe selects; any int is a valid stripe.
func (s *Striped) Add(stripe int, n int64) { s.slots[uint(stripe)%Stripes].n.Add(n) }

// Load returns the sum over all slots.
func (s *Striped) Load() int64 {
	var sum int64
	for i := range s.slots {
		sum += s.slots[i].n.Load()
	}
	return sum
}

// Reset zeroes every slot (test isolation; not atomic against writers).
func (s *Striped) Reset() {
	for i := range s.slots {
		s.slots[i].n.Store(0)
	}
}

var (
	hintNext atomic.Uint32
	hints    = sync.Pool{New: func() any { return uint8(hintNext.Add(1) % Stripes) }}
)

// StripeHint returns a stripe index for a caller that owns no per-goroutine
// state to take one from. It borrows a token from a sync.Pool, whose fast
// path is a per-P slot: goroutines running on different Ps draw different
// tokens nearly always, without unsafe, linkname or a goroutine id. Tokens
// are single bytes, which box without allocating. A caller making several
// Adds for one operation should draw one hint and reuse it.
func StripeHint() int {
	h := hints.Get().(uint8)
	hints.Put(h)
	return int(h)
}
