package parallel

import (
	"sync"
	"testing"
)

// TestStripedExact: the total is exact whichever slot each Add hits — a
// per-goroutine index, the per-P hint, an out-of-range or negative one —
// and a reader summing while writers run never sees it go down.
func TestStripedExact(t *testing.T) {
	const goroutines, adds = 8, 5000
	var s Striped
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := int64(0)
		for {
			if v := s.Load(); v < last {
				t.Errorf("Load went down: %d after %d", v, last)
				return
			} else {
				last = v
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				switch i % 3 {
				case 0:
					s.Add(g, 1)
				case 1:
					s.Add(StripeHint(), 1)
				default:
					s.Add(-1-g*1000, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := s.Load(); got != goroutines*adds {
		t.Fatalf("Load = %d, want %d", got, goroutines*adds)
	}
	s.Reset()
	if got := s.Load(); got != 0 {
		t.Fatalf("Load after Reset = %d", got)
	}
}

func TestStripeHintInRangeAndAllocFree(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if h := StripeHint(); h < 0 || h >= Stripes {
			t.Fatalf("StripeHint = %d, want [0,%d)", h, Stripes)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() { StripeHint() }); avg != 0 {
		t.Fatalf("StripeHint allocates %.2f objects/call, want 0", avg)
	}
}
