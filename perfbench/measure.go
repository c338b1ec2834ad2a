package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail value: the
// tail is the highest percentile that still has this many samples past it,
// so it is never a single outlier.
const tailBeyond = 10

// dist is a sample of one timing, kept whole so medians and tails are exact.
type dist []float64

// median returns the middle value (mean of the two middle ones for an even
// count), 0 for an empty sample.
func (d dist) median() float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the value with exactly tailBeyond samples above it and the
// percentile that value sits at. With tailBeyond or fewer samples there is no
// such value; the maximum is returned at percentile 100.
func (d dist) tail() (value, pct float64) {
	if len(d) == 0 {
		return 0, 0
	}
	s := d.sorted()
	if len(s) <= tailBeyond {
		return s[len(s)-1], 100
	}
	i := len(s) - 1 - tailBeyond
	return s[i], 100 * float64(len(s)-tailBeyond) / float64(len(s))
}

// windowTail splits d, in time order, into n consecutive windows and
// returns the median of the windows' tails, the percentile each window's
// tail sits at, and the samples per window. A burst of host noise then
// moves one window's tail, not the reported value.
func (d dist) windowTail(n int) (value, pct float64, per int) {
	per = len(d) / n
	if per <= tailBeyond {
		v, p := d.tail()
		return v, p, len(d)
	}
	var tails dist
	for w := 0; w < n; w++ {
		v, p := d[w*per : (w+1)*per].tail()
		tails, pct = append(tails, v), p
	}
	return tails.median(), pct, per
}

func (d dist) sum() float64 {
	t := 0.0
	for _, v := range d {
		t += v
	}
	return t
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	return d.sum() / float64(len(d))
}

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler records the peak of heap memory in use (the runtime's
// HeapInuse: live objects plus fragmentation in in-use spans) while it runs.
// It polls runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
	// win is the peak since the last window call.
	win uint64
}

var heapMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var t uint64
	for _, m := range s {
		if m.Value.Kind() == metrics.KindUint64 {
			t += m.Value.Uint64()
		}
	}
	return t
}

// startHeapSampler begins sampling every 2 ms; Stop ends it and returns the
// peak in MiB.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		samples[i].Name = name
	}
	h.observe(heapInUse(samples))
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.observe(heapInUse(samples))
				return
			case <-t.C:
				h.observe(heapInUse(samples))
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.win = max(h.win, v)
	h.mu.Unlock()
}

// window returns the peak heap in use, in MiB, since the previous call (or
// the start) and begins a new window.
func (h *heapSampler) window() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.win
	h.win = 0
	return float64(w) / (1 << 20)
}

// Stop ends sampling, waits for the sampler goroutine, and returns the peak
// heap in use in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// splitmix64 derives independent, well-mixed seeds from the workload seed, so
// every input of a run is a pure function of the --seed argument.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed names input i of stream `stream` for workload seed ws. The
// result is never 0, which the engine and the service treat as "default".
func deriveSeed(ws uint64, stream, i uint64) uint64 {
	s := splitmix64(splitmix64(ws)^splitmix64(stream<<32|i)) & math.MaxInt64
	if s == 0 {
		s = 1
	}
	return s
}
