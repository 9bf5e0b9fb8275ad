package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule, and the number of samples above it. xs is sorted in place.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i], len(xs) - 1 - i
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocSample reads the runtime's cumulative heap-object allocation
// count. Unlike runtime.ReadMemStats it does not stop the world, so it
// can bracket every call of a traced run.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// latencies collects op latencies in milliseconds, each with the
// host-speed slice the op ended in.
type latencies struct {
	ms    []float64
	slice []int
}

func (l *latencies) add(d time.Duration, slice int) {
	l.ms = append(l.ms, ms(d))
	l.slice = append(l.slice, slice)
}

func (l *latencies) merge(o latencies) {
	l.ms = append(l.ms, o.ms...)
	l.slice = append(l.slice, o.slice...)
}

// refs returns every latency in ref units: divided by the reference
// job's time in its slice.
func (l latencies) refs(h *hostSpeed) []float64 {
	out := make([]float64, len(l.ms))
	for i, v := range l.ms {
		out[i] = v / h.unit(l.slice[i])
	}
	return out
}

// pct reports the q-quantile of l in ref units and records it in the
// run's notes with its sample count and the same quantile in ms.
func (r *run) pct(name string, l latencies, q float64, h *hostSpeed) {
	v, beyond := quantile(l.refs(h), q)
	raw, _ := quantile(append([]float64(nil), l.ms...), q)
	r.set(name, v)
	r.note("%s = %.5f ref (%.4f ms) over %d samples (%d beyond it)", name, v, raw, len(l.ms), beyond)
}
