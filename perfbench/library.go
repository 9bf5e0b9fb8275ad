package main

import (
	"math/rand"
	"runtime"
	"time"
)

// libraryLoop drives ops in a closed loop with one client: whole passes
// over inputs, each pass in its own seed-derived order, until the run's
// time is up. The pass in progress at the deadline is finished, so
// every run does whole passes and its mix of inputs does not depend on
// where the clock happened to stop.
//
// check validates one op's outcome (untimed: it runs after the op's
// report is stamped and is excluded from the loop's busy time); an
// error counts the op as failed.
//
// Busy time is each op plus a collection of the garbage it left, so an
// op that allocates more pays for it in queries_per_ref, as a daemon
// pays for it in background collection. The garbage of the untimed
// check is collected off the clock before the next op.
//
// Ops are timed on the process's CPU clock and stamped with their
// host-speed slice, and the time metrics are reported in ref units (see
// hostspeed.go). The loop ends on wall-clock busy time.
//
// In a traced run, passes alternate between tracing off and on. The
// per-layer metrics come from the traced passes; the difference
// between the two kinds of pass is the tracing overhead.
//
// prepare repeats the run's set-up, timed, at every reference
// measurement (see librarySetups).
func (r *run) libraryLoop(p *pipeline, inputs []*opInput, prepare func() ([]*opInput, error), check func(i int, out *opOutcome) error) error {
	h := r.speed
	h.measure() // closes the set-up's slice
	rng := rand.New(rand.NewSource(r.seed))
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	var suite, report, busyOps latencies
	var tracedOps, plainOps []float64
	complete := 0
	var busy time.Duration
	opID := int32(0)
	for pass := 0; pass == 0 || busy < r.seconds; pass++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		p.tr.on = r.trace && pass%2 == 1
		for _, i := range order {
			runtime.GC() // the previous check's garbage, untimed
			start, cpu0 := time.Now(), cpuNow()
			out := p.run(inputs[i], opID)
			runtime.GC() // this op's garbage, timed
			el := cpuNow() - cpu0
			busy += time.Since(start)
			k := h.slice()
			busyOps.add(el, k)
			suite.add(out.suiteAt, k)
			report.add(out.reportAt, k)
			if h.tick() {
				if _, err := timeSetup(r, setupsPerSlice, prepare, nil); err != nil {
					return err
				}
			}
			opID++
			r.attempted++
			if p.tr.on {
				tracedOps = append(tracedOps, ms(out.reportAt))
			} else {
				plainOps = append(plainOps, ms(out.reportAt))
			}
			if out.err != nil {
				r.failed++
				r.problem("%s: %v", inputs[i].label, out.err)
				continue
			}
			if err := check(i, &out); err != nil {
				r.failed++
				r.problem("%s: %v", inputs[i].label, err)
				continue
			}
			if !out.partial {
				complete++
			}
		}
	}
	p.tr.on = false
	h.measure() // closes the last slice

	busyRefs := 0.0
	for _, v := range busyOps.refs(h) {
		busyRefs += v
	}
	r.set("queries_per_ref", float64(r.attempted-r.failed)/busyRefs)
	r.set("complete_share", float64(complete)/float64(r.attempted))
	r.pct("suite_p50_ref", suite, 0.50, h)
	r.pct("suite_p90_ref", suite, 0.90, h)
	r.pct("report_p50_ref", report, 0.50, h)
	// A library op has no serving path: what its caller waits for is
	// the whole op, so the tail of its report times is serve_p99_ref.
	r.pct("serve_p99_ref", report, 0.99, h)
	r.note("%d ops in %.2f s busy time (%.1f ref), %d complete; %.4f queries/s", r.attempted, busy.Seconds(), busyRefs, complete,
		float64(r.attempted-r.failed)/busy.Seconds())
	h.note(r)
	r.set("bench.ref_job_ms", median(append([]float64(nil), h.points...)))
	if r.trace {
		r.reportLayers(p)
		overhead := ratio(mean(tracedOps)-mean(plainOps), mean(plainOps)) * 100
		r.set("bench.trace_overhead_pct", overhead)
		r.note("tracing overhead: traced mean op %.4f ms vs untraced %.4f ms (%+.2f%%)",
			mean(tracedOps), mean(plainOps), overhead)
	}
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// librarySetups is how many times the library workloads prepare their
// inputs before the loop; the loop prepares them setupsPerSlice more
// times at every reference measurement, and setup_s is the median of
// all. One preparation takes 1–10 ms. Its speed switches between two
// levels up to 70% apart for spells of a fraction of a second to
// minutes, more than the ops' speed does, so set-ups made only at the
// start of a run measure the spell the run started in.
const (
	librarySetups  = 21
	setupsPerSlice = 2
)

// timeSetup runs prepare n times and adds each CPU time, with its
// host-speed slice, to the run's set-up times. The last prepared value is returned for the run to use;
// undo, when set, releases each earlier one outside the timed span.
func timeSetup[T any](r *run, n int, prepare func() (T, error), undo func(T)) (T, error) {
	var v T
	var err error
	for i := 0; i < n; i++ {
		if i > 0 && undo != nil {
			undo(v)
		}
		// Start every set-up from a collected heap, so it does not pay
		// for garbage an earlier phase left.
		runtime.GC()
		start := cpuNow()
		v, err = prepare()
		r.setups.add(cpuNow()-start, r.speed.slice())
		if err != nil {
			return v, err
		}
	}
	return v, nil
}
