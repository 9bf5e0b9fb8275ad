package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"math/rand"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few vCPUs of a shared machine,
// and its speed drifts: the same op takes up to 50% longer while
// neighbours are busy, for seconds to minutes at a time, so whole runs
// minutes apart differ by more than any useful bound. Three things keep
// the time metrics steady:
//
//   - The process runs Go code on one P (runtime.GOMAXPROCS(1) in
//     main), so the program and its garbage collector share one vCPU,
//     and a neighbour on another vCPU does not change how fast they run.
//     The program's options are still the daemon defaults of the host
//     (one execution slot and one goal worker per CPU).
//   - Ops are timed on the process's CPU clock (cpuNow), which leaves
//     out the time the process waited for its vCPU.
//   - Every speedSlice the benchmark runs a fixed reference job that
//     slows down under contention much as the program does: it parses,
//     type-checks and prints a generated Go source with the standard
//     library (allocation-, pointer-, map- and branch-heavy code), then
//     makes dependent random accesses over a buffer far larger than the
//     CPU's private caches. Every op's time is divided by the reference
//     job's time measured around it, so the time metrics are in "ref"
//     units (multiples of one reference job) and a slower host cancels
//     out, while a change to the program moves them in full: the
//     reference job runs no code of the program.
//
// The unnormalized milliseconds are printed next to every metric.
const (
	// speedSlice is the measured time between two reference
	// measurements.
	speedSlice = 300 * time.Millisecond
	// speedReps reference jobs make one measurement; their median is
	// the measurement, so a GC cycle or a preemption in one job does not
	// move it.
	speedReps = 5
	// unitWindow measurements on each side of a slice set its unit.
	unitWindow = 3
	// refFuncs sizes the generated source and refWalk the random walk:
	// one job takes about 7 ms on a 2-vCPU VM.
	refFuncs = 16
	refWalk  = 10000
	// refBufBytes is the random walk's buffer. It is mapped outside the
	// Go heap, so it adds nothing to the work of the garbage collector;
	// its pages are all resident, and peak_rss_mb leaves them out.
	refBufBytes = 32 << 20
	// refNominalMs is the reference job's time on the host that setup_s
	// is expressed for: its median on the 2-vCPU VM the benchmark was
	// built on. setup_s must be in seconds, so its ref units are scaled
	// by this constant.
	refNominalMs = 7.5
)

// refBuf is the random walk's buffer, filled once at start-up.
var refBuf = func() []uint64 {
	b, err := syscall.Mmap(-1, 0, refBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("map reference buffer: %v", err))
	}
	buf := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	for i := range buf {
		buf[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return buf
}()

// refSrc is the reference job's input: a Go source generated from a
// fixed seed, so every run and every checkout parses the same text.
var refSrc = func() string {
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	b.WriteString("package ref\n\ntype rec struct {\n\tid   int\n\tname string\n\ttags map[string]int\n\tnext *rec\n}\n\n")
	for i := 0; i < refFuncs; i++ {
		fmt.Fprintf(&b, "func f%d(xs []int, m map[string]int, r *rec) (int, string) {\n\ttotal := %d\n", i, rng.Intn(100))
		for j := 0; j < 6; j++ {
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "\tfor i, x := range xs {\n\t\tif x > %d {\n\t\t\ttotal += i * x\n\t\t} else {\n\t\t\ttotal -= x %% %d\n\t\t}\n\t}\n", rng.Intn(50), 1+rng.Intn(9))
			case 1:
				fmt.Fprintf(&b, "\tif v, ok := m[\"k%d\"]; ok {\n\t\ttotal += v\n\t}\n", rng.Intn(30))
			case 2:
				b.WriteString("\tfor p := r; p != nil; p = p.next {\n\t\ttotal += p.id + len(p.tags)\n\t}\n")
			case 3:
				fmt.Fprintf(&b, "\tswitch total %% %d {\n\tcase 0:\n\t\ttotal++\n\tdefault:\n\t\ttotal *= 2\n\t}\n", 2+rng.Intn(5))
			}
		}
		b.WriteString("\treturn total, r.name\n}\n\n")
	}
	return b.String()
}()

// refJob parses, type-checks and prints refSrc once, then walks refBuf,
// and returns the printed size.
func refJob() (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ref.go", refSrc, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	if _, err := (&types.Config{}).Check("ref", fset, []*ast.File{f}, info); err != nil {
		return 0, err
	}
	var out bytes.Buffer
	if err := printer.Fprint(&out, fset, f); err != nil {
		return 0, err
	}
	n := uint64(len(refBuf))
	x := uint64(out.Len())
	for i := 0; i < refWalk; i++ {
		j := (x ^ refBuf[x%n]) % n
		refBuf[j] += x
		x = x*6364136223846793005 + 1442695040888963407 + refBuf[j]
	}
	return out.Len(), nil
}

// hostSpeed holds the reference measurements of one run. Measured
// time is cut into slices at the measurements: slice k runs from
// measurement k to measurement k+1, and an op is in the slice where it
// ended.
type hostSpeed struct {
	points []float64 // ms per reference job at each measurement
	last   time.Time
	spent  time.Duration // time spent measuring, outside every op
}

// newHostSpeed takes the first measurement, which opens slice 0.
func newHostSpeed() (*hostSpeed, error) {
	h := &hostSpeed{}
	if _, err := refJob(); err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	h.measure()
	return h, nil
}

// measure runs the reference job speedReps times and records the
// median time, closing the current slice.
func (h *hostSpeed) measure() {
	start := time.Now()
	times := make([]float64, speedReps)
	for i := range times {
		t0 := cpuNow()
		refJob()
		times[i] = ms(cpuNow() - t0)
	}
	h.points = append(h.points, median(times))
	h.last = time.Now()
	h.spent += h.last.Sub(start)
}

// tick measures when the current slice has run for speedSlice, and
// reports whether it did.
func (h *hostSpeed) tick() bool {
	if time.Since(h.last) < speedSlice {
		return false
	}
	h.measure()
	return true
}

// cpuNow reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID):
// the time the host ran the process. With one P that is the wall time
// less the time the process waited for a vCPU, either behind another
// thread or, since the guest kernel accounts steal time, while the
// hypervisor ran another guest. Every op latency and every reference
// measurement is read on this clock.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2 /* CLOCK_PROCESS_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// slice is the index of the open slice.
func (h *hostSpeed) slice() int { return len(h.points) - 1 }

// unit is slice k's reference time in ms: the median of the
// unitWindow measurements on each side of it (fewer at the ends of the
// run). One measurement has noise of its own, which would move an op
// alone in its slice, such as a tail op; the host's drift is slow
// enough that a window of a few slices follows it. The run must have
// closed the slice with a last measurement.
func (h *hostSpeed) unit(k int) float64 {
	lo, hi := max(k+1-unitWindow, 0), min(k+unitWindow, len(h.points)-1)
	return median(append([]float64(nil), h.points[lo:hi+1]...))
}

// note records the spread of the reference measurements.
func (h *hostSpeed) note(r *run) {
	xs := append([]float64(nil), h.points...)
	q1, _ := quantile(xs, 0.25)
	q3, _ := quantile(xs, 0.75)
	r.note("host speed: %d reference measurements, median %.4f ms per job (quartiles %.4f–%.4f), %.2f s spent measuring",
		len(xs), median(xs), q1, q3, h.spent.Seconds())
}
