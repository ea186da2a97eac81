package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// stopwatch is the benchmark's monotonic clock: ns since its creation.
type stopwatch struct{ epoch time.Time }

func newStopwatch() *stopwatch { return &stopwatch{epoch: time.Now()} }

func (w *stopwatch) now() int64 { return int64(time.Since(w.epoch)) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a full collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in the collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// meter reads the macro costs of a timed region: wall, CPU, bytes
// allocated, collections. The two MemStats reads stop the world, so they
// sit outside the wall-clock interval.
type meter struct {
	ms         runtime.MemStats
	cpu0       time.Duration
	gc0        float64
	start      time.Time
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
}

// begin starts the clock. Callers take liveHeap first (before building the
// run's state), so the region also starts from a collected heap.
func (m *meter) begin() {
	runtime.ReadMemStats(&m.ms)
	m.allocBytes, m.gcCycles = m.ms.TotalAlloc, m.ms.NumGC
	m.gc0 = gcCPUSeconds()
	m.cpu0 = cpuTime()
	m.start = time.Now()
}

// end stops the clock. Call retained afterwards, while the run's state is
// still referenced.
func (m *meter) end() {
	m.wall = time.Since(m.start)
	m.cpu = cpuTime() - m.cpu0
	m.gcCPU = gcCPUSeconds() - m.gc0
	runtime.ReadMemStats(&m.ms)
	m.allocBytes = m.ms.TotalAlloc - m.allocBytes
	m.gcCycles = m.ms.NumGC - m.gcCycles
}

// cost is the macro reading of one timed region — a pass of a closed-loop
// workload, a whole open-loop run — with the frames it finished and the
// state it left behind. Every workload's pass type embeds it.
type cost struct {
	m        meter
	frames   int
	retained float64 // MB, see retainedMB
}

func (c *cost) base() *cost { return c }

func costsOf[T interface{ base() *cost }](passes []T) []*cost {
	out := make([]*cost, len(passes))
	for i, p := range passes {
		out[i] = p.base()
	}
	return out
}

// total adds up passes: the frames they finished and what they cost.
func total(cs []*cost) cost {
	var t cost
	for _, c := range cs {
		t.frames += c.frames
		t.m.wall += c.m.wall
		t.m.cpu += c.m.cpu
		t.m.allocBytes += c.m.allocBytes
		t.m.gcCycles += c.m.gcCycles
		t.m.gcCPU += c.m.gcCPU
	}
	return t
}

func (c *cost) framesPerSecond() float64 { return float64(c.frames) / c.m.wall.Seconds() }

// cpuPerFrame is the CPU time a frame cost in situ, in ns.
func (c *cost) cpuPerFrame() float64 { return float64(c.m.cpu) / float64(c.frames) }

// putCosts writes the end-to-end metrics every workload reads off its timed
// regions the same way: the frames all passes finished over what all passes
// cost. (A median over passes is the less steady reading here: when the box
// alternates between two speeds within a run it jumps from one to the other,
// where the total moves with the share of each.)
func putCosts(m *metricSet, cs []*cost) {
	n := len(cs)
	t := total(cs)
	m.put("frames_per_s", t.framesPerSecond(), n)
	m.put("frames_per_cpu_s", float64(t.frames)/t.m.cpu.Seconds(), n)
	m.put("alloc_bytes_per_frame", float64(t.m.allocBytes)/float64(t.frames), n)
	retained := make([]float64, n)
	for i, c := range cs {
		retained[i] = c.retained
	}
	m.put("retained_mb", median(retained), n)
}

// putRuntimeLayers writes the per-layer metrics that come from the same
// macro readings: how busy the cores were, and the collector's share.
func putRuntimeLayers(m *metricSet, cs []*cost) {
	n := len(cs)
	t := total(cs)
	m.put("sieve.cpu_busy_share", t.m.cpu.Seconds()/(t.m.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), n)
	m.put("runtime.gc_cycles", float64(t.m.gcCycles)/float64(n), n) // per pass
	m.put("runtime.gc_cpu_share", t.m.gcCPU/t.m.cpu.Seconds(), n)
}

// traceOverhead is the share of throughput the traced passes lost against
// the untraced passes they alternated with.
func traceOverhead(plain, withTrace []*cost) float64 {
	p, w := total(plain), total(withTrace)
	return 1 - w.framesPerSecond()/p.framesPerSecond()
}

// retainedMB is the live heap now minus the live heap at base, in MB — the
// size of whatever state the caller still holds.
func retainedMB(base uint64) float64 {
	return (float64(liveHeap()) - float64(base)) / 1e6
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func percentile(xs []float64, q float64) float64 { return quantile(sortedCopy(xs), q) }

// quartiles follows Python's statistics.quantiles(values, n=4) (exclusive
// method), the rule the driver applies to repeated runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4 // outside [0,4] at the ends: Python extrapolates too
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
