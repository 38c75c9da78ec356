package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"inplace"
	"inplace/internal/mathutil"
	"inplace/internal/stats"
)

// windows is how many equal slices a timed phase is cut into. Throughput,
// median latency and peak memory report the median slice, so a burst of
// interference from a neighbour on a shared host moves at most one.
const windows = 5

// tailWindowMin is the fewest ops every window of a phase must hold for
// op_tail_ms to be the median of the windows' tails, each then at p99 or
// beyond. With fewer, the tail rests on every sample of the phase.
const tailWindowMin = 1100

// rssEvery is how often the resident high-water mark is read and reset.
// Peaks swing with where the collector happens to run, so peak_rss_mib
// is the median of many short peaks rather than of a few long ones.
const rssEvery = 500 * time.Millisecond

// opLog accumulates one stream of operations. An op fails when its call
// errors or its output does not match the oracle; only completed ops
// contribute latency and payload.
type opLog struct {
	attempted, failed int
	classLog          // every completed op
	class             map[string]*classLog

	win    []classLog      // closed windows of a timed phase
	walls  []time.Duration // wall time of each closed window
	cur    classLog        // the open window
	start  time.Time       // when the phase began
	opened time.Time       // when the open window began
	slot   time.Duration   // planned window length
}

// classLog is the payload, summed latency and latencies (in ms) of
// completed ops: all of a stream's, one class's, or one window's.
type classLog struct {
	bytes float64
	busy  time.Duration
	lat   []float64
}

func (c *classLog) add(d time.Duration, bytes int) {
	c.bytes += float64(bytes)
	c.busy += d
	c.lat = append(c.lat, float64(d)/1e6)
}

func (c *classLog) merge(o *classLog) {
	c.bytes += o.bytes
	c.busy += o.busy
	c.lat = append(c.lat, o.lat...)
}

func newOpLog() *opLog { return &opLog{class: map[string]*classLog{}} }

func (l *opLog) record(class string, d time.Duration, bytes int, err error, ok bool) {
	l.attempted++
	if err != nil || !ok {
		l.failed++
		return
	}
	l.add(d, bytes)
	c := l.class[class]
	if c == nil {
		c = &classLog{}
		l.class[class] = c
	}
	c.add(d, bytes)
	l.cur.add(d, bytes)
}

// begin starts a timed phase of length d at now.
func (l *opLog) begin(now time.Time, d time.Duration) {
	l.start, l.opened, l.slot = now, now, d/windows
}

// tick closes the open window when the phase has passed its end. Callers
// tick between whole blocks of ops, so every window holds the full mix.
func (l *opLog) tick(now time.Time) {
	if len(l.win) < windows-1 && now.Sub(l.start) >= time.Duration(len(l.win)+1)*l.slot {
		l.cut(now)
	}
}

// finish closes the last window at the end of the phase.
func (l *opLog) finish(now time.Time) { l.cut(now) }

func (l *opLog) cut(now time.Time) {
	l.win = append(l.win, l.cur)
	l.walls = append(l.walls, now.Sub(l.opened))
	l.cur, l.opened = classLog{}, now
}

// merge folds o, a stream that ran beside l, into l; their windows
// cover the same stretches of wall time.
func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.classLog.merge(&o.classLog)
	for name, oc := range o.class {
		c := l.class[name]
		if c == nil {
			c = &classLog{}
			l.class[name] = c
		}
		c.merge(oc)
	}
	for i := range o.win {
		if i == len(l.win) {
			l.win = append(l.win, classLog{})
			l.walls = append(l.walls, 0)
		}
		l.win[i].merge(&o.win[i])
		l.walls[i] = max(l.walls[i], o.walls[i])
	}
}

// medianWindow is the median over the phase's windows of f, given each
// window and the time its throughput divides by: the summed op time of
// a sequential stream, or the wall time of concurrent ones.
func (l *opLog) medianWindow(concurrent bool, f func(w *classLog, d time.Duration) float64) float64 {
	return stats.Median(l.perWindow(concurrent, f))
}

// perWindow is f of every window that completed an op.
func (l *opLog) perWindow(concurrent bool, f func(w *classLog, d time.Duration) float64) []float64 {
	xs := make([]float64, 0, len(l.win))
	for i := range l.win {
		d := l.win[i].busy
		if concurrent {
			d = l.walls[i]
		}
		if len(l.win[i].lat) > 0 && d > 0 {
			xs = append(xs, f(&l.win[i], d))
		}
	}
	return xs
}

// gbpsOf is the throughput of the classes whose names start with prefix.
func (l *opLog) gbpsOf(prefix string) float64 {
	var bytes float64
	var busy time.Duration
	for name, c := range l.class {
		if strings.HasPrefix(name, prefix) {
			bytes += c.bytes
			busy += c.busy
		}
	}
	return gbps(bytes, busy)
}

// windowTail is the median over the phase's windows of each window's
// tail; ok is false when a window holds fewer than tailWindowMin ops.
func (l *opLog) windowTail() (v float64, ok bool) {
	xs := make([]float64, 0, len(l.win))
	for i := range l.win {
		if len(l.win[i].lat) < tailWindowMin {
			return 0, false
		}
		t, _ := tail(l.win[i].lat)
		xs = append(xs, t)
	}
	return stats.Median(xs), len(xs) > 0
}

// medianOf is the median latency in ms of one class, NaN when it has none.
func (l *opLog) medianOf(class string) float64 {
	c := l.class[class]
	if c == nil {
		return math.NaN()
	}
	return stats.Median(c.lat)
}

// gbps is the paper's throughput convention: every payload byte is read
// once and written once.
func gbps(bytes float64, d time.Duration) float64 {
	return 2 * bytes / d.Seconds() / 1e9
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tail is the highest percentile of xs that still has ten samples beyond
// it — the 11th-largest sample, or the largest when there are fewer than
// eleven. It returns the value and the percentile it sits at.
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(n-11, 0)
	return s[k], 100 * float64(k+1) / float64(n)
}

// recordLatency reports the median and tail of xs, scaled into unit, as
// <prefix>_p50_<unit> and <prefix>_tail_<unit>, and notes which
// percentile the tail is and how many samples it rests on.
func recordLatency(rep *report, prefix, unit string, xs []float64, scale float64, what string) {
	tv, pct := tail(xs)
	rep.set(prefix+"_p50_"+unit, unit, stats.Median(xs)*scale)
	rep.set(prefix+"_tail_"+unit, unit, tv*scale)
	rep.notef("%s_tail_%s is p%.2f of %d %s", prefix, unit, pct, len(xs), what)
}

// recordEndToEnd reports the metrics every workload shares. Throughput
// and the median are medians over the phase's windows; throughput
// divides by the summed op time of a sequential stream and by the wall
// time of concurrent ones. The tail is the median window's when windows
// are large enough (see tailWindowMin), else it rests on every sample.
func recordEndToEnd(rep *report, cfg *config, l *opLog, concurrent bool, setup, rssMiB float64) {
	perGbps := func(w *classLog, d time.Duration) float64 { return gbps(w.bytes, d) }
	g := l.medianWindow(concurrent, perGbps)
	rep.notef("gbps by window: %.4g", l.perWindow(concurrent, perGbps))
	rep.set("setup_s", "s", setup)
	rep.set("gbps", "GB/s", g)
	rep.set("frac_of_copy", "ratio", g/cfg.copyGBps)
	rep.set("ops_per_s", "1/s", l.medianWindow(concurrent, func(w *classLog, d time.Duration) float64 {
		return float64(len(w.lat)) / d.Seconds()
	}))
	recordLatency(rep, "op", "ms", l.lat, 1, "transform ops")
	if v, ok := l.windowTail(); ok {
		rep.set("op_tail_ms", "ms", v)
		rep.notef("op_tail_ms is instead the median of %d window tails, every window holding at least %d ops", len(l.win), tailWindowMin)
	}
	rep.set("op_p50_ms", "ms", l.medianWindow(concurrent, func(w *classLog, _ time.Duration) float64 {
		return stats.Median(w.lat)
	}))
	rep.set("peak_rss_mib", "MiB", rssMiB)
	noteClasses(rep, l)
}

// noteClasses notes each op class's count, median latency and
// throughput, so a reader sees which ops the percentiles fall in.
func noteClasses(rep *report, l *opLog) {
	names := make([]string, 0, len(l.class))
	for name := range l.class {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := l.class[name]
		_, slowest := stats.MinMax(c.lat)
		rep.notef("%-24s %6d ops  p50 %10.3f ms  p90 %10.3f ms  max %10.3f ms  %7.3f GB/s",
			name, len(c.lat), stats.Median(c.lat), stats.Percentile(c.lat, 90), slowest, gbps(c.bytes, c.busy))
	}
}

// recordRuntime reports Go allocation and GC activity between two
// MemStats snapshots taken around a timed phase of ops operations.
func recordRuntime(rep *report, before, after *runtime.MemStats, ops int) {
	rep.set("runtime.allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/float64(ops))
	rep.set("runtime.alloc_mib", "MiB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	rep.set("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

// timeSetup runs setup rounds times and returns the median round in
// seconds; undo runs untimed between rounds so every round starts cold,
// and a collection before each round keeps the last round's garbage
// from being paid for in this one.
func timeSetup(rounds int, setup, undo func() error) (float64, error) {
	xs := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if i > 0 {
			if err := undo(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return stats.Median(xs), nil
}

// cacheCounts is the planner caches' hit and miss counters: the 2D cache
// through PlannerCacheStats, the permutation cache through the stats
// registry it publishes to.
type cacheCounts struct{ hits, misses uint64 }

func readCacheCounts() cacheCounts {
	c := inplace.PlannerCacheStats()
	snap := stats.Default().Snapshot()
	return cacheCounts{
		hits:   c.Hits + snap.Counters["perm_cache_hits"],
		misses: c.Misses + snap.Counters["perm_cache_misses"],
	}
}

func recordCache(rep *report, before, after cacheCounts) {
	hits := float64(after.hits - before.hits)
	misses := float64(after.misses - before.misses)
	rep.set("inplace.plan_cache_hits", "count", hits)
	rep.set("inplace.plan_cache_misses", "count", misses)
	rep.set("inplace.plan_cache_hit_ratio", "ratio", hits/(hits+misses))
}

// startPeakRSS drops garbage and then, every rssEvery until the phase
// ends, restarts the kernel's resident high-water mark (VmHWM) and reads
// it at the next tick, so the peaks cover only the phase — not the
// roofline buffer or input generation. The returned stop reports the
// median peak.
func startPeakRSS(rep *report) (stop func() float64) {
	runtime.GC()
	debug.FreeOSMemory()
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		rep.notef("cannot reset VmHWM: peak_rss_mib includes set-up")
	}
	var peaks []float64
	sample := func() {
		v, err := peakRSSMiB()
		if err != nil {
			rep.notef("peak RSS: %v", err)
			return
		}
		peaks = append(peaks, v)
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // failure was noted above
	}
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		if len(peaks) == 0 {
			sample()
		}
		return stats.Median(peaks)
	}
}

// peakRSSMiB reads the resident high-water mark, VmHWM.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// elems is the element count of a shape, guarded against overflow.
func elems(dims ...int) (int, error) {
	n := 1
	for _, d := range dims {
		var ok bool
		if n, ok = mathutil.CheckedMul(n, d); !ok || d <= 0 {
			return 0, fmt.Errorf("shape %v is empty or overflows", dims)
		}
	}
	return n, nil
}
