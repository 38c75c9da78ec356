package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"inplace/internal/stats"
)

// minRooflineBytes is the copy buffer used when the LLC size is unknown
// or small.
const minRooflineBytes = 256 << 20

// rooflineReps is how many timed copy passes the roofline takes the
// median of. Neighbours on a shared host steal bandwidth in bursts; the
// median of about two seconds of passes moves less from run to run than
// the fastest pass does.
const rooflineReps = 41

// host is the fingerprint every result carries, and the same-run
// memory-copy roofline that frac_of_copy divides by.
type host struct {
	nproc, gomaxprocs int
	llc, bufBytes     int64
	goVersion         string
	copyGBps          float64
}

// probeHost fingerprints the machine and measures the copy roofline,
// before any workload allocates.
func probeHost() host {
	h := host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		llc:        llcBytes(),
		goVersion:  runtime.Version(),
	}
	h.bufBytes = max(4*h.llc, minRooflineBytes)
	h.copyGBps = copyRoofline(h.bufBytes, h.gomaxprocs)
	runtime.GC()
	debug.FreeOSMemory()
	return h
}

func (h host) record(rep *report) {
	rep.notef("host: nproc=%d GOMAXPROCS=%d LLC=%.0f MiB roofline buffer=%.0f MiB %s",
		h.nproc, h.gomaxprocs, mib(h.llc), mib(h.bufBytes), h.goVersion)
	rep.set("host.copy_gbps", "GB/s", h.copyGBps)
	rep.set("host.llc_mib", "MiB", mib(h.llc))
	rep.set("host.roofline_buffer_mib", "MiB", mib(h.bufBytes))
	rep.set("host.nproc", "count", float64(h.nproc))
	rep.set("host.gomaxprocs", "count", float64(h.gomaxprocs))
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// copyRoofline measures memory-copy bandwidth over a buffer of bufBytes,
// at least four times the LLC so neither half stays cache resident: the
// first half is copied onto the second by workers goroutines, and the
// median of rooflineReps passes is reported in the read+write
// convention of gbps.
func copyRoofline(bufBytes int64, workers int) float64 {
	buf := make([]byte, bufBytes)
	half := len(buf) / 2
	src, dst := buf[:half], buf[half:2*half]
	for i := 0; i < half; i += 4096 {
		src[i] = byte(i >> 12)
	}
	copyParallel(dst, src, workers) // faults the destination pages in
	runtime.GC()                    // no collection runs beside the timed passes
	rates := make([]float64, rooflineReps)
	for r := range rates {
		t0 := time.Now()
		copyParallel(dst, src, workers)
		rates[r] = gbps(float64(half), time.Since(t0))
	}
	return stats.Median(rates)
}

func copyParallel(dst, src []byte, workers int) {
	chunk := (len(src) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(src); lo += chunk {
		hi := min(lo+chunk, len(src))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			copy(dst[lo:hi], src[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// llcBytes is the largest CPU cache sysfs reports for cpu0, or 0.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}
