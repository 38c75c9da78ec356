// Command perfbench is the repository benchmark. It drives the library
// through its public entry points from one process, with at most two
// threads of load, on one of three workloads:
//
//	inmem  2D transposes, AoS↔SoA conversions and NHWC↔NCHW permutes in memory
//	disk   journaled TransposeFile and Dataset ingest beside Zipf Project reads
//	serve  an in-process xposed server under two closed-loop clients
//
// Each workload file records why it was chosen. An untraced run
// (-trace 0) reports the end-to-end metrics; a traced run of the same
// seed (-trace 1) reports the per-layer breakdown. Both print a
// human-readable table and end with one JSON line holding exactly the
// metrics BENCHMARK.json names. Build and run it through run.py from the
// repository root:
//
//	python3 perfbench/run.py --workload inmem --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change: a
// claimed gain must also hold when the benchmark runs with this seed.
const heldOutSeed = 7919

// setupRounds is how many times each workload repeats its set-up;
// setup_s reports the median round. Set-up takes micro- to milliseconds,
// so many rounds are needed for a steady median.
const setupRounds = 101

// runLimit bounds a run, so a stuck one fails instead of hanging.
const runLimit = 170 * time.Second

// config is what every workload receives.
type config struct {
	seed     int64
	seconds  time.Duration
	dir      string  // private temp dir, removed when the run ends
	copyGBps float64 // the same-run memory-copy roofline
}

// workloads maps a workload name to its driver. A driver reports the
// end-to-end metrics when tr is nil and the per-layer metrics otherwise.
var workloads = map[string]func(cfg *config, rep *report, tr *tracer) error{
	"inmem": runInmem,
	"disk":  runDisk,
	"serve": runServe,
}

func main() {
	workload := flag.String("workload", "", "inmem, disk or serve")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	scratch := flag.String("scratch", ".bench_build/scratch", "directory for temporary files and span dumps")
	flag.Parse()

	if err := benchmark(*workload, *seed, *seconds, *traced == 1, *specPath, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, seconds float64, traced bool, specPath, scratch string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want inmem, disk or serve)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := newReport()
	h := probeHost()
	h.record(rep)
	cfg := &config{
		seed:     seed,
		seconds:  time.Duration(seconds * float64(time.Second)),
		dir:      dir,
		copyGBps: h.copyGBps,
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if err := drive(cfg, rep, tr); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	want := sp.EndToEnd
	if tr != nil {
		tr.record(rep)
		path := filepath.Join(scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := tr.write(path); err != nil {
			return err
		}
		rep.notef("%d spans written to %s", len(tr.spans), path)
		want = sp.PerLayer
	}
	return rep.emit(os.Stdout, want, traced)
}

// specMetric is one metric BENCHMARK.json declares.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the program reads: which metrics
// the result line of each kind of run holds.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end or per_layer metrics", path)
	}
	return &sp, nil
}

// metric is one measured value as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's values, op counts and notes.
type report struct {
	attempted, failed int
	values            map[string]metric
	notes             []string
}

func newReport() *report { return &report{values: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notef("%s had no samples; reported as 0", name)
		v = 0
	}
	r.values[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a stream's ops to the run's attempted and failed totals.
func (r *report) count(l *opLog) {
	r.attempted += l.attempted
	r.failed += l.failed
}

// emit prints the notes and every measured value, then the result line
// holding exactly the metrics want names. When zeroMissing is set, a
// metric of a layer the workload does not exercise reads 0; otherwise a
// missing metric is an error.
func (r *report) emit(w io.Writer, want []specMetric, zeroMissing bool) error {
	if r.attempted == 0 {
		return errors.New("no operations attempted")
	}
	errRate := float64(r.failed) / float64(r.attempted)
	r.set("error_rate", "ratio", errRate)
	r.set("success_ratio", "ratio", 1-errRate)
	r.notef("%d of %d operations failed or produced wrong output", r.failed, r.attempted)

	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.values[name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}

	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.values[m.Name]
		switch {
		case ok && v.Unit != m.Unit:
			return fmt.Errorf("metric %s is measured in %s but declared in %s", m.Name, v.Unit, m.Unit)
		case !ok && !zeroMissing:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case !ok:
			v = metric{Value: 0, Unit: m.Unit}
		}
		out[m.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
