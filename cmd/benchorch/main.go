// Command benchorch is the benchmark orchestrator, the perf-regression
// gate and the command that regenerates the paper's evaluation. Its run
// mode enumerates named presets of the internal/bench micro matrix
// (scale × shape family × workers × scratch budget), measures every case
// with the autotuner's robust timing loop, and emits the versioned BENCH
// JSON envelope (internal/benchfmt) plus a markdown report. Its compare
// mode diffs two envelopes with noise-aware thresholds: alloc-count
// regressions and missing series hard-fail, throughput deltas beyond the
// outlier-trimmed confidence bands fail or flag depending on -perf.
//
// Its exp mode runs registry experiments: every table and figure of "A
// Decomposition for In-place Matrix Transposition" (PPoPP 2014) has one
// that prints the paper's rows or series and writes a CSV for plotting
// (fig1 and fig2 are the walkthroughs of the paper's Figures 1 and 2),
// and further experiments measure this implementation, such as the
// planreuse warm/cold distribution of reusing a Planner. The default
// small scale shrinks the paper's matrix sizes to laptop-class
// footprints while preserving every comparison; -scale paper uses the
// published ranges (hundreds of MB per sample). -wisdom loads an
// autotuner wisdom file (`xpose tune`) so experiments that plan with
// default options use measured decisions; -tune makes the "tuned"
// experiment calibrate in-process (and saves back to the -wisdom file,
// if given).
//
// Usage:
//
//	benchorch run [-preset quick|small|medium|large] [-seed S]
//	              [-run REGEXP] [-json FILE] [-md FILE] [-q]
//	benchorch compare [-threshold 0.10] [-perf fail|warn] [-md FILE]
//	                  old.json new.json
//	benchorch exp [-run fig3,table1|all] [-scale tiny|small|paper]
//	              [-workers N] [-seed S] [-out results/]
//	              [-wisdom wisdom.json] [-tune]
//	benchorch list
//
// The repo's `make bench-gate` target runs the quick preset and compares
// it against the committed results/bench-baseline.json in -perf warn
// mode (the baseline may come from another host, where only alloc counts
// transfer). Refresh the baseline with:
//
//	go run ./cmd/benchorch run -preset quick -seed 2014 -json results/bench-baseline.json
//
// Exit codes: 0 gate passed, 1 gate failed (regression, alloc bump or
// missing series), 2 usage or input errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"inplace"
	"inplace/internal/bench"
	"inplace/internal/benchfmt"
	"inplace/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommands; it is the testable entry point and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return runRun(args[1:], stdout, stderr)
	case "compare":
		return runCompare(args[1:], stdout, stderr)
	case "exp":
		return runExp(args[1:], stdout, stderr)
	case "list":
		return runList(stdout)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "benchorch: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  benchorch run [-preset NAME] [-seed S] [-run REGEXP] [-json FILE] [-md FILE] [-q]
  benchorch compare [-threshold F] [-perf fail|warn] [-md FILE] old.json new.json
  benchorch exp [-run ID,ID|all] [-scale tiny|small|paper] [-workers N] [-seed S] [-out DIR] [-wisdom FILE] [-tune]
  benchorch list
`)
}

func runRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchorch run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "quick", "named preset (see `benchorch list`)")
	seed := fs.Int64("seed", 2014, "workload RNG seed")
	pattern := fs.String("run", "", "regexp selecting case/series names ('' = all); anchor with ^...$ for exact sets")
	jsonOut := fs.String("json", "", "write the BENCH JSON envelope to this file")
	mdOut := fs.String("md", "", "write the markdown report to this file")
	quiet := fs.Bool("q", false, "suppress per-case progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, ok := bench.LookupPreset(*preset)
	if !ok {
		fmt.Fprintf(stderr, "benchorch: unknown preset %q\n", *preset)
		return 2
	}
	var match func(string) bool
	if *pattern != "" {
		re, err := regexp.Compile(*pattern)
		if err != nil {
			fmt.Fprintf(stderr, "benchorch: bad -run pattern: %v\n", err)
			return 2
		}
		match = re.MatchString
	}
	progress := func(name string) {
		if !*quiet {
			fmt.Fprintf(stderr, "benchorch: measuring %s\n", name)
		}
	}
	rep := bench.RunPreset(p, *seed, match, progress)
	if len(rep.Experiments) == 0 {
		fmt.Fprintf(stderr, "benchorch: -run %q matched no cases\n", *pattern)
		return 2
	}
	md := runMarkdown(rep)
	fmt.Fprint(stdout, md)
	if *jsonOut != "" {
		if err := benchfmt.WriteFile(*jsonOut, rep); err != nil {
			fmt.Fprintf(stderr, "benchorch: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "benchorch: wrote %s\n", *jsonOut)
	}
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(md), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchorch: %v\n", err)
			return 2
		}
	}
	return 0
}

// runMarkdown renders a run report: one row per case with the robust
// digest of its primary series.
func runMarkdown(rep benchfmt.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Bench run: preset %s (reps %d, seed %d, %s %s/%s, %d cpus)\n\n",
		rep.Preset, rep.Reps, rep.Seed, rep.Env.GoVersion, rep.Env.GOOS, rep.Env.GOARCH, rep.Env.NumCPU)
	b.WriteString("| case | ns/op (median) | GB/s (trimmed) | ±MAD | allocs/op |\n")
	b.WriteString("|------|---------------:|---------------:|-----:|----------:|\n")
	for _, e := range rep.Experiments {
		if e.Kind == benchfmt.KindSeries {
			continue
		}
		var g stats.Summary
		if s, ok := e.FindSeries("gbps"); ok {
			g = s.Summary
		}
		fmt.Fprintf(&b, "| %s | %.0f | %.3f | %.3f | %d |\n",
			e.Name, e.NsPerOp, g.TrimmedMean, g.MAD, e.AllocsPerOp)
	}
	series := false
	for _, e := range rep.Experiments {
		if e.Kind != benchfmt.KindSeries {
			continue
		}
		if !series {
			b.WriteString("\n## Captured experiment series\n\n")
			b.WriteString("| series | metric | n | trimmed mean | [ci] |\n")
			b.WriteString("|--------|--------|--:|-------------:|------|\n")
			series = true
		}
		for _, s := range e.Series {
			fmt.Fprintf(&b, "| %s | %s | %d | %.4g | [%.4g, %.4g] |\n",
				e.Name, s.Name, s.Summary.N, s.Summary.TrimmedMean, s.Summary.CILo, s.Summary.CIHi)
		}
	}
	return b.String()
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchorch compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "relative noise floor for throughput deltas")
	perf := fs.String("perf", "fail", "beyond-noise throughput regressions: 'fail' the gate or only 'warn'")
	mdOut := fs.String("md", "", "write the markdown diff to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "benchorch compare: want exactly two envelope files (old new)")
		return 2
	}
	var perfFail bool
	switch *perf {
	case "fail":
		perfFail = true
	case "warn":
		perfFail = false
	default:
		fmt.Fprintf(stderr, "benchorch compare: -perf must be 'fail' or 'warn', got %q\n", *perf)
		return 2
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldR, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchorch: %s: %v\n", oldPath, err)
		return 2
	}
	newR, err := benchfmt.ReadFile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchorch: %s: %v\n", newPath, err)
		return 2
	}
	c := compareReports(oldR, newR, compareOpts{Threshold: *threshold, PerfFail: perfFail})
	md := c.Markdown(oldPath, newPath)
	fmt.Fprint(stdout, md)
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(md), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchorch: %v\n", err)
			return 2
		}
	}
	if c.failed() {
		return 1
	}
	return 0
}

// runExp runs registry experiments, printing each result's text and
// writing its CSV under -out.
func runExp(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchorch exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := fs.String("run", "all", "comma-separated experiment ids ("+strings.Join(bench.IDs(), ",")+") or 'all'")
	scale := fs.String("scale", "small", "workload scale: tiny, small or paper")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 2014, "workload RNG seed")
	out := fs.String("out", "results", "directory for CSV output ('' = none)")
	wisdom := fs.String("wisdom", "", "wisdom file to load before measuring (with -tune: save new decisions back)")
	tune := fs.Bool("tune", false, "autotune the 'tuned' experiment's shapes in-process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := bench.ParseScale(*scale)
	if !ok {
		fmt.Fprintf(stderr, "benchorch: unknown scale %q\n", *scale)
		return 2
	}
	exps := bench.All()
	if *run != "all" {
		exps = nil
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Get(id)
			if !ok {
				fmt.Fprintf(stderr, "benchorch: unknown experiment %q\n", id)
				return 2
			}
			exps = append(exps, e)
		}
	}
	cfg := bench.Config{Scale: sc, Workers: *workers, Seed: *seed, Tune: *tune}

	if *wisdom != "" {
		if err := inplace.LoadWisdom(*wisdom); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "benchorch: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "loaded wisdom: %d decisions from %s\n\n", inplace.WisdomLen(), *wisdom)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "benchorch: %v\n", err)
			return 1
		}
	}
	for _, e := range exps {
		start := time.Now()
		for _, r := range e.Run(cfg) {
			fmt.Fprintln(stdout, r.Text)
			if r.CSV != "" && *out != "" {
				path := filepath.Join(*out, r.Name+".csv")
				if err := os.WriteFile(path, []byte(r.CSV), 0o644); err != nil {
					fmt.Fprintf(stderr, "benchorch: %v\n", err)
					return 1
				}
				fmt.Fprintf(stdout, "[wrote %s]\n\n", path)
			}
		}
		fmt.Fprintf(stdout, "== %s done in %v (scale=%s) ==\n\n", e.ID, time.Since(start).Round(time.Millisecond), sc)
	}
	if *tune && *wisdom != "" {
		if err := inplace.SaveWisdom(*wisdom); err != nil {
			fmt.Fprintf(stderr, "benchorch: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "saved wisdom: %d decisions to %s\n", inplace.WisdomLen(), *wisdom)
	}
	return 0
}

func runList(stdout io.Writer) int {
	fmt.Fprintln(stdout, "presets:")
	for _, p := range bench.Presets() {
		exps := "-"
		if len(p.Experiments) > 0 {
			exps = strings.Join(p.Experiments, ",")
		}
		fmt.Fprintf(stdout, "  %-8s scale=%-6s workers=%v budgets=%v reps=%d experiments=%s\n",
			p.Name, p.Scale, p.Workers, p.BudgetDivs, p.Reps, exps)
	}
	fmt.Fprintln(stdout, "\nexperiments:")
	for _, e := range bench.All() {
		det := ""
		if e.Deterministic {
			det = " [deterministic]"
		}
		fmt.Fprintf(stdout, "  %-10s %s%s\n", e.ID, e.Title, det)
	}
	return 0
}
