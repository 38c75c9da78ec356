// Command xposetune batch-tunes a list of matrix shapes and writes the
// measured-optimal decisions to a wisdom file that library users load
// with inplace.LoadWisdom (or the -wisdom flags of cmd/xpose and
// cmd/benchsuite). It is the offline half of the FFTW-wisdom pattern:
// spend measurement time once per machine, then every process planning
// those shapes gets the measured plan instead of the static heuristic.
//
// Usage:
//
//	xposetune -shapes 1024x1024,100000x8 [-elem 8] [-workers 0]
//	          [-o wisdom.json] [-merge] [-fast]
//	xposetune -perms "2x8x8x4:0,3,1,2;2x4x8x8:0,2,3,1" [-elem 8] [-o wisdom.json]
//	xposetune -list wisdom.json
//
// -perms tunes axis permutations for the PermuteAxes planner: each
// semicolon-separated entry is dims:perm, and the decision is recorded
// under the permutation's canonical form (see the perm section of the
// wisdom file). -shapes and -perms may be combined in one run.
//
// -list prints every entry of a wisdom file, whatever tuner wrote it:
// 2D transposes, permutations, out-of-core schedules (TuneOOC) and
// tile-store chunk heights (TuneStore), one line each.
//
// -merge folds the new measurements over an existing wisdom file
// instead of replacing it; unknown-version files merge as empty. -fast
// caps measurement for smoke runs (noisy decisions, full code path).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"inplace"
	"inplace/internal/tensor"
	"inplace/internal/tune"
)

func main() {
	shapes := flag.String("shapes", "", "comma-separated RxC shape list to tune (e.g. 1024x1024,100000x8)")
	perms := flag.String("perms", "", `semicolon-separated dims:perm list to tune (e.g. "2x8x8x4:0,3,1,2;2x4x8x8:0,2,3,1")`)
	elem := flag.Int("elem", 8, "element size in bytes (1, 2, 4 or 8)")
	workers := flag.Int("workers", 0, "worker budget (0 = GOMAXPROCS); part of the wisdom key")
	out := flag.String("o", "wisdom.json", "output wisdom file")
	merge := flag.Bool("merge", false, "merge into an existing output file instead of replacing it")
	fast := flag.Bool("fast", false, "capped smoke measurement (fast, noisy)")
	list := flag.String("list", "", "print the entries of a wisdom file and exit")
	flag.Parse()

	if *list != "" {
		listWisdom(*list)
		return
	}
	if *shapes == "" && *perms == "" {
		fmt.Fprintln(os.Stderr, "usage: xposetune -shapes RxC[,RxC...] [-perms dims:perm[;...]] [-elem B] [-o wisdom.json]")
		os.Exit(2)
	}

	if *merge {
		if err := inplace.LoadWisdom(*out); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}

	cfg := inplace.TuneConfig{Workers: *workers, Fast: *fast}
	if *shapes != "" {
		for _, spec := range strings.Split(*shapes, ",") {
			rows, cols, err := parseShape(spec)
			if err != nil {
				fatal(err)
			}
			res, err := inplace.TuneElem(rows, cols, *elem, cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(res)
		}
	}
	if *perms != "" {
		for _, spec := range strings.Split(*perms, ";") {
			dims, perm, err := parsePermSpec(spec)
			if err != nil {
				fatal(err)
			}
			res, err := inplace.TunePermuteElem(dims, perm, *elem, cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(res)
		}
	}

	if err := inplace.SaveWisdom(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d decisions to %s\n", inplace.WisdomLen(), *out)
}

// parsePermSpec parses one "dims:perm" entry, e.g. "2x8x8x4:0,3,1,2".
func parsePermSpec(spec string) (dims, perm []int, err error) {
	spec = strings.TrimSpace(spec)
	d, p, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, nil, fmt.Errorf("perm spec %q is not dims:perm", spec)
	}
	s, err := tensor.ParseShape(d)
	if err != nil {
		return nil, nil, fmt.Errorf("perm spec %q: %v", spec, err)
	}
	pp, err := tensor.ParsePerm(p, len(s))
	if err != nil {
		return nil, nil, fmt.Errorf("perm spec %q: %v", spec, err)
	}
	return s, pp, nil
}

func parseShape(spec string) (rows, cols int, err error) {
	spec = strings.TrimSpace(spec)
	a, b, ok := strings.Cut(spec, "x")
	if !ok {
		return 0, 0, fmt.Errorf("shape %q is not RxC", spec)
	}
	rows, err = strconv.Atoi(a)
	if err != nil {
		return 0, 0, fmt.Errorf("shape %q: %v", spec, err)
	}
	cols, err = strconv.Atoi(b)
	if err != nil {
		return 0, 0, fmt.Errorf("shape %q: %v", spec, err)
	}
	if rows <= 0 || cols <= 0 {
		return 0, 0, fmt.Errorf("shape %q must be positive", spec)
	}
	return rows, cols, nil
}

func listWisdom(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	t, err := tune.Load(f)
	if err != nil {
		fatal(err)
	}
	if t.Len() == 0 {
		fmt.Printf("%s: no usable entries (empty or unknown version)\n", path)
		return
	}
	for _, k := range t.Keys() {
		d, _ := t.Lookup(k)
		var how string
		switch k.Kind {
		case tune.KindTranspose:
			dir := "R2C"
			if d.C2R {
				dir = "C2R"
			}
			how = fmt.Sprintf("%s workers=%d blockw=%d", dir, d.Workers, d.BlockW)
		case tune.KindPermute:
			how = fmt.Sprintf("%s workers=%d", d.Variant, d.Workers)
		case tune.KindOOC:
			how = fmt.Sprintf("seg=%d depth=%d workers=%d", d.Chunk, d.Depth, d.Workers)
		case tune.KindStore:
			how = fmt.Sprintf("chunk_rows=%d workers=%d", d.Chunk, d.Workers)
		}
		fmt.Printf("%-9s %-24s %s %.2f GB/s\n", k.Kind, k, how, d.GBps)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xposetune:", err)
	os.Exit(1)
}
