package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"inplace"
	"inplace/internal/tensor"
	"inplace/internal/tune"
)

// runTune is `xpose tune`: batch-tune a list of matrix shapes and axis
// permutations and write the measured-optimal decisions to a wisdom
// file, which library users load with inplace.LoadWisdom and the other
// commands with -wisdom. It is the offline half of the FFTW-wisdom
// pattern: spend measurement time once per machine, then every process
// planning those shapes gets the measured plan instead of the static
// heuristic.
//
// -perms tunes axis permutations for the PermuteAxes planner: each
// semicolon-separated entry is dims:perm, and the decision is recorded
// under the permutation's canonical form. -shapes and -perms may be
// combined in one run. -list prints every entry of a wisdom file,
// whatever tuner wrote it: 2D transposes, permutations, out-of-core
// schedules (TuneOOC) and tile-store chunk heights (TuneStore), one
// line each. -merge folds the new measurements over an existing wisdom
// file instead of replacing it; unknown-version files merge as empty.
// -fast caps measurement for smoke runs (noisy decisions, full code
// path).
func runTune(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("xpose tune", stderr)
	shapes := fs.String("shapes", "", "comma-separated RxC shape list to tune (e.g. 1024x1024,100000x8)")
	perms := fs.String("perms", "", `semicolon-separated dims:perm list to tune (e.g. "2x8x8x4:0,3,1,2;2x4x8x8:0,2,3,1")`)
	elem, workers := addElemWorkers(fs, "1, 2, 4 or 8")
	out := fs.String("o", "wisdom.json", "output wisdom file")
	merge := fs.Bool("merge", false, "merge into an existing output file instead of replacing it")
	fast := fs.Bool("fast", false, "capped smoke measurement (fast, noisy)")
	list := fs.String("list", "", "print the entries of a wisdom file and exit")
	if err := parse(fs, args); err != nil {
		return err
	}

	if *list != "" {
		return listWisdom(*list, stdout)
	}
	if *shapes == "" && *perms == "" {
		return usage("xpose tune -shapes RxC[,RxC...] [-perms dims:perm[;...]] [-elem B] [-o wisdom.json]")
	}
	if *merge {
		if err := loadWisdom(*out); err != nil {
			return err
		}
	}

	cfg := inplace.TuneConfig{Workers: *workers, Fast: *fast}
	if *shapes != "" {
		for _, spec := range strings.Split(*shapes, ",") {
			s, err := tensor.ParseShape(spec)
			if err != nil {
				return err
			}
			if len(s) != 2 {
				return fmt.Errorf("shape %q is not RxC", spec)
			}
			res, err := inplace.TuneElem(s[0], s[1], *elem, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, res)
		}
	}
	if *perms != "" {
		for _, spec := range strings.Split(*perms, ";") {
			dims, perm, err := parsePermSpec(spec)
			if err != nil {
				return err
			}
			res, err := inplace.TunePermuteElem(dims, perm, *elem, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, res)
		}
	}

	if err := inplace.SaveWisdom(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d decisions to %s\n", inplace.WisdomLen(), *out)
	return nil
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

// listWisdom prints every entry of the wisdom file at path, one line
// each.
func listWisdom(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := tune.Load(f)
	if err != nil {
		return err
	}
	if t.Len() == 0 {
		fmt.Fprintf(stdout, "%s: no usable entries (empty or unknown version)\n", path)
		return nil
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
		fmt.Fprintf(stdout, "%-9s %-24s %s %.2f GB/s\n", k.Kind, k, how, d.GBps)
	}
	return nil
}
