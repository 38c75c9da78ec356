// Command xpose transposes a raw binary matrix file in place — or, with
// -dims/-perm, permutes the axes of a raw rank-k tensor file — and hosts
// the walkthrough demos of the paper's Figures 1 and 2.
//
// Usage:
//
//	xpose -rows M -cols N [-elem 8] [-order row|col] [-workers N] file
//	xpose -dims NxHxWxC -perm 0,3,1,2 [-elem 8] [-workers N] file
//	xpose -demo fig1|fig2
//
// The file must hold the tensor's elements of the given byte width; it
// is rewritten in place with the transposed (or axis-permuted) layout.
package main

import (
	"flag"
	"fmt"
	"os"

	"inplace"
	"inplace/internal/bench"
	"inplace/internal/mathutil"
	"inplace/internal/tensor"
)

func main() {
	rows := flag.Int("rows", 0, "matrix rows")
	cols := flag.Int("cols", 0, "matrix columns")
	dims := flag.String("dims", "", `tensor dimensions for -perm, outermost first (e.g. "2x8x8x4")`)
	perm := flag.String("perm", "", `axis permutation over -dims, numpy convention (e.g. "0,3,1,2")`)
	elem := flag.Int("elem", 8, "element size in bytes (1, 2, 4 or 8)")
	order := flag.String("order", "row", "storage order: row or col (2D only)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	demo := flag.String("demo", "", "print a figure walkthrough (fig1 or fig2) and exit")
	wisdom := flag.String("wisdom", "", "wisdom file to load before planning (see cmd/xposetune)")
	tuneFirst := flag.Bool("tune", false, "measure-tune the shape before transposing (with -wisdom: save the decision back)")
	flag.Parse()

	if *demo != "" {
		runDemo(*demo)
		return
	}
	permMode := *dims != "" || *perm != ""
	if permMode && (*dims == "" || *perm == "" || *rows != 0 || *cols != 0) {
		fmt.Fprintln(os.Stderr, "usage: xpose -dims NxHxWxC -perm 0,3,1,2 [-elem B] file (-dims and -perm go together, without -rows/-cols)")
		os.Exit(2)
	}
	if flag.NArg() != 1 || (!permMode && (*rows <= 0 || *cols <= 0)) {
		fmt.Fprintln(os.Stderr, "usage: xpose -rows M -cols N [-elem B] [-order row|col] file\n       xpose -dims NxHxWxC -perm 0,3,1,2 [-elem B] file")
		os.Exit(2)
	}
	if permMode && *order != "row" {
		fatal(fmt.Errorf("-order %s does not apply to -perm (a column-major tensor is described by reversing dims and perm)", *order))
	}

	o := inplace.Options{Workers: *workers}
	switch *order {
	case "row":
		o.Order = inplace.RowMajor
	case "col":
		o.Order = inplace.ColMajor
	default:
		fatal(fmt.Errorf("unknown order %q", *order))
	}

	// Wisdom flow: load recorded decisions first, optionally refresh the
	// one for this shape by measurement, and let the planner consult the
	// result (Options.Tuning defaults to WisdomAuto).
	if *wisdom != "" {
		if err := inplace.LoadWisdom(*wisdom); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}
	if permMode {
		runPermute(*dims, *perm, *elem, o, *tuneFirst, *wisdom, flag.Arg(0))
		return
	}
	if *tuneFirst {
		// Order normalization happens inside the planner; tune the shape
		// as the planner will see it.
		tr, tc := *rows, *cols
		if o.Order == inplace.ColMajor {
			tr, tc = tc, tr
		}
		res, err := inplace.TuneElem(tr, tc, *elem, inplace.TuneConfig{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		if *wisdom != "" {
			if err := inplace.SaveWisdom(*wisdom); err != nil {
				fatal(err)
			}
		}
	}

	path := flag.Arg(0)
	raw := readTensor(path, tensor.Shape{*rows, *cols}, *elem)
	if err := inplace.TransposeElem(raw, *rows, *cols, *elem, o); err != nil {
		fatal(err)
	}
	writeTensor(path, raw)
	fmt.Printf("transposed %s: %dx%d -> %dx%d (%d-byte elements)\n", path, *rows, *cols, *cols, *rows, *elem)
}

// runPermute is the -dims/-perm mode: permute the axes of a raw rank-k
// tensor file in place.
func runPermute(dimsSpec, permSpec string, elem int, o inplace.Options, tuneFirst bool, wisdom, path string) {
	s, err := tensor.ParseShape(dimsSpec)
	if err != nil {
		fatal(err)
	}
	p, err := tensor.ParsePerm(permSpec, len(s))
	if err != nil {
		fatal(err)
	}
	if tuneFirst {
		res, err := inplace.TunePermuteElem(s, p, elem, inplace.TuneConfig{Workers: o.Workers})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		if wisdom != "" {
			if err := inplace.SaveWisdom(wisdom); err != nil {
				fatal(err)
			}
		}
	}
	raw := readTensor(path, s, elem)
	if err := inplace.PermuteAxesElem(raw, s, p, elem, o); err != nil {
		fatal(err)
	}
	writeTensor(path, raw)
	fmt.Printf("permuted %s: %s perm %s -> %s (%d-byte elements)\n",
		path, s, p, tensor.Permuted(s, p), elem)
}

// readTensor reads the file at path, which must hold the elements of a
// tensor of shape s, elem bytes each.
func readTensor(path string, s tensor.Shape, elem int) []byte {
	n, err := s.Validate()
	if err != nil {
		fatal(err)
	}
	want, ok := mathutil.CheckedMul(n, elem)
	if !ok {
		fatal(fmt.Errorf("tensor %s with %d-byte elements overflows int", s, elem))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if len(raw) != want {
		fatal(fmt.Errorf("%s holds %d bytes, want %d (%sx%dB)", path, len(raw), want, s, elem))
	}
	return raw
}

func writeTensor(path string, raw []byte) {
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fatal(err)
	}
}

func runDemo(name string) {
	exp, ok := bench.Get(name)
	if !ok || (name != "fig1" && name != "fig2") {
		fmt.Fprintf(os.Stderr, "xpose: unknown demo %q (want fig1 or fig2)\n", name)
		os.Exit(2)
	}
	for _, r := range exp.Run(bench.Config{}) {
		fmt.Println(r.Text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xpose:", err)
	os.Exit(1)
}
