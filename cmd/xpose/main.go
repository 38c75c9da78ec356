// Command xpose is the file tool of the library: it transposes a raw
// binary matrix file in place — or, with -dims/-perm, permutes the axes
// of a raw rank-k tensor file — and its subcommands apply the same
// decomposition out of core, to columnar tile-store datasets and to the
// offline autotuner.
//
// Usage:
//
//	xpose -rows M -cols N [-elem 8] [-order row|col] [-workers N]
//	      [-wisdom FILE] [-tune] file
//	xpose -dims NxHxWxC -perm 0,3,1,2 [-elem 8] [-workers N]
//	      [-wisdom FILE] [-tune] file
//	xpose ooc -rows M -cols N [-elem 8] [-budget BYTES] [-journal PATH]
//	      [-resume] [-verify] [-workers N] [-segment BYTES] [-stats]
//	      [-wisdom FILE] [-tune] file
//	xpose ooc -selftest [-budget BYTES]
//	xpose store create|scan|project|verify|stats|selftest ...
//	xpose tune -shapes RxC[,RxC...] [-perms dims:perm[;...]] [-elem 8]
//	      [-workers N] [-o wisdom.json] [-merge] [-fast]
//	xpose tune -list wisdom.json
//
// The bare form reads the whole file, which must hold the tensor's
// elements of the given byte width, and rewrites it with the transposed
// (or axis-permuted) layout. ooc transposes a file that need not fit in
// memory (ooc.go), store manages tile-store datasets (store.go) and
// tune writes the wisdom files that -wisdom loads (tune.go).
//
// -wisdom loads a wisdom file before planning; -tune measures the
// command's shape first and, with -wisdom, saves the decision back.
// Size flags take plain bytes or k/m/g suffixes (powers of 1024).
// Exit codes: 0 done, 1 failed, 2 usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"inplace"
	"inplace/internal/mathutil"
	"inplace/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand named by args[0], or runs the bare
// in-memory form; it is the testable entry point and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cmd := runMem
	if len(args) > 0 {
		switch args[0] {
		case "ooc":
			cmd, args = runOOC, args[1:]
		case "store":
			cmd, args = runStore, args[1:]
		case "tune":
			cmd, args = runTune, args[1:]
		}
	}
	var u usage
	switch err := cmd(args, stdout, stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u):
		if u != "" {
			fmt.Fprintln(stderr, "usage:", string(u))
		}
		return 2
	default:
		fmt.Fprintln(stderr, "xpose:", err)
		return 1
	}
}

// usage is the error of a command line that cannot run: run prints it
// after "usage:" and exits 2. The empty usage is a bad flag, which the
// flag package has already reported.
type usage string

func (u usage) Error() string { return "usage: " + string(u) }

// newFlags returns a subcommand's flag set, reporting on stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs; a bad flag comes back as the empty usage.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usage("")
	}
	return nil
}

// addElemWorkers registers -elem (default 8; widths names the element
// sizes the command accepts) and -workers.
func addElemWorkers(fs *flag.FlagSet, widths string) (elem, workers *int) {
	elem = fs.Int("elem", 8, "element size in bytes ("+widths+")")
	workers = fs.Int("workers", 0, "worker budget (0 = GOMAXPROCS); a tuned decision may use fewer")
	return elem, workers
}

// wisdomFlags are the -wisdom and -tune flags of the commands that plan.
type wisdomFlags struct {
	path string
	tune bool
}

// addWisdomFlags registers -wisdom and -tune; what names what -tune
// measures.
func addWisdomFlags(fs *flag.FlagSet, what string) *wisdomFlags {
	w := &wisdomFlags{}
	fs.StringVar(&w.path, "wisdom", "", "wisdom file to load before planning (see xpose tune)")
	fs.BoolVar(&w.tune, "tune", false, "measure-tune "+what+" first (with -wisdom: save the decision back)")
	return w
}

// prepare loads the wisdom file, then, with -tune, runs tune, prints its
// decision and saves the table back to the wisdom file.
func (w *wisdomFlags) prepare(stdout io.Writer, tune func() (fmt.Stringer, error)) error {
	if err := loadWisdom(w.path); err != nil {
		return err
	}
	if !w.tune {
		return nil
	}
	res, err := tune()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res)
	if w.path == "" {
		return nil
	}
	return inplace.SaveWisdom(w.path)
}

// loadWisdom merges the wisdom file at path, if any, into the process
// table; a file that does not exist yet is an empty one.
func loadWisdom(path string) error {
	if path == "" {
		return nil
	}
	if err := inplace.LoadWisdom(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// writeJSON writes v to w as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// byteSize returns the bytes of a dims-shaped array of elem-byte
// elements, refusing a negative factor or a product that overflows int
// before any file is read or buffer allocated.
func byteSize(elem int, dims ...int) (int, error) {
	n := elem
	for _, d := range dims {
		var ok bool
		if n, ok = mathutil.CheckedMul(n, d); !ok {
			return 0, fmt.Errorf("%s array of %d-byte elements has no representable byte size", tensor.Shape(dims), elem)
		}
	}
	return n, nil
}

// runMem is the bare form: transpose, or with -dims/-perm permute, a raw
// file in memory.
func runMem(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("xpose", stderr)
	rows := fs.Int("rows", 0, "matrix rows")
	cols := fs.Int("cols", 0, "matrix columns")
	dims := fs.String("dims", "", `tensor dimensions for -perm, outermost first (e.g. "2x8x8x4")`)
	perm := fs.String("perm", "", `axis permutation over -dims, numpy convention (e.g. "0,3,1,2")`)
	elem, workers := addElemWorkers(fs, "1, 2, 4 or 8")
	order := fs.String("order", "row", "storage order: row or col (2D only)")
	w := addWisdomFlags(fs, "the shape")
	if err := parse(fs, args); err != nil {
		return err
	}

	permMode := *dims != "" || *perm != ""
	if permMode && (*dims == "" || *perm == "" || *rows != 0 || *cols != 0) {
		return usage("xpose -dims NxHxWxC -perm 0,3,1,2 [-elem B] file (-dims and -perm go together, without -rows/-cols)")
	}
	if fs.NArg() != 1 || (!permMode && (*rows <= 0 || *cols <= 0)) {
		return usage("xpose -rows M -cols N [-elem B] [-order row|col] file\n       xpose -dims NxHxWxC -perm 0,3,1,2 [-elem B] file\n       xpose ooc|store|tune ...")
	}
	if permMode && *order != "row" {
		return fmt.Errorf("-order %s does not apply to -perm (a column-major tensor is described by reversing dims and perm)", *order)
	}
	o := inplace.Options{Workers: *workers}
	switch *order {
	case "row":
		o.Order = inplace.RowMajor
	case "col":
		o.Order = inplace.ColMajor
	default:
		return fmt.Errorf("unknown order %q", *order)
	}
	path := fs.Arg(0)

	if permMode {
		s, err := tensor.ParseShape(*dims)
		if err != nil {
			return err
		}
		p, err := tensor.ParsePerm(*perm, len(s))
		if err != nil {
			return err
		}
		if err := w.prepare(stdout, func() (fmt.Stringer, error) {
			return inplace.TunePermuteElem(s, p, *elem, inplace.TuneConfig{Workers: *workers})
		}); err != nil {
			return err
		}
		if err := rewriteFile(path, s, *elem, func(raw []byte) error {
			return inplace.PermuteAxesElem(raw, s, p, *elem, o)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "permuted %s: %s perm %s -> %s (%d-byte elements)\n",
			path, s, p, tensor.Permuted(s, p), *elem)
		return nil
	}

	if err := w.prepare(stdout, func() (fmt.Stringer, error) {
		// Order normalization happens inside the planner; tune the
		// shape as the planner will see it.
		tr, tc := *rows, *cols
		if o.Order == inplace.ColMajor {
			tr, tc = tc, tr
		}
		return inplace.TuneElem(tr, tc, *elem, inplace.TuneConfig{Workers: *workers})
	}); err != nil {
		return err
	}
	if err := rewriteFile(path, tensor.Shape{*rows, *cols}, *elem, func(raw []byte) error {
		return inplace.TransposeElem(raw, *rows, *cols, *elem, o)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "transposed %s: %dx%d -> %dx%d (%d-byte elements)\n", path, *rows, *cols, *cols, *rows, *elem)
	return nil
}

// rewriteFile reads the file at path, which must hold the elements of a
// tensor of shape s, elem bytes each, applies f to its bytes and writes
// them back.
func rewriteFile(path string, s tensor.Shape, elem int, f func(raw []byte) error) error {
	want, err := byteSize(elem, s...)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) != want {
		return fmt.Errorf("%s holds %d bytes, want %d (%sx%dB)", path, len(raw), want, s, elem)
	}
	if err := f(raw); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
