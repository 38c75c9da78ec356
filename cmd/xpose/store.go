package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"inplace"
	"inplace/internal/mathutil"
)

const storeUsage = `xpose store create -rows N -fields F -elem B [-chunk R] [-input FILE] DIR
       xpose store scan [-lo N] [-hi N] [-out FILE] [-stats] DIR
       xpose store project -cols 1,7,14 [-lo N] [-hi N] [-out FILE] [-stats] DIR
       xpose store verify DIR
       xpose store stats [-scans N] DIR
       xpose store selftest`

// runStore is `xpose store`: manage columnar tile-store datasets, whose
// fixed-width records are ingested row-major (AoS), stored column-major
// on disk through the per-chunk skinny transpose, and read back as full
// scans or column projections.
//
// create reads rows*fields*elem bytes of row-major records from -input
// (stdin by default) and seals the dataset; a kill at any point leaves
// the dataset absent, never torn. scan and project write raw bytes to
// -out (stdout by default). verify re-reads every column segment
// against its CRC64 frame. stats exercises repeated scans and prints
// the handle's cache and I/O counters as JSON. selftest builds a
// scratch dataset and asserts the store's three load-bearing
// properties: projections touch fewer backend bytes than scans, warm
// scans hit the block cache, and an interrupted ingest is invisible.
func runStore(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usage(storeUsage)
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "create":
		return storeCreate(args, stdout, stderr)
	case "scan":
		return storeRead(args, false, stdout, stderr)
	case "project":
		return storeRead(args, true, stdout, stderr)
	case "verify":
		return storeVerify(args, stdout, stderr)
	case "stats":
		return storeStats(args, stdout, stderr)
	case "selftest", "-selftest", "--selftest":
		return storeSelftest(stdout)
	default:
		return usage(storeUsage)
	}
}

// parseDir parses args into fs and returns the single positional DIR
// argument.
func parseDir(fs *flag.FlagSet, args []string) (string, error) {
	if err := parse(fs, args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", errors.New("expected exactly one dataset directory argument")
	}
	return fs.Arg(0), nil
}

// recordBuf allocates the bytes of rows records of fields elem-byte
// fields.
func recordBuf(rows, fields, elem int) ([]byte, error) {
	n, err := byteSize(elem, rows, fields)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil
}

func storeCreate(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("xpose store create", stderr)
	rows := fs.Int("rows", 0, "record count")
	fields := fs.Int("fields", 0, "fields per record")
	elem := fs.Int("elem", 4, "field element size in bytes")
	chunk := fs.Int("chunk", 0, "chunk height in records (0 = wisdom, then heuristic)")
	input := fs.String("input", "", "row-major AoS input file (default stdin)")
	budget := fs.String("budget", "0", "ingest scratch ceiling (bytes, or k/m/g; 0 = default)")
	w := addWisdomFlags(fs, "chunk sizing")
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	budgetBytes, err := mathutil.ParseSize(*budget)
	if err != nil {
		return err
	}
	if err := w.prepare(stdout, func() (fmt.Stringer, error) {
		return inplace.TuneStore(*rows, *fields, *elem)
	}); err != nil {
		return err
	}

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	d, err := inplace.CreateDataset(dir, *rows, *fields, *elem, inplace.DatasetOptions{
		ChunkRows: *chunk,
		MemBudget: budgetBytes,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Ingest(in); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Fprintf(stdout, "created %s: %d rows × %d fields (%d-byte elements), chunk height %d, %d segments (%d spilled chunks)\n",
		dir, *rows, *fields, *elem, d.ChunkRows(), st.SegmentsWritten, st.Spills)
	return nil
}

func storeRead(args []string, project bool, stdout, stderr io.Writer) error {
	name := "scan"
	if project {
		name = "project"
	}
	fs := newFlags("xpose store "+name, stderr)
	colsArg := fs.String("cols", "", "comma-separated column indices (project only)")
	lo := fs.Int("lo", 0, "first row (inclusive)")
	hi := fs.Int("hi", 0, "last row (exclusive; 0 = all rows)")
	out := fs.String("out", "", "output file for raw bytes (default stdout)")
	statsOut := fs.Bool("stats", false, "print handle counters as JSON on stderr")
	cache := fs.String("cache", "0", "block cache capacity (bytes, or k/m/g; 0 = default)")
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	cacheBytes, err := mathutil.ParseSize(*cache)
	if err != nil {
		return err
	}

	d, err := inplace.OpenDataset(dir, inplace.DatasetOptions{CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	defer d.Close()
	if *hi == 0 {
		*hi = d.Rows()
	}

	var buf []byte
	if project {
		cols, err := parseCols(*colsArg)
		if err != nil {
			return err
		}
		if buf, err = recordBuf(*hi-*lo, len(cols), d.ElemSize()); err != nil {
			return err
		}
		if err := d.Project(buf, cols, *lo, *hi); err != nil {
			return err
		}
	} else {
		if buf, err = recordBuf(*hi-*lo, d.Fields(), d.ElemSize()); err != nil {
			return err
		}
		if err := d.Scan(buf, *lo, *hi); err != nil {
			return err
		}
	}

	if *out == "" {
		_, err = stdout.Write(buf)
	} else {
		err = os.WriteFile(*out, buf, 0o666)
	}
	if err != nil {
		return err
	}
	if *statsOut {
		return writeJSON(stderr, d.Stats())
	}
	return nil
}

func storeVerify(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("xpose store verify", stderr)
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	d, err := inplace.OpenDataset(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Fprintf(stdout, "verified %s: %d rows × %d fields, %d bytes checked, all frames and checksums valid\n",
		dir, d.Rows(), d.Fields(), st.BytesRead)
	return nil
}

func storeStats(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("xpose store stats", stderr)
	scans := fs.Int("scans", 2, "full scans to drive through the cache before reporting")
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	d, err := inplace.OpenDataset(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	buf, err := recordBuf(d.Rows(), d.Fields(), d.ElemSize())
	if err != nil {
		return err
	}
	for i := 0; i < *scans; i++ {
		if err := d.Scan(buf, 0, d.Rows()); err != nil {
			return err
		}
	}
	report := struct {
		Rows      int `json:"rows"`
		Fields    int `json:"fields"`
		ElemSize  int `json:"elem_size"`
		ChunkRows int `json:"chunk_rows"`
		inplace.DatasetStats
	}{d.Rows(), d.Fields(), d.ElemSize(), d.ChunkRows(), d.Stats()}
	return writeJSON(stdout, report)
}

// storeSelftest asserts the store's load-bearing properties end to end
// on the deployment machine:
//
//  1. a 3-of-16-column projection reads strictly fewer backend bytes
//     than a full scan of the same rows (counted at the read syscalls);
//  2. repeated scans hit the block cache at a rate above 0.9;
//  3. an ingest abandoned midway leaves the dataset invisible to open
//     — absent or fully valid, never torn — and a subsequent complete
//     ingest passes the full checksum scan.
func storeSelftest(stdout io.Writer) error {
	const rows, fields, elem, chunk = 512, 16, 4, 64
	scratch, err := os.MkdirTemp("", "xpose-store-selftest-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	aos := make([]byte, rows*fields*elem)
	for i := range aos {
		aos[i] = byte(uint32(i)*2654435761>>9 + uint32(i)*13)
	}
	build := func(dir string) (*inplace.Dataset, error) {
		d, err := inplace.CreateDataset(dir, rows, fields, elem, inplace.DatasetOptions{ChunkRows: chunk})
		if err != nil {
			return nil, err
		}
		if err := d.Ingest(bytes.NewReader(aos)); err != nil {
			d.Close()
			return nil, err
		}
		return d, nil
	}

	// Property 1: projection reads fewer backend bytes than a scan.
	// Fresh handle per measurement so cold counters compare cleanly.
	ds, err := build(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	ds.Close()
	scanHandle, err := inplace.OpenDataset(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	full := make([]byte, rows*fields*elem)
	if err := scanHandle.Scan(full, 0, rows); err != nil {
		return err
	}
	scanBytes := scanHandle.Stats().BytesRead
	scanHandle.Close()
	if !bytes.Equal(full, aos) {
		return errors.New("selftest: full scan mismatch")
	}

	projHandle, err := inplace.OpenDataset(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	cols := []int{1, 7, 14}
	proj, err := recordBuf(rows, len(cols), elem)
	if err != nil {
		return err
	}
	if err := projHandle.Project(proj, cols, 0, rows); err != nil {
		return err
	}
	projBytes := projHandle.Stats().BytesRead
	projHandle.Close()
	for r := 0; r < rows; r++ {
		for ci, c := range cols {
			want := aos[(r*fields+c)*elem : (r*fields+c+1)*elem]
			if !bytes.Equal(proj[(r*len(cols)+ci)*elem:(r*len(cols)+ci+1)*elem], want) {
				return fmt.Errorf("selftest: projection mismatch at row %d column %d", r, c)
			}
		}
	}
	if projBytes >= scanBytes {
		return fmt.Errorf("selftest: projection of %d/%d columns read %d bytes, full scan %d — columnar layout is not paying off",
			len(cols), fields, projBytes, scanBytes)
	}

	// Property 2: warm scans hit the cache above 0.9.
	warm, err := inplace.OpenDataset(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	const passes = 16
	for i := 0; i < passes; i++ {
		if err := warm.Scan(full, 0, rows); err != nil {
			return err
		}
	}
	st := warm.Stats()
	warm.Close()
	hitRate := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	if hitRate <= 0.9 {
		return fmt.Errorf("selftest: cache hit rate %.3f over %d scans, want > 0.9", hitRate, passes)
	}

	// Property 3: an ingest killed midway leaves the dataset absent.
	// A reader that stops short models the kill: segments are partially
	// written but the meta state machine never reaches sealed.
	tornDir := filepath.Join(scratch, "torn")
	torn, err := inplace.CreateDataset(tornDir, rows, fields, elem, inplace.DatasetOptions{ChunkRows: chunk})
	if err != nil {
		return err
	}
	if err := torn.Ingest(bytes.NewReader(aos[:len(aos)/2])); err == nil {
		torn.Close()
		return errors.New("selftest: truncated ingest unexpectedly succeeded")
	}
	torn.Close()
	if _, err := inplace.OpenDataset(tornDir); !errors.Is(err, inplace.ErrNotSealed) {
		return fmt.Errorf("selftest: open of killed ingest = %v, want ErrNotSealed", err)
	}
	// Completing the dataset from scratch makes it fully valid — the
	// checksum scan proves every byte, not just the metadata.
	if err := os.RemoveAll(tornDir); err != nil {
		return err
	}
	redo, err := build(tornDir)
	if err != nil {
		return err
	}
	defer redo.Close()
	if err := redo.Verify(); err != nil {
		return fmt.Errorf("selftest: checksum scan after re-ingest: %w", err)
	}

	fmt.Fprintf(stdout, "selftest ok: %d rows × %d fields; projection %d/%d bytes vs scan, hit rate %.3f over %d scans, killed ingest invisible and re-ingest checksum-clean\n",
		rows, fields, projBytes, scanBytes, hitRate, passes)
	return nil
}

// parseCols parses a comma-separated column list.
func parseCols(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("project requires -cols (comma-separated column indices)")
	}
	parts := strings.Split(s, ",")
	cols := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad column %q: %v", p, err)
		}
		cols = append(cols, n)
	}
	return cols, nil
}
