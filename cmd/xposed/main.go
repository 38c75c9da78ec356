// Command xposed is the transpose service daemon: it accepts matrices
// over a length-prefixed binary TCP protocol, transposes them in place
// through the process planner cache (so concurrent same-shape requests
// share one plan and small ones coalesce into batches), bounds its
// total in-flight bytes with an admission controller charging each job
// its payload plus the engine's exact scratch, and spills jobs too
// large for memory through the journaled out-of-core engine —
// resumable by token across disconnects and daemon restarts.
//
// Usage:
//
//	xposed [-addr :7077] [-http :7078] [-spill DIR] [-budget 1g]
//	       [-mem-limit 64m] [-ooc-budget 64m] [-queue-wait 2s]
//	       [-max-queue 256] [-coalesce 200us] [-coalesce-limit 32k]
//	       [-coalesce-max 64] [-wisdom FILE]
//	xposed -selftest
//
// The HTTP port serves GET /stats (every counter in the process as
// deterministic JSON) and GET /healthz. Without -spill, jobs larger
// than -mem-limit are rejected instead of spilled.
//
// -selftest runs the full service loop in-process — 64 concurrent
// clients over TCP, coalesced small jobs, a spilled job killed mid-
// upload and resumed across a daemon restart, and a /stats scrape with
// invariant checks — and exits non-zero on any failure.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"inplace"
	"inplace/client"
	"inplace/internal/mathutil"
	"inplace/internal/server"
	"inplace/internal/server/wire"
	"inplace/internal/stats"
)

func main() {
	addr := flag.String("addr", ":7077", "TCP address of the binary data port")
	httpAddr := flag.String("http", ":7078", "HTTP address for /stats and /healthz (empty disables)")
	spill := flag.String("spill", "", "spill directory for out-of-core jobs (empty disables spilling)")
	budget := flag.String("budget", "1g", "total in-flight admission budget (bytes, or k/m/g suffix)")
	memLimit := flag.String("mem-limit", "64m", "per-job in-memory payload ceiling; larger jobs spill")
	oocBudget := flag.String("ooc-budget", "64m", "resident scratch budget for spilled jobs")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "how long an unadmitted job queues before shedding")
	maxQueue := flag.Int("max-queue", 256, "admission queue depth")
	coalesce := flag.Duration("coalesce", 200*time.Microsecond, "coalescing window for small same-shape jobs (negative disables)")
	coalesceLimit := flag.String("coalesce-limit", "32k", "per-job payload ceiling for coalescing")
	coalesceMax := flag.Int("coalesce-max", 64, "max jobs per coalesced batch")
	wisdom := flag.String("wisdom", "", "wisdom file to load at startup (see cmd/xposetune)")
	selftest := flag.Bool("selftest", false, "run the in-process service selftest and exit")
	flag.Parse()

	if *selftest {
		runSelftest()
		return
	}

	budgetBytes, err := mathutil.ParseSize(*budget)
	if err != nil {
		fatal(err)
	}
	memBytes, err := mathutil.ParseSize(*memLimit)
	if err != nil {
		fatal(err)
	}
	oocBytes, err := mathutil.ParseSize(*oocBudget)
	if err != nil {
		fatal(err)
	}
	coalesceBytes, err := mathutil.ParseSize(*coalesceLimit)
	if err != nil {
		fatal(err)
	}
	if *wisdom != "" {
		if err := inplace.LoadWisdom(*wisdom); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}

	srv, err := server.New(server.Config{
		SpillDir:         *spill,
		MaxInFlightBytes: budgetBytes,
		MemJobLimit:      memBytes,
		OOCBudget:        oocBytes,
		MaxWait:          *queueWait,
		MaxQueue:         *maxQueue,
		CoalesceWindow:   *coalesce,
		CoalesceLimit:    coalesceBytes,
		CoalesceMax:      *coalesceMax,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("xposed: serving on %s", ln.Addr())
	if adopted := srv.SpilledJobs(); adopted > 0 {
		fmt.Printf(" (adopted %d resumable spilled jobs)", adopted)
	}
	fmt.Println()

	var hsrv *http.Server
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		hsrv = &http.Server{Handler: srv.Handler()}
		go hsrv.Serve(hln)
		fmt.Printf("xposed: stats on http://%s/stats\n", hln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		fmt.Printf("xposed: %v, shutting down\n", s)
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	}
	if hsrv != nil {
		hsrv.Close()
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// --- selftest ---

// The selftest is the serve-smoke gate: the entire service loop,
// in-process, with hard assertions on the /stats invariants the design
// promises — plan-cache hit rate above 90% for repeated shapes, the
// in-flight peak never beyond the budget, at least one job spilled and
// resumed across a daemon restart, and a drained ledger at shutdown.

const (
	stClients  = 64
	stMemJobs  = 8  // per-client jobs on the plan-shared mem path
	stTinyJobs = 4  // per-client jobs small enough to coalesce
	stRows     = 96 // mem-path shape
	stCols     = 128
	stTinyRows = 32 // coalesce-path shape
	stTinyCols = 16
)

func runSelftest() {
	dir, err := os.MkdirTemp("", "xposed-selftest-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	reg := stats.NewRegistry()
	cfg := server.Config{
		SpillDir:         filepath.Join(dir, "spill"),
		MaxInFlightBytes: 64 << 20,
		MemJobLimit:      1 << 20,
		OOCBudget:        256 << 10,
		CoalesceLimit:    8 << 10,
		Registry:         reg,
	}
	before := stats.Default().Snapshot()

	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	// Phase 1: 64 concurrent clients, each repeating the same two
	// shapes, so the planner cache and the coalescer both see heavy
	// same-shape traffic.
	var wg sync.WaitGroup
	errs := make(chan error, stClients)
	for i := 0; i < stClients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if err := selftestClient(addr, seed); err != nil {
				errs <- err
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fatal(err)
	}

	// Phase 2: spill a 2 MiB job, kill the daemon mid-upload, restart
	// over the same spill directory and resume to completion.
	const spRows, spCols, spElem = 512, 512, 8
	payload := make([]byte, spRows*spCols*spElem)
	rand.New(rand.NewSource(42)).Read(payload)
	want := refTranspose(payload, spRows, spCols, spElem)
	token := client.NewToken()

	if err := partialSpillUpload(addr, token, payload, spRows, spCols, spElem, len(payload)/2); err != nil {
		fatal(fmt.Errorf("selftest: partial spill upload: %w", err))
	}
	if err := srv.Close(); err != nil { // forced kill: live conns die, spill files survive
		fatal(err)
	}

	srv2, err := server.New(cfg) // same spill dir, same registry: adopts the token
	if err != nil {
		fatal(err)
	}
	if got := srv2.SpilledJobs(); got != 1 {
		fatal(fmt.Errorf("selftest: restarted server adopted %d spilled jobs, want 1", got))
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	go srv2.Serve(ln2)
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	hsrv := &http.Server{Handler: srv2.Handler()}
	go hsrv.Serve(hln)

	got := append([]byte(nil), payload...)
	cl, err := client.Dial(ln2.Addr().String())
	if err != nil {
		fatal(err)
	}
	if err := cl.Resume(token, got, spRows, spCols, spElem); err != nil {
		fatal(fmt.Errorf("selftest: resume after restart: %w", err))
	}
	cl.Close()
	if !bytes.Equal(got, want) {
		fatal(fmt.Errorf("selftest: resumed spill result does not match reference"))
	}

	// Phase 3: scrape /stats over HTTP and check the invariants.
	snap, err := scrapeStats(hln.Addr().String())
	if err != nil {
		fatal(err)
	}
	hits := float64(snap.Counters["planner_cache_hits"] - before.Counters["planner_cache_hits"])
	misses := float64(snap.Counters["planner_cache_misses"] - before.Counters["planner_cache_misses"])
	hitRate := hits / (hits + misses)
	if hitRate <= 0.9 {
		fatal(fmt.Errorf("selftest: planner cache hit rate %.3f, want > 0.9 (hits %v misses %v)", hitRate, hits, misses))
	}
	budget := snap.Gauges["server_inflight_budget_bytes"]
	infl := snap.Levels["server_inflight_bytes"]
	if infl.Peak > budget {
		fatal(fmt.Errorf("selftest: in-flight peak %d exceeded budget %d", infl.Peak, budget))
	}
	if snap.Counters["server_jobs_spilled"] < 1 {
		fatal(fmt.Errorf("selftest: no job spilled through the out-of-core engine"))
	}
	if snap.Counters["server_resumes"] < 1 {
		fatal(fmt.Errorf("selftest: no spilled job was resumed"))
	}
	if snap.Counters["server_coalesced_batches"] < 1 {
		fatal(fmt.Errorf("selftest: no small jobs were coalesced"))
	}
	wantJobs := uint64(stClients * (stMemJobs + stTinyJobs))
	if snap.Counters["server_jobs_inmem"] != wantJobs {
		fatal(fmt.Errorf("selftest: %d in-memory jobs completed, want %d", snap.Counters["server_jobs_inmem"], wantJobs))
	}

	hsrv.Close()
	if err := srv2.Close(); err != nil { // waits for every handler: the ledger must be drained now
		fatal(err)
	}
	if v := reg.Snapshot().Levels["server_inflight_bytes"].Value; v != 0 {
		fatal(fmt.Errorf("selftest: in-flight ledger not drained after shutdown: %d", v))
	}
	fmt.Printf("selftest ok: %d clients, %d jobs (hit rate %.3f, %d coalesced into %d batches), peak in-flight %d/%d bytes, %d spilled + %d resumed across restart\n",
		stClients, snap.Counters["server_jobs"], hitRate,
		snap.Counters["server_coalesced_jobs"], snap.Counters["server_coalesced_batches"],
		infl.Peak, budget,
		snap.Counters["server_jobs_spilled"], snap.Counters["server_resumes"])
}

// selftestClient is one of the 64 concurrent clients: repeated
// same-shape jobs on the mem path plus tiny coalescable jobs, each
// verified bit-exactly against a reference transpose.
func selftestClient(addr string, seed int64) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(seed))
	run := func(rows, cols, elem int) error {
		cells, ok := mathutil.CheckedMul(rows, cols)
		if !ok {
			return fmt.Errorf("client %d: %dx%d overflows", seed, rows, cols)
		}
		size, ok := mathutil.CheckedMul(cells, elem)
		if !ok {
			return fmt.Errorf("client %d: %dx%d elem %d overflows", seed, rows, cols, elem)
		}
		data := make([]byte, size)
		rng.Read(data)
		want := refTranspose(data, rows, cols, elem)
		if err := cl.Transpose(data, rows, cols, elem); err != nil {
			return fmt.Errorf("client %d: %w", seed, err)
		}
		if !bytes.Equal(data, want) {
			return fmt.Errorf("client %d: %dx%d transpose mismatch", seed, rows, cols)
		}
		return nil
	}
	for j := 0; j < stMemJobs; j++ {
		if err := run(stRows, stCols, 4); err != nil {
			return err
		}
	}
	for j := 0; j < stTinyJobs; j++ {
		if err := run(stTinyRows, stTinyCols, 4); err != nil {
			return err
		}
	}
	return nil
}

// partialSpillUpload speaks raw wire to start a forced-spill job,
// uploads only the first partial bytes, and drops the connection — the
// client half of a mid-upload crash.
func partialSpillUpload(addr string, token uint64, payload []byte, rows, cols, elem, partial int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var hdr [wire.HeaderLen]byte

	var hello [wire.HelloLen]byte
	wire.Hello{Version: wire.Version}.Marshal(&hello)
	if err := wire.WriteFrame(bw, &hdr, wire.TypeHello, hello[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if _, _, err := wire.ReadHeader(br, &hdr, wire.DefaultMaxData); err != nil {
		return err
	}
	ackBuf := make([]byte, wire.HelloAckLen)
	if err := wire.ReadPayload(br, ackBuf); err != nil {
		return err
	}

	var job [wire.JobLen]byte
	wire.Job{
		Token: token,
		Rows:  uint64(rows), Cols: uint64(cols),
		Elem: uint32(elem), Flags: wire.FlagSpill,
	}.Marshal(&job)
	if err := wire.WriteFrame(bw, &hdr, wire.TypeJob, job[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	t, n, err := wire.ReadHeader(br, &hdr, wire.DefaultMaxData)
	if err != nil {
		return err
	}
	if t != wire.TypeAccept {
		return fmt.Errorf("expected Accept, got frame type %d", t)
	}
	accBuf := make([]byte, n)
	if err := wire.ReadPayload(br, accBuf); err != nil {
		return err
	}

	const chunk = 64 << 10
	for off := 0; off < partial; off += chunk {
		end := off + chunk
		if end > partial {
			end = partial
		}
		if err := wire.WriteFrame(bw, &hdr, wire.TypeData, payload[off:end]); err != nil {
			return err
		}
	}
	return bw.Flush()
	// conn closes here, mid-upload.
}

// scrapeStats fetches and decodes the /stats JSON.
func scrapeStats(addr string) (stats.Snapshot, error) {
	var snap stats.Snapshot
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("selftest: /stats returned %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, err
	}
	return snap, nil
}

// refTranspose computes the expected byte image of a transposed
// row-major rows×cols matrix of elem-byte records.
func refTranspose(raw []byte, rows, cols, elem int) []byte {
	out := make([]byte, len(raw))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			copy(out[(c*rows+r)*elem:(c*rows+r+1)*elem], raw[(r*cols+c)*elem:(r*cols+c+1)*elem])
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xposed:", err)
	os.Exit(1)
}
