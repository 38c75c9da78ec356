package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"inplace"
	"inplace/client"
	"inplace/internal/server"
	"inplace/internal/server/wire"
	"inplace/internal/stats"
)

// serve is the daemon workload: an in-process xposed server at its
// default server.Config, apart from SpillDir, on loopback, driven by two
// closed-loop client connections, one per core. Each client sends blocks
// of 400 jobs in a seeded order: 360 tiny ones (≤32 KiB, so they can be
// coalesced), drawn Zipf from 256 shapes — twice what the 128-entry
// planner cache holds; 36 mid jobs of 1–4 MiB run in memory, every mid
// shape equally often; and 4 that set wire.FlagSpill, which forces the
// journaled spill path. Fixed counts per block, rather than a draw per
// job, give every window of a phase the same mix. Chosen because the coalescer, admission, wire
// and plan cache set the tiny-job latency, while the mid jobs put the
// engine back on the critical path.
const (
	serveClients = 2
	tinyShapes   = 256
	tinyLimit    = 32 << 10
	blockJobs    = 400
	blockMid     = 36
	blockSpill   = 4
	tinyZipfS    = 1.1
	sampleEvery  = 16 // every 16th job of a client is compared against the pattern
	serveWarmup  = time.Second
	inprocShapes = 32 // shapes per class the in-process reference times
	inprocReps   = 5
)

// job is one shape of the catalogue.
type job struct {
	class            string
	rows, cols, elem int
	flags            uint32
}

// tinyCatalogue is the fixed set of tiny shapes: 4- and 8-byte elements,
// every one at most tinyLimit bytes, no two alike.
func tinyCatalogue() []job {
	seen := map[job]bool{}
	var out []job
	for i := 0; len(out) < tinyShapes; i++ {
		elemSize := 4 << (i % 2)
		rows := 8 + (i*37)%120
		j := job{class: "tiny", rows: rows, cols: tinyLimit/elemSize/rows - (i/2)%7, elem: elemSize}
		if j.cols > 0 && !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

var (
	midJobs = []job{
		{class: "mid", rows: 512, cols: 512, elem: 4},
		{class: "mid", rows: 700, cols: 999, elem: 4},
		{class: "mid", rows: 1000, cols: 1000, elem: 4},
		{class: "mid", rows: 1024, cols: 511, elem: 8},
	}
	spillJob = job{class: "spill", rows: 600, cols: 701, elem: 4, flags: wire.FlagSpill}
)

// payload is one client's buffer for one shape. It is transposed in
// place, so it flips between the shape and its transpose.
type payload struct {
	job
	buf     []byte
	base    uint64
	flipped bool
}

func newPayload(j job, base uint64) (*payload, error) {
	n, err := elems(j.rows, j.cols, j.elem)
	if err != nil {
		return nil, err
	}
	p := &payload{job: j, buf: make([]byte, n), base: base}
	putPattern(p.buf, j.elem, base, 0)
	return p, nil
}

func (p *payload) check() bool {
	return checkBytes(p.buf, p.elem, p.base, &cursor{rows: p.rows, cols: p.cols, transposed: p.flipped})
}

// loadClient is one closed-loop connection and its payloads.
type loadClient struct {
	c     *client.Client
	rng   *rand.Rand
	zipf  *rand.Zipf
	rank  []int
	tiny  []*payload
	mid   []*payload
	spill *payload
	block []*payload
	seq   int
}

// runBlock draws the client's next block of jobs — the fixed counts of
// spill and mid jobs, Zipf-drawn tiny ones for the rest, in a seeded
// order — and sends it.
func (cl *loadClient) runBlock(l *opLog, tr *tracer) {
	cl.block = cl.block[:0]
	for i := 0; i < blockSpill; i++ {
		cl.block = append(cl.block, cl.spill)
	}
	for i := 0; i < blockMid; i++ {
		cl.block = append(cl.block, cl.mid[i%len(cl.mid)])
	}
	for len(cl.block) < blockJobs {
		cl.block = append(cl.block, cl.tiny[cl.rank[cl.zipf.Uint64()]])
	}
	cl.rng.Shuffle(len(cl.block), func(i, j int) { cl.block[i], cl.block[j] = cl.block[j], cl.block[i] })
	for _, p := range cl.block {
		cl.do(p, l, tr)
	}
}

// do sends one job and checks it: the client verifies the CRC of every
// result, and every spill job and every sampleEvery-th job is also
// compared against the pattern.
func (cl *loadClient) do(p *payload, l *opLog, tr *tracer) {
	cl.seq++
	rows, cols := p.rows, p.cols
	if p.flipped {
		rows, cols = cols, rows
	}
	id := tr.begin("client", p.class, -1)
	t0 := time.Now()
	_, err := cl.c.TransposeToken(client.NewToken(), p.buf, rows, cols, p.elem, p.flags)
	el := time.Since(t0)
	tr.end(id)
	if err == nil {
		p.flipped = !p.flipped
	}
	sampled := p.flags != 0 || cl.seq%sampleEvery == 0
	l.record(p.class, el, len(p.buf), err, err == nil && (!sampled || p.check()))
}

// daemon is the in-process server and the goroutine serving it.
type daemon struct {
	srv    *server.Server
	addr   string
	served chan error
}

func startDaemon(spillDir string) (*daemon, error) {
	srv, err := server.New(server.Config{SpillDir: spillDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// stop closes the server and waits for Serve to return.
func (d *daemon) stop() error {
	err := d.srv.Close()
	if serr := <-d.served; err == nil {
		err = serr
	}
	return err
}

type serveWL struct {
	spillDir string
	d        *daemon
	clients  []*loadClient
	catalog  []job
}

func newServe(cfg *config) (*serveWL, error) {
	s := &serveWL{spillDir: cfg.dir, catalog: tinyCatalogue()}
	// Both clients share one popularity ranking, so hot shapes coincide
	// in the plan cache and the coalescer; each draws its own jobs.
	rank := rand.New(rand.NewSource(cfg.seed)).Perm(tinyShapes)
	for i := 0; i < serveClients; i++ {
		rng := rand.New(rand.NewSource(cfg.seed + int64(i+1)*7919))
		cl := &loadClient{rng: rng, zipf: rand.NewZipf(rng, tinyZipfS, 1, tinyShapes-1), rank: rank}
		for _, j := range append(append(s.catalog[:len(s.catalog):len(s.catalog)], midJobs...), spillJob) {
			p, err := newPayload(j, uint64(rng.Int63()))
			if err != nil {
				return nil, err
			}
			switch j.class {
			case "tiny":
				cl.tiny = append(cl.tiny, p)
			case "mid":
				cl.mid = append(cl.mid, p)
			default:
				cl.spill = p
			}
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// up starts the daemon and dials every client: the set-up that is timed.
func (s *serveWL) up() error {
	d, err := startDaemon(s.spillDir)
	if err != nil {
		return err
	}
	s.d = d
	for _, cl := range s.clients {
		if cl.c, err = client.Dial(d.addr); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveWL) down() error {
	for _, cl := range s.clients {
		if cl.c != nil {
			cl.c.Close()
			cl.c = nil
		}
	}
	if s.d == nil {
		return nil
	}
	err := s.d.stop()
	s.d = nil
	return err
}

// phase runs every client's closed loop, a whole block at a time, until
// dur has passed and returns the merged log and the phase's wall time.
func (s *serveWL) phase(dur time.Duration, tr *tracer) (*opLog, time.Duration) {
	logs := make([]*opLog, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range s.clients {
		logs[i] = newOpLog()
		wg.Add(1)
		go func(cl *loadClient, l *opLog) {
			defer wg.Done()
			l.begin(start, dur)
			for time.Since(start) < dur {
				cl.runBlock(l, tr)
				l.tick(time.Now())
			}
			l.finish(time.Now())
		}(cl, logs[i])
	}
	wg.Wait()
	wall := time.Since(start)
	all := newOpLog()
	for _, l := range logs {
		all.merge(l)
	}
	return all, wall
}

func runServe(cfg *config, rep *report, tr *tracer) error {
	s, err := newServe(cfg)
	if err != nil {
		return err
	}
	setup, err := timeSetup(setupRounds, s.up, s.down)
	defer s.down()
	if err != nil {
		return err
	}
	// Warm-up fills the plan cache, the server's buffer pool and the
	// spill directory's first files.
	warm, _ := s.phase(serveWarmup, nil)
	rep.count(warm)

	if tr == nil {
		peak := startPeakRSS(rep)
		l, _ := s.phase(cfg.seconds, nil)
		rss := peak()
		rep.count(l)
		recordEndToEnd(rep, cfg, l, true, setup, rss)
		return nil
	}

	half := cfg.seconds / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lA, wallA := s.phase(half, nil)
	runtime.ReadMemStats(&m1)
	rep.count(lA)
	recordRuntime(rep, &m0, &m1, len(lA.lat))

	snap0, c0 := s.d.srv.StatsSnapshot(), readCacheCounts()
	lB, wallB := s.phase(half, tr)
	snap1 := s.d.srv.StatsSnapshot()
	recordCache(rep, c0, readCacheCounts())
	rep.count(lB)
	rep.set("trace.overhead_ratio", "ratio", gbps(lB.bytes, wallB)/gbps(lA.bytes, wallA))
	recordServer(rep, snap0, snap1)

	// The server's overhead per size class: the client round trip minus
	// an in-process Transpose of the same shapes — the call the server
	// makes for the job.
	hot := make([]job, 0, inprocShapes)
	for _, i := range s.clients[0].rank[:inprocShapes] {
		hot = append(hot, s.catalog[i])
	}
	for _, c := range []struct {
		name string
		jobs []job
	}{{"tiny", hot}, {"mid", midJobs}} {
		us, err := inprocUS(c.jobs)
		if err != nil {
			return err
		}
		rep.set("server.overhead_us_"+c.name, "us", lB.medianOf(c.name)*1e3-us)
	}
	return planBuildTiny(s.catalog, rep)
}

// recordServer reports the daemon's registry deltas over the traced
// phase, and the in-flight and queue peaks.
func recordServer(rep *report, a, b stats.Snapshot) {
	delta := func(name string) float64 { return float64(b.Counters[name] - a.Counters[name]) }
	jobs, coalesced, batches := delta("server_jobs"), delta("server_coalesced_jobs"), delta("server_coalesced_batches")
	rep.set("server.coalesced_share", "ratio", coalesced/jobs)
	batch := 0.0
	if batches > 0 {
		batch = coalesced / batches
	}
	rep.set("server.batch_size", "count", batch)
	rep.set("server.shed_ratio", "ratio", delta("server_shed")/jobs)
	rep.set("server.inflight_peak_ratio", "ratio",
		float64(b.Levels["server_inflight_bytes"].Peak)/float64(b.Gauges["server_inflight_budget_bytes"]))
	rep.set("server.queue_depth_peak", "count", float64(b.Levels["server_queue_depth"].Peak))
	rep.set("server.spilled_jobs", "count", delta("server_jobs_spilled"))
}

// inprocUS is the median µs of an in-process Transpose over the shapes.
func inprocUS(jobs []job) (float64, error) {
	var xs []float64
	for _, j := range jobs {
		var err error
		if j.elem == 4 {
			xs, err = timeTranspose[uint32](xs, j)
		} else {
			xs, err = timeTranspose[uint64](xs, j)
		}
		if err != nil {
			return 0, err
		}
	}
	return stats.Median(xs), nil
}

func timeTranspose[T uint32 | uint64](xs []float64, j job) ([]float64, error) {
	n, err := elems(j.rows, j.cols)
	if err != nil {
		return nil, err
	}
	buf := make([]T, n)
	rows, cols := j.rows, j.cols
	for r := 0; r < inprocReps; r++ {
		t0 := time.Now()
		if err := inplace.Transpose(buf, rows, cols); err != nil {
			return nil, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
		rows, cols = cols, rows
	}
	return xs, nil
}

// planBuildTiny times NewPlanner for every tiny shape.
func planBuildTiny(catalog []job, rep *report) error {
	t0 := time.Now()
	for _, j := range catalog {
		var err error
		if j.elem == 4 {
			_, err = inplace.NewPlanner[uint32](j.rows, j.cols)
		} else {
			_, err = inplace.NewPlanner[uint64](j.rows, j.cols)
		}
		if err != nil {
			return fmt.Errorf("planning %dx%d: %w", j.rows, j.cols, err)
		}
	}
	rep.set("inplace.plan_build_us", "us", float64(time.Since(t0).Nanoseconds())/1e3/float64(len(catalog)))
	return nil
}
