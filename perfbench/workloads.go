package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/federation"
	"stdchk/internal/proto"
	"stdchk/internal/workload"
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	run func(e *env) error
	// primary is the end-to-end metric the tracing overhead is read on.
	primary string
	// chunking is the workload's chunk boundary rule, for timing the
	// chunker and hash layers on its own inputs.
	chunking chunker.Chunker
	// sample returns some of the workload's input bytes.
	sample func(seed int64) []byte
}

var workloads = map[string]workloadSpec{
	"stream": {
		run:      runStream,
		primary:  "write_asb_MBps",
		chunking: chunker.Fixed{Size: streamChunk},
		sample:   func(seed int64) []byte { return streamImage(seed, 0)[:sampleBytes] },
	},
	"incremental": {
		run:      runIncremental,
		primary:  "write_asb_MBps",
		chunking: incCbCH,
		sample:   func(seed int64) []byte { return incTrace(seed, 0).Images[0] },
	},
	"many_small": {
		run:      runManySmall,
		primary:  "ckpts_per_s",
		chunking: chunker.Fixed{Size: smallChunk},
		sample: func(seed int64) []byte {
			img := smallImage(seed, 0)
			return bytes.Repeat(img, sampleBytes/len(img))
		},
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sampleBytes is how much input the chunker and hash timings consume.
const sampleBytes = 32 << 20

// ---- shared run state ----

// env is what a workload runs with: a fresh cluster, the deadline, and
// the tally its operations feed.
type env struct {
	seed     int64
	deadline time.Time
	cl       *cluster
	lay      *layerSet // nil on a bare run
	t        *tally
	before   proto.ManagerStats
	after    proto.ManagerStats
	admin    *client.Client
}

// tr returns the run's tracer (nil, which records nothing, on a bare run).
func (e *env) tr() *tracer {
	if e.lay == nil {
		return nil
	}
	return e.lay.tr
}

// newClient connects a client with the fixed stripe and replication. A
// traced run routes metadata through a one-member federation router
// behind the timing endpoint and counts every connection.
func (e *env) newClient(cfg client.Config) (*client.Client, error) {
	cfg.StripeWidth = stripeWidth
	cfg.Replication = replication
	if e.lay == nil {
		cfg.ManagerAddr = e.cl.mgr.Addr()
		return client.New(cfg)
	}
	r, err := federation.NewRouter(federation.RouterConfig{
		Members: []string{e.cl.mgr.Addr()},
		Shaper:  e.lay.mgrConns.shaper(),
	})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	cfg.Endpoint = &timedEndpoint{ManagerEndpoint: r, rec: e.lay.rpc, tr: e.lay.tr}
	cfg.Shaper = e.lay.dataConns.shaper()
	return client.New(cfg)
}

// measured marks the end of the measured work: the manager counters are
// read before any clean-up the workload does afterwards.
func (e *env) measured() error {
	st, err := e.admin.ManagerStats()
	if err != nil {
		return fmt.Errorf("manager stats: %w", err)
	}
	e.after = st
	return nil
}

// tally accumulates one run's operations. All durations are measured by
// the benchmark around the client's public calls.
type tally struct {
	mu sync.Mutex

	attempted, failed, wrong int64
	errs                     []string

	ckpts                    int64
	writeBytes               int64
	openClose, openStored    time.Duration
	ckptLat                  []time.Duration
	uploaded, deduped        int64
	writeCall, closeT, waitT time.Duration
	restoreBytes             int64
	restoreT, openT, readT   time.Duration
	restoreLat               []time.Duration
	fetched, batched         int64
	wall                     time.Duration // measured loop time, input generation excluded
	gateFailures             int64
	passUploads              []int64 // incremental: uploaded bytes per completed pass
	mapHits, mapMisses       int64
}

func (t *tally) fail(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

// correct is false when the program returned wrong bytes or a gate failed.
func (t *tally) correct() bool { return t.wrong == 0 && t.gateFailures == 0 }

// checkpoint writes img as name in block-sized Write calls, then Close
// and Wait, and records the timings. It reports whether the checkpoint
// committed.
func (e *env) checkpoint(c *client.Client, name string, img []byte, block int) bool {
	tr := e.tr()
	e.t.mu.Lock()
	e.t.attempted++
	e.t.mu.Unlock()
	root := tr.begin(name, "ckpt")
	defer tr.end(name, root)
	start := time.Now()
	w, err := c.Create(name)
	if err != nil {
		e.t.fail("create "+name, err)
		return false
	}
	var writeCall time.Duration
	for off := 0; off < len(img); off += block {
		sp := tr.begin(name, "client.write")
		t0 := time.Now()
		_, err = w.Write(img[off:min(off+block, len(img))])
		writeCall += time.Since(t0)
		tr.end(name, sp)
		if err != nil {
			w.Close()
			e.t.fail("write "+name, err)
			return false
		}
	}
	sp := tr.begin(name, "client.close")
	t0 := time.Now()
	err = w.Close()
	closed := time.Now()
	tr.end(name, sp)
	if err != nil {
		e.t.fail("close "+name, err)
		return false
	}
	sp = tr.begin(name, "client.wait")
	err = w.Wait()
	stored := time.Now()
	tr.end(name, sp)
	if err != nil {
		e.t.fail("wait "+name, err)
		return false
	}
	m := w.Metrics()
	t := e.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ckpts++
	t.writeBytes += int64(len(img))
	t.openClose += closed.Sub(start)
	t.openStored += stored.Sub(start)
	t.ckptLat = append(t.ckptLat, stored.Sub(start))
	t.uploaded += m.Uploaded
	t.deduped += m.Deduped
	t.writeCall += writeCall
	t.closeT += closed.Sub(t0)
	t.waitT += stored.Sub(closed)
	return true
}

// restore opens name, reads it whole and compares it with want. It
// reports whether the bytes came back intact.
func (e *env) restore(c *client.Client, name string, want []byte) bool {
	tr := e.tr()
	e.t.mu.Lock()
	e.t.attempted++
	e.t.mu.Unlock()
	root := tr.begin(name, "restore")
	defer tr.end(name, root)
	start := time.Now()
	sp := tr.begin(name, "client.open")
	r, err := c.Open(name)
	opened := time.Now()
	tr.end(name, sp)
	if err != nil {
		e.t.fail("open "+name, err)
		return false
	}
	sp = tr.begin(name, "client.read")
	got, err := r.ReadAll()
	done := time.Now()
	tr.end(name, sp)
	fetched, batched := r.BytesFetched(), r.BytesBatched()
	r.Close()
	if err != nil {
		e.t.fail("read "+name, err)
		return false
	}
	if !bytes.Equal(got, want) {
		e.t.mu.Lock()
		e.t.wrong++
		e.t.mu.Unlock()
		e.t.fail("restore "+name, fmt.Errorf("restored %d bytes differ from the %d written", len(got), len(want)))
		return false
	}
	t := e.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.restoreBytes += int64(len(want))
	t.restoreT += done.Sub(start)
	t.openT += opened.Sub(start)
	t.readT += done.Sub(opened)
	t.restoreLat = append(t.restoreLat, done.Sub(start))
	t.fetched += fetched
	t.batched += batched
	return true
}

// noteMapCache adds a client's chunk-map cache counters to the tally.
func (e *env) noteMapCache(c *client.Client) {
	s := c.MapCacheStats()
	e.t.mu.Lock()
	e.t.mapHits += s.Hits
	e.t.mapMisses += s.Misses
	e.t.mu.Unlock()
}

// subSeed derives an independent generator seed for part i of a run.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

// ---- stream ----

const (
	streamImageBytes = 128 << 20
	streamChunk      = 1 << 20
)

// streamImage is version v of the stream run: fresh application-level
// bytes with no similarity to any other version.
func streamImage(seed int64, v int) []byte {
	return workload.AppLevel(subSeed(seed, v), 1, streamImageBytes).Images[0]
}

// runStream writes fresh 128 MB images one after another while a second
// goroutine restores and byte-compares each committed version. The
// versions are deleted once the measured work is done.
func runStream(e *env) error {
	c, err := e.newClient(client.Config{ChunkSize: streamChunk})
	if err != nil {
		return err
	}
	defer c.Close()
	type job struct {
		name string
		img  []byte
	}
	// Unbuffered: the writer generates the next image while the restorer
	// works on the previous one, and never runs further ahead.
	jobs := make(chan job)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := range jobs {
			e.restore(c, j.name, j.img)
		}
	}()
	var names []string
	start := time.Now()
	var untimed time.Duration
	for v := 0; time.Now().Before(e.deadline); v++ {
		g := time.Now()
		img := streamImage(e.seed, v)
		untimed += time.Since(g)
		name := fmt.Sprintf("stream.n0.t%d", v)
		if e.checkpoint(c, name, img, streamChunk) {
			names = append(names, name)
			jobs <- job{name, img}
		}
	}
	close(jobs)
	wg.Wait()
	e.t.wall = time.Since(start) - untimed
	e.noteMapCache(c)
	if err := e.measured(); err != nil {
		return err
	}
	for _, name := range names {
		e.t.mu.Lock()
		e.t.attempted++
		e.t.mu.Unlock()
		if err := c.Delete(name, 0); err != nil {
			e.t.fail("delete "+name, err)
		}
	}
	return nil
}

// ---- incremental ----

const (
	incImageBytes = 32 << 20
	incPassImages = 4
)

// incCbCH is the content-defined chunking of the incremental workload:
// the live write-path parameters table3live uses at its default scale
// (256 KiB span bound).
var incCbCH = chunker.StreamParams{Window: 48, Bits: 16, Min: 32 << 10, Max: 256 << 10}

// incTrace is pass p of the incremental run: a BLAST/BLCR 5-minute trace
// of incPassImages images, seeded independently of every other pass.
func incTrace(seed int64, p int) *workload.Trace {
	return workload.BLCR5Min(subSeed(seed, p), incPassImages, incImageBytes)
}

// runIncremental commits BLCR traces with incremental checkpointing and
// CbCH chunking, one version after another, restoring each version after
// it commits. Each pass is a fresh trace under its own dataset; after a
// pass the uploaded bytes must equal what an offline content-addressed
// store would hold for the same images (the dedup gate).
func runIncremental(e *env) error {
	c, err := e.newClient(client.Config{
		Chunking:    client.ChunkCbCH,
		CbCH:        incCbCH,
		Incremental: true,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	start := time.Now()
	var untimed time.Duration
	for p := 0; time.Now().Before(e.deadline); p++ {
		g := time.Now()
		tr := incTrace(e.seed, p)
		untimed += time.Since(g)
		var uploaded int64
		complete := true
		for i, img := range tr.Images {
			name := fmt.Sprintf("inc%d.n0.t%d", p, i)
			e.t.mu.Lock()
			before := e.t.uploaded
			e.t.mu.Unlock()
			if !e.checkpoint(c, name, img, streamChunk) {
				complete = false
				continue
			}
			e.t.mu.Lock()
			uploaded += e.t.uploaded - before
			e.t.mu.Unlock()
			e.restore(c, name, img)
		}
		if !complete {
			continue
		}
		g = time.Now()
		unique, _ := chunker.DedupBytes(incCbCH, tr.Images)
		untimed += time.Since(g)
		e.t.mu.Lock()
		e.t.passUploads = append(e.t.passUploads, uploaded)
		if uploaded != unique {
			e.t.gateFailures++
			e.t.errs = append(e.t.errs, fmt.Sprintf("dedup gate: pass %d uploaded %d bytes, offline CbCH store holds %d", p, uploaded, unique))
		}
		e.t.mu.Unlock()
	}
	e.t.wall = time.Since(start) - untimed
	e.noteMapCache(c)
	return e.measured()
}

// ---- many_small ----

const (
	smallImageBytes = 256 << 10
	smallChunk      = 16 << 10
	restoreEvery    = 4
)

// smallImage is writer w's first image.
func smallImage(seed int64, w int) []byte {
	img := make([]byte, smallImageBytes)
	rand.New(rand.NewSource(subSeed(seed, 1000+w))).Read(img)
	return img
}

// smallWriters is the closed loop's writer count: one per CPU, at most 2.
func smallWriters() int { return min(2, runtime.NumCPU()) }

// runManySmall runs a closed loop of writers with no think time. Each
// commits a 256 KB image at 16 KB fixed chunks with incremental
// checkpointing, changing one byte per timestep, and every restoreEvery
// timesteps first restores its previous checkpoint.
func runManySmall(e *env) error {
	n := smallWriters()
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = e.smallWriter(w)
		}(w)
	}
	wg.Wait()
	e.t.wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return e.measured()
}

func (e *env) smallWriter(w int) error {
	c, err := e.newClient(client.Config{ChunkSize: smallChunk, Incremental: true})
	if err != nil {
		return err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(subSeed(e.seed, 2000+w)))
	img := smallImage(e.seed, w)
	prev := make([]byte, len(img))
	prevOK := false
	for t := 0; time.Now().Before(e.deadline); t++ {
		if t > 0 && t%restoreEvery == 0 && prevOK {
			e.restore(c, fmt.Sprintf("small.n%d.t%d", w, t-1), prev)
		}
		if t > 0 {
			img[rng.Intn(len(img))] ^= byte(1 + rng.Intn(255))
		}
		prevOK = e.checkpoint(c, fmt.Sprintf("small.n%d.t%d", w, t), img, len(img))
		copy(prev, img)
	}
	e.noteMapCache(c)
	return nil
}
