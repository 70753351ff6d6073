package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	rounds = 4 // measured rounds per run; every end-to-end value is their median
	setups = 3 // set-ups per run; setup_s and mem_bytes_per_key are their medians
	// setupBudget stops the repeats early on a host so slow that three
	// set-ups would push a run past the driver's time budget.
	setupBudget = 4.0 // seconds
	maxNotes    = 8   // failure descriptions kept per run
)

var epoch = time.Now()

// now is nanoseconds on the monotonic clock; never 0, so 0 can mean
// "this call is not timed".
func now() int64 { return int64(time.Since(epoch)) + 1 }

// roundStats is one generator's tally for one round. Ops are key-ops: a
// GetBatch of 64 is 64, a scan is one.
type roundStats struct {
	attempted, completed int64
	lat                  []uint32 // timed calls, ns
}

func (rs *roundStats) sample(t0, t1 int64) {
	if len(rs.lat) < cap(rs.lat) {
		rs.lat = append(rs.lat, uint32(min(t1-t0, math.MaxUint32)))
	}
}

// worker is one closed-loop generator: step issues a few calls (or one
// round trip), waits for the answers and checks them.
type worker interface {
	step(rs *roundStats)
	close()
}

// instance is a system under test in serving state.
type instance interface {
	// worker returns generator g of gens; each owns its connection or
	// read handle.
	worker(g, gens int) (worker, error)
	// finish checks the end state once the generators have stopped
	// (counts, acked writes after a reopen, follower convergence) and
	// reports how many checks it made and how many failed.
	finish(ws []worker) (attempted, failed int64)
	close() error
}

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string // directory for result files, traces and store directories
}

// run is the state of one workload execution.
type run struct {
	cfg    config
	sp     *spec
	data   *dataset
	gens   int     // generator goroutines or connections: one per CPU
	shards int     // shards of a sharded store: one per CPU
	dir    string  // scratch for store directories, removed at exit
	tr     *tracer // non-nil only while a traced instance is built and driven

	mu    sync.Mutex
	notes []string
}

// failf records what went wrong with the arguments that replay it; the
// count of failures is kept by the caller's roundStats.
func (r *run) failf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...)+
			fmt.Sprintf(" (replay: -workload %s -seed %d)", r.sp.name, r.cfg.seed))
	}
}

// begin counts one direct call and returns its start time if it is to be
// timed: every call of a traced pass, every 64th otherwise, which keeps
// clock reads under 2% of the calls.
func (r *run) begin(calls *uint64) int64 {
	*calls++
	if r.tr != nil || *calls&63 == 0 {
		return now()
	}
	return 0
}

// end closes a call begun with a non-zero start: a latency sample, and in
// a traced pass the call's spans.
func (r *run) end(rs *roundStats, t0 int64, name spanName, ops int) {
	if t0 == 0 {
		return
	}
	t1 := now()
	rs.sample(t0, t1)
	if r.tr != nil {
		r.tr.direct(name, t0, t1, ops, 0, 0)
	}
}

func newRun(cfg config, sp *spec) (*run, error) {
	r := &run{cfg: cfg, sp: sp, gens: runtime.NumCPU(), shards: runtime.NumCPU()}
	if cfg.quick {
		q := *sp
		q.keys, q.reserve, q.traceOps = 5000, sp.reserve/100, 2000
		r.sp = &q
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "store-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	// A relative path would change meaning inside store code that joins
	// and reopens it.
	if r.dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	streamLen := 1 << 20
	if cfg.quick {
		streamLen = 1 << 14
	}
	r.data, err = genDataset(r.sp, cfg.seed, r.gens, streamLen)
	return r, err
}

func (r *run) cleanup() { os.RemoveAll(r.dir) }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// roundResult is one measured round across all generators.
type roundResult struct {
	wall, cpu            float64 // seconds
	attempted, completed int64
	lat                  []uint32 // sorted
}

// drive runs gens closed-loop generators against inst: a warm-up, then the
// measured rounds back to back. Generators never stop between rounds; each
// step is booked to the round that was current when it started.
func (r *run) drive(inst instance, warm, round time.Duration) ([]roundResult, []worker, error) {
	ws := make([]worker, r.gens)
	for g := range ws {
		w, err := inst.worker(g, r.gens)
		if err != nil {
			for _, w := range ws[:g] {
				w.close()
			}
			return nil, nil, err
		}
		ws[g] = w
	}
	// Round 0 is the warm-up. Sample buffers are allocated up front and
	// hold no pointers, so they cost the collector nothing during the run.
	stats := make([][]roundStats, r.gens)
	for g := range stats {
		stats[g] = make([]roundStats, rounds+1)
		for i := 1; i <= rounds; i++ {
			stats[g][i].lat = make([]uint32, 0, 1<<18)
		}
	}
	var phase atomic.Int32
	var wg sync.WaitGroup
	for g, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := phase.Load(); p >= 0; p = phase.Load() {
				w.step(&stats[g][p])
			}
		}()
	}
	time.Sleep(warm)
	out := make([]roundResult, rounds+1) // out[0] is the warm-up: counted, not timed
	t, c := now(), cpuSeconds()
	for i := 1; i <= rounds; i++ {
		phase.Store(int32(i))
		time.Sleep(round)
		t1, c1 := now(), cpuSeconds()
		out[i].wall, out[i].cpu = float64(t1-t)/1e9, c1-c
		t, c = t1, c1
	}
	phase.Store(-1)
	wg.Wait()
	for i := range out {
		for g := range stats {
			rs := &stats[g][i]
			out[i].attempted += rs.attempted
			out[i].completed += rs.completed
			out[i].lat = append(out[i].lat, rs.lat...)
		}
		slices.Sort(out[i].lat)
	}
	return out, ws, nil
}

// quantile interpolates the q-th quantile of sorted samples.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	return float64(sorted[lo]) + (pos-float64(lo))*float64(sorted[lo+1]-sorted[lo])
}

// tailQuantile is 0.99, or with fewer than 1000 samples the highest
// quantile that still leaves ten samples beyond it.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summarize turns per-round (or per-set-up) values into a reported metric:
// the median, with the extremes and their distance as a share of it.
func summarize(def metricDef, vals []float64) metricVal {
	m := metricVal{Value: median(vals), Unit: def.Unit, Better: def.Better, Bound: def.Bound, Rounds: vals}
	if len(vals) > 0 {
		m.Min, m.Max = slices.Min(vals), slices.Max(vals)
		if m.Value != 0 {
			m.Spread = (m.Max - m.Min) / m.Value
		}
	}
	return m
}

// setUp brings the store to serving state `setups` times (fewer once
// setupBudget is spent), keeping the last instance, and reports each
// attempt's time and heap growth.
func (r *run) setUp() (inst instance, secs, heap []float64, err error) {
	n := setups
	if r.cfg.quick {
		n = 1
	}
	var spent float64
	for i := 0; i < n && (i == 0 || spent < setupBudget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			inst = nil
		}
		before := heapAfterGC()
		t0 := now()
		if inst, err = r.sp.build(r); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, float64(now()-t0)/1e9)
		spent += secs[i]
		heap = append(heap, heapAfterGC()-before)
	}
	return inst, secs, heap, nil
}

// endToEndRun is the untraced run: set-up, warm-up, measured rounds, end
// state checks.
func (r *run) endToEndRun() (*workloadResult, error) {
	res := r.newResult()
	inst, secs, heap, err := r.setUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	round := time.Duration(r.cfg.seconds / rounds * float64(time.Second))
	rr, ws, err := r.drive(inst, round*rounds/12, round)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	fa, ff := inst.finish(ws)
	for _, w := range ws {
		w.close()
	}
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	vals := map[string][]float64{"setup_s": secs}
	for _, h := range heap {
		vals["mem_bytes_per_key"] = append(vals["mem_bytes_per_key"], h/float64(r.sp.keys))
	}
	completed := rr[0].completed
	res.Attempted = rr[0].attempted
	for _, x := range rr[1:] {
		res.Attempted += x.attempted
		completed += x.completed
		if x.completed == 0 {
			continue // a round shorter than one round trip (smoke sizes on a slow disk) has no rate
		}
		vals["ops_per_s"] = append(vals["ops_per_s"], float64(x.completed)/x.wall)
		vals["cpu_us_per_op"] = append(vals["cpu_us_per_op"], x.cpu*1e6/float64(x.completed))
		vals["p50_us"] = append(vals["p50_us"], quantile(x.lat, 0.5)/1e3)
		vals["p99_us"] = append(vals["p99_us"], quantile(x.lat, tailQuantile(len(x.lat)))/1e3)
		res.LatencySamples = append(res.LatencySamples, len(x.lat))
		res.TailQuantile = append(res.TailQuantile, tailQuantile(len(x.lat)))
	}
	if len(vals["ops_per_s"]) == 0 {
		return nil, fmt.Errorf("no round completed an operation (%d attempted): %v", res.Attempted, r.notes)
	}
	res.Attempted += fa
	res.Failed = res.Attempted - completed - (fa - ff)
	res.EndToEnd = map[string]metricVal{}
	for _, def := range endToEnd {
		res.EndToEnd[def.Name] = summarize(def, vals[def.Name])
	}
	res.Diag = map[string]float64{
		"runtime.allocs_per_op": float64(ms1.Mallocs-ms0.Mallocs) / float64(completed),
		"runtime.gc_pause_ms":   float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"runtime.gc_cycles":     float64(ms1.NumGC - ms0.NumGC),
	}
	r.seal(res)
	return res, nil
}

func (r *run) newResult() *workloadResult {
	return &workloadResult{
		Name: r.sp.name, Why: r.sp.why, Seed: r.cfg.seed, Keys: r.sp.keys, Generators: r.gens,
		KeysetChecksum: keysetChecksum(r.data.keys), OpStreamChecksum: streamChecksum(r.data.streams),
	}
}

func (r *run) seal(res *workloadResult) {
	res.Failures = r.notes
	res.Correct = res.Failed == 0
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
}
