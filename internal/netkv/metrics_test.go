package netkv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/shard"
)

// scrape runs one /metrics request through the debug mux and parses the
// exposition into name{labels} -> value.
func scrape(t *testing.T, reg *metrics.Registry, slow *metrics.SlowLog, health func() error) map[string]float64 {
	t.Helper()
	mux := metrics.DebugMux(reg, slow, health)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricsReconcile runs a scripted workload against an armed sharded
// server and asserts the scrape agrees exactly with the client-side op
// counts — the acceptance check that no serving path loses or
// double-counts an operation.
func TestMetricsReconcile(t *testing.T) {
	reg := metrics.NewRegistry()
	slow := metrics.NewSlowLog(64, time.Nanosecond) // trace everything
	part := shard.NewExplicit([][]byte{
		[]byte("k-01000"), []byte("k-02000"), []byte("k-03000"),
	})
	s, err := ServeOpts("127.0.0.1:0", shard.New(shard.Options{Partitioner: part}),
		ServerOptions{Metrics: NewServerMetrics(reg, slow), MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("k-%05d", i)) }
	// Batch 1 (sharded dispatch: point ops spanning all four shards).
	const sets = 400
	for i := 0; i < sets; i++ {
		c.QueueSet(key(i*10), key(i*10))
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Batch 2: mixed hits and misses through the batched-get path.
	const hits, misses = 300, 100
	for i := 0; i < hits; i++ {
		c.QueueGet(key(i * 10))
	}
	for i := 0; i < misses; i++ {
		c.QueueGet([]byte(fmt.Sprintf("missing-%05d", i)))
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Batch 3: deletes (sharded), half hitting.
	const delOK, delMiss = 40, 40
	for i := 0; i < delOK; i++ {
		c.QueueDel(key(i * 10))
	}
	for i := 0; i < delMiss; i++ {
		c.QueueDel([]byte(fmt.Sprintf("missing-%05d", i)))
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Batch 4: non-point operations — a scan, a stat, a flush (volatile store:
	// flush answers not_found), and one single-op get.
	c.QueueScan(nil, 10)
	c.QueueStat()
	c.QueueFlush()
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.QueueGet(key(5000))
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	m := scrape(t, reg, slow, nil)
	totalOps := sets + hits + misses + delOK + delMiss + 3 + 1
	want := map[string]float64{
		`netkv_ops_total{op="set",status="ok"}`:          sets,
		`netkv_ops_total{op="get",status="ok"}`:          hits,
		`netkv_ops_total{op="get",status="not_found"}`:   misses + 1,
		`netkv_ops_total{op="del",status="ok"}`:          delOK,
		`netkv_ops_total{op="del",status="not_found"}`:   delMiss,
		`netkv_ops_total{op="scan",status="ok"}`:         1,
		`netkv_ops_total{op="stat",status="ok"}`:         1,
		`netkv_ops_total{op="flush",status="not_found"}`: 1,
		`netkv_ops_total{op="set",status="err"}`:         0,
		`netkv_batches_total`:                            5,
		`netkv_batch_ops_total`:                          float64(totalOps),
		`netkv_connections`:                              1,
		`netkv_inflight_batches`:                         0,
		`netkv_slow_ops_total`:                           float64(totalOps),
	}
	for series, v := range want {
		if got, ok := m[series]; !ok {
			t.Errorf("scrape missing %s", series)
		} else if got != v {
			t.Errorf("%s = %v, want %v", series, got, v)
		}
	}
	// Latency histograms observed exactly the timed ops.
	if got := m[`netkv_op_seconds_count{op="get"}`]; got != hits+misses+1 {
		t.Errorf("get histogram count = %v, want %d", got, hits+misses+1)
	}
	if got := m[`netkv_batch_seconds_count`]; got != 5 {
		t.Errorf("batch histogram count = %v, want 5", got)
	}
	if slow.Total() != uint64(totalOps) {
		t.Errorf("slow log traced %d, want %d", slow.Total(), totalOps)
	}
}

func TestHealthzAndSlowOps(t *testing.T) {
	reg := metrics.NewRegistry()
	slow := metrics.NewSlowLog(16, time.Nanosecond)
	slow.Record("get", []byte("k"), "ok", time.Millisecond)

	healthy := metrics.DebugMux(reg, slow, func() error { return nil })
	rec := httptest.NewRecorder()
	healthy.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthy /healthz = %d %q", rec.Code, rec.Body.String())
	}

	sick := metrics.DebugMux(reg, slow, func() error { return errors.New("2 shards degraded") })
	rec = httptest.NewRecorder()
	sick.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("sick /healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	healthy.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowops", nil))
	var doc struct {
		ThresholdUS int64            `json:"threshold_us"`
		Total       uint64           `json:"total"`
		Ops         []metrics.SlowOp `json:"ops"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("slowops JSON: %v (%s)", err, rec.Body.String())
	}
	if doc.Total != 1 || len(doc.Ops) != 1 || doc.Ops[0].Key != "k" {
		t.Fatalf("slowops doc = %+v", doc)
	}
}

// TestStatRuntimeFields checks the OpStat runtime satellite: uptime,
// toolchain and heap gauges ride along on every stat response.
func TestStatRuntimeFields(t *testing.T) {
	_, c := startServer(t, "wormhole")
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.GoVersion, "go") {
		t.Errorf("go_version = %q", st.GoVersion)
	}
	if st.Goroutines <= 0 || st.HeapAllocBytes == 0 || st.HeapSysBytes == 0 {
		t.Errorf("runtime gauges missing: %+v", st)
	}
	if st.UptimeS < 0 {
		t.Errorf("uptime_s = %d", st.UptimeS)
	}
}
