// Command benchmark is this repository's one measurement spine: six
// closed-loop workloads over the index, the netkv server, the sharded
// durable store and replication, six end-to-end metrics on each, and a
// traced pass that says which layer the time went to. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metricVal is one reported metric: the median of its per-round values.
type metricVal struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Better string    `json:"better,omitempty"`
	Bound  float64   `json:"bound,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Spread float64   `json:"spread,omitempty"` // (max-min)/median over the rounds
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadResult is everything one workload reported. A run with -trace 0
// fills EndToEnd, a run with -trace 1 fills PerLayer; -compare and the
// all-workloads mode merge the two.
type workloadResult struct {
	Name             string               `json:"name"`
	Why              string               `json:"why"`
	Seed             int64                `json:"seed"`
	Keys             int                  `json:"keys"`
	Generators       int                  `json:"generators"`
	KeysetChecksum   string               `json:"keyset_checksum"`
	OpStreamChecksum string               `json:"opstream_checksum"`
	Attempted        int64                `json:"attempted"`
	Failed           int64                `json:"failed"`
	FailedFrac       float64              `json:"failed_frac"`
	Correct          bool                 `json:"correct"`
	Failures         []string             `json:"failures,omitempty"`
	EndToEnd         map[string]metricVal `json:"end_to_end,omitempty"`
	LatencySamples   []int                `json:"latency_samples,omitempty"` // per round
	TailQuantile     []float64            `json:"tail_quantile,omitempty"`   // what p99_us is, per round
	PerLayer         map[string]metricVal `json:"per_layer,omitempty"`
	Diag             map[string]float64   `json:"diagnostics,omitempty"`
	TraceFile        string               `json:"trace_file,omitempty"`
}

// document is the result file: one schema for every run, so any two can
// be compared. Claim is always null: the benchmark measures, it does not
// claim.
type document struct {
	Schema    string            `json:"schema"`
	Claim     *string           `json:"claim"`
	GoVersion string            `json:"go_version"`
	CPUs      int               `json:"cpus"`
	Workloads []*workloadResult `json:"workloads"`
}

const schema = "wormhole-benchmark/1"

func newDocument(ws ...*workloadResult) *document {
	return &document{Schema: schema, GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), Workloads: ws}
}

func (d *document) write(path string) error {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
	}
	return &d, nil
}

// runWorkload executes one workload in this process.
func runWorkload(cfg config) (*workloadResult, error) {
	sp := lookupSpec(cfg.workload)
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	r, err := newRun(cfg, sp)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	if cfg.trace {
		return r.tracedRun()
	}
	return r.endToEndRun()
}

func workloadNames() []string {
	var n []string
	for _, sp := range specs {
		n = append(n, sp.name)
	}
	return n
}

// table prints a workload's metrics by name and unit.
func table(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "%s  seed=%d keys=%d generators=%d keyset=%s opstream=%s\n", res.Name, res.Seed, res.Keys,
		res.Generators, res.KeysetChecksum, res.OpStreamChecksum)
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_frac=%g correct=%v\n", res.Attempted, res.Failed, res.FailedFrac, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, def := range endToEnd {
		if m, ok := res.EndToEnd[def.Name]; ok {
			fmt.Fprintf(w, "  %-26s %14.4f %-6s min %.4f max %.4f spread %.3f bound %.2f\n", def.Name, m.Value, m.Unit, m.Min, m.Max, m.Spread, m.Bound)
		}
	}
	if len(res.LatencySamples) > 0 {
		fmt.Fprintf(w, "  latency samples per round %v, p99_us is quantile %.4g\n", res.LatencySamples, res.TailQuantile)
	}
	for _, def := range perLayer {
		if m, ok := res.PerLayer[def.Name]; ok {
			fmt.Fprintf(w, "  %-26s %14.4f %s\n", def.Name, m.Value, m.Unit)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(res.Diag)) {
		fmt.Fprintf(w, "  %-26s %14.4f (diagnostic)\n", k, res.Diag[k])
	}
}

// lastLine is the one-object summary the driver reads.
func lastLine(res *workloadResult, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	ms := map[string]mv{}
	for k, m := range src {
		ms[k] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms}) // plain numbers and strings cannot fail to marshal
	return string(b)
}

// runAll runs every workload in a fresh child process each, so heap and GC
// state never leak from one to the next, and with -trace 1 repeats each as
// a traced run.
func runAll(cfg config, args []string) (*document, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	doc := newDocument()
	for _, sp := range specs {
		var merged *workloadResult
		for _, tr := range []string{"0", "1"} {
			if tr == "1" && !cfg.trace {
				continue
			}
			out := filepath.Join(cfg.out, fmt.Sprintf("result-%s-trace%s.json", sp.name, tr))
			cmd := exec.Command(exe, append(args, "-workload", sp.name, "-trace", tr, "-result", out)...)
			cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
			runErr := cmd.Run()
			d, err := readDocument(out)
			if err != nil {
				return nil, fmt.Errorf("%s: %v (child: %v)", sp.name, err, runErr)
			}
			if merged == nil {
				merged = d.Workloads[0]
				continue
			}
			t := d.Workloads[0]
			merged.PerLayer, merged.TraceFile = t.PerLayer, t.TraceFile
			merged.Attempted += t.Attempted
			merged.Failed += t.Failed
			merged.Failures = append(merged.Failures, t.Failures...)
			merged.Correct = merged.Correct && t.Correct
			merged.FailedFrac = float64(merged.Failed) / float64(merged.Attempted)
		}
		doc.Workloads = append(doc.Workloads, merged)
	}
	return doc, nil
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all, each in a child process")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of the keyset and the op stream")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds per workload, split into 4 rounds")
	trace := fs.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke sizes: 5k keys, 2k traced ops")
	fs.StringVar(&cfg.out, "out", ".work", "directory for result files, traces and store directories")
	result := fs.String("result", "", "result file (default <out>/result.json)")
	compare := fs.Bool("compare", false, "compare result files given as parent change [parent change ...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if *compare {
		if err := compareFiles(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments", fs.Args())
		return 2
	}
	if *result == "" {
		*result = filepath.Join(cfg.out, "result.json")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	var doc *document
	if cfg.workload == "" {
		var pass []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" || f.Name == "seconds" || f.Name == "quick" || f.Name == "out" {
				pass = append(pass, "-"+f.Name+"="+f.Value.String())
			}
		})
		d, err := runAll(cfg, pass)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		doc = d
	} else {
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		doc = newDocument(res)
	}
	if err := doc.write(*result); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, res := range doc.Workloads {
		table(stdout, res)
		if !res.Correct {
			code = 1
		}
	}
	fmt.Fprintf(stdout, "result file: %s  claim: null\n", *result)
	if cfg.workload != "" {
		fmt.Fprintln(stdout, lastLine(doc.Workloads[0], cfg.trace))
	}
	return code
}
