// Command perfbench is the repository benchmark. It runs one workload per
// invocation from a single process, checks every output the program
// returns, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics (endToEnd), with
// --trace 1 the per-layer metrics (perLayer) taken from a traced run that
// also writes its span tree to the output directory.
//
// Run it through run.sh, which builds it from the repository source:
//
//	bash perfbench/run.sh --workload web-ranks --seed 1 --seconds 30 --trace 0
//
// See NOTES.md for the workloads and what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, from runs with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"partition_s", "s"},
	{"cut", "edges"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run. Every workload
// reports all of them; a layer the workload does not reach reads 0.
var perLayer = []metricSpec{
	{"core.coarsen_s", "s"},
	{"sclp.cluster_s", "s"},
	{"contract.quotient_s", "s"},
	{"core.levels", "count"},
	{"core.init_s", "s"},
	{"evo.input_n", "nodes"},
	{"core.coarsest_n", "nodes"},
	{"core.stalled", "flag"},
	{"core.refine_s", "s"},
	{"sclp.refine_s", "s"},
	{"core.rebalance_s", "s"},
	{"sclp.rebalance_moves", "count"},
	{"mpi.msgs", "count"},
	{"mpi.bytes", "bytes"},
	{"mpi.alltoallv_s", "s"},
	{"mpi.neighbor_alltoallv_s", "s"},
	{"dgraph.sync_ghosts_s", "s"},
	{"dgraph.push_ghosts_s", "s"},
	{"mpi.rank_skew_s", "s"},
	{"sclp.propose_s", "s"},
	{"sclp.commit_s", "s"},
	{"sclp.busy_s", "s"},
	{"sclp.utilization", "ratio"},
	{"sclp.supersteps", "count"},
	{"mem.alloc_mb", "MB"},
	{"mem.gc_cycles", "count"},
	{"lookup_p50_us", "us"},
	{"lookup_p99_us", "us"},
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"swap_lag_ms", "ms"},
	{"live.apply_batch_us", "us"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"live.materialize_s", "s"},
	{"live.swap_s", "s"},
	{"live.triggered", "count"},
	{"live.swaps", "count"},
	{"live.swap_ratio", "ratio"},
	{"loadgen.late_ms_max", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// setupRuns is how many times a live-stream run sets the service up;
// setup_s is the median. A partition run's set-ups are the generations
// of its graphs.
const setupRuns = 5

// runConfig is what a workload runner receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// out is the directory for span files and the checksum store.
	out string
	// buildID keys the checksum store so that a different build of the
	// program never compares against another build's partitions.
	buildID string
	log     io.Writer
}

// outcome is what a workload run produced: metric values by name, the
// sample count behind each (printed, not emitted), and the tally of
// checked operations.
type outcome struct {
	values  map[string]float64
	samples map[string]int
	tally   tally
	spans   *recorder
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, samples int) {
	o.values[name] = v
	o.samples[name] = samples
}

// tally counts checked operations and keeps the first few failure reasons.
type tally struct {
	attempted, failed int64
	reasons           []string
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, err.Error())
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics of specs from o. A missing metric is a
// benchmark bug, reported as an error instead of a partial result.
func buildResult(o *outcome, specs []metricSpec) (result, error) {
	r := result{
		Correct:   o.tally.failed == 0 && o.tally.attempted > 0,
		Attempted: o.tally.attempted,
		Failed:    o.tally.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok {
			return result{}, fmt.Errorf("workload did not produce metric %s", s.name)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return r, nil
}

// printReport writes the human-readable lines: every metric the run
// produced (both lists), its unit and sample count, and the failure share.
func printReport(w io.Writer, o *outcome) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if v, ok := o.values[s.name]; ok {
				fmt.Fprintf(w, "  %-26s %14.6g %-6s (%d samples)\n", s.name, v, s.unit, o.samples[s.name])
			}
		}
	}
	frac := 0.0
	if o.tally.attempted > 0 {
		frac = float64(o.tally.failed) / float64(o.tally.attempted)
	}
	fmt.Fprintf(w, "  %-26s %14.6g %-6s (%d failed of %d attempted)\n",
		"failed_frac", frac, "ratio", o.tally.failed, o.tally.attempted)
	for _, r := range o.tally.reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", r)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"web-ranks":   func(c runConfig) (*outcome, error) { return runPartition(c, webRanks) },
	"web-workers": func(c runConfig) (*outcome, error) { return runPartition(c, webWorkers) },
	"rgg-mesh":    func(c runConfig) (*outcome, error) { return runPartition(c, rggMesh) },
	"live-stream": func(c runConfig) (*outcome, error) { return runLive(c, liveStream) },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", "", "directory for span files and the checksum store (required)")
	flag.Parse()
	runner, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", *workload, names)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *out == "" {
		return fmt.Errorf("--out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	buildID, err := executableHash()
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		out:     *out,
		buildID: buildID,
		log:     os.Stdout,
	}
	start := time.Now()
	o, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	fmt.Printf("%s seed=%d trace=%d: finished in %.1f s\n", *workload, *seed, *trace, time.Since(start).Seconds())
	printReport(os.Stdout, o)
	if cfg.trace {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := o.spans.writeFile(path); err != nil {
			return err
		}
		fmt.Printf("span tree written to %s\n", path)
		o.spans.printSummary(os.Stdout)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res, err := buildResult(o, specs)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// executableHash identifies this build of the benchmark and the program
// linked into it.
func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
