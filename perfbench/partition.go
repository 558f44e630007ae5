package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/gen"
)

// partitionWorkload is a closed loop of one caller running one partition
// call at a time on graphs generated from the seed.
type partitionWorkload struct {
	name    string
	family  gen.Family
	n       int32
	k       int32
	class   parhip.GraphClass
	pes     int
	workers int // 0 = library default (NumCPU / pes)
	graphs  int // graphs generated and partitioned per run
}

// Every workload pins its worker count, so that it runs on at most 2
// compute lanes whatever the host's CPU count. web-ranks and rgg-mesh run
// 1 worker per rank, which is what the library default (NumCPU / pes)
// resolves to on 2 CPUs. web-workers is not in BENCHMARK.json: its
// partition changes from call to call (see NOTES.md, "Known defects").
//
// A run partitions 4 graphs, not one: the cut and the time of a call
// depend on the generated graph, and averaging over 4 of them keeps the
// spread between seeds of a run's cut and partition_s well within their
// bounds.
var (
	webRanks   = partitionWorkload{"web-ranks", gen.FamilyWeb, 262144, 16, parhip.Social, 2, 1, 4}
	webWorkers = partitionWorkload{"web-workers", gen.FamilyWeb, 262144, 16, parhip.Social, 1, 2, 4}
	rggMesh    = partitionWorkload{"rgg-mesh", gen.FamilyRGG, 131072, 16, parhip.Mesh, 2, 1, 4}
)

// liveLayer are the per-layer metrics only the live service produces.
var liveLayer = []string{
	"lookup_p50_us", "lookup_p99_us", "update_p50_ms", "update_p90_ms", "swap_lag_ms",
	"live.apply_batch_us", "jobs.queue_wait_s", "jobs.run_s", "live.materialize_s",
	"live.swap_s", "live.triggered", "live.swaps", "live.swap_ratio", "loadgen.late_ms_max",
}

// runPartition generates w.graphs graphs from the seed, one after the
// other, and partitions each repeatedly for its share of cfg.seconds,
// checking every result. Generating a graph is one set-up sample. Every
// call is timed; a graph gets another call while it fits into the run's
// first (graph+1) shares, and at least one. A traced run alternates
// untraced and traced calls, so the tracing overhead is measured on the
// same inputs, and makes at least one of each per graph.
func runPartition(cfg runConfig, w partitionWorkload) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		o.spans = newRecorder()
	}
	var (
		setups, untraced, tracedSecs []float64
		graphCuts, rss               []float64
		layers                       = map[string][]float64{}
	)
	minReps := 1
	if cfg.trace {
		minReps = 2
	}
	share := cfg.seconds / float64(w.graphs)
	runStart := time.Now()
	for gi := 0; gi < w.graphs; gi++ {
		runtime.GC()
		t0 := time.Now()
		g, err := gen.ByFamily(w.family, w.n, cfg.seed*uint64(w.graphs)+uint64(gi))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		o.spans.add(o.spans.newOp(), 0, "bench.generate", "bench", t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
		debug.FreeOSMemory()
		fmt.Fprintf(cfg.log, "%s graph %d: %s n=%d m=%d k=%d pes=%d workers=%d, generated in %.3f s\n",
			w.name, gi, w.family, g.NumNodes(), g.NumEdges(), w.k, w.pes, w.workers, t1.Sub(t0).Seconds())

		store := newChecksumStore(cfg, w.name, gi)
		var (
			first checked
			cuts  []float64
		)
		// Graph gi may use the run's time up to (gi+1) shares, so time a
		// graph leaves unused passes on to the next one.
		deadline := float64(gi+1) * share
		last := 0.0
		for rep := 0; rep < minReps || time.Since(runStart).Seconds()+last <= deadline; rep++ {
			traced := cfg.trace && rep%2 == 1
			c, err := partitionOnce(g, w, traced, o.spans)
			last = c.secs
			valid := err == nil
			if valid {
				if first.checksum == "" {
					first = c.checked
					err = store.compare(c.checksum)
				} else if c.checksum != first.checksum {
					err = fmt.Errorf("partition checksum %s differs from %s of the first call", c.checksum, first.checksum)
				}
			}
			o.tally.record(err)
			kind := "untraced"
			if traced {
				kind = "traced"
			}
			fmt.Fprintf(cfg.log, "  call %d (%s): %.3f s peak %.0f MB cut %d checksum %s", rep+1, kind, c.secs, c.rssMB, c.cut, c.checksum)
			if err != nil {
				fmt.Fprintf(cfg.log, " FAILED: %v", err)
			}
			fmt.Fprintln(cfg.log)
			// A call whose partition is valid but not reproducible still
			// measured a real partition: it counts as failed, and its time
			// and cut are kept.
			if !valid {
				continue
			}
			cuts = append(cuts, float64(c.cut))
			rss = append(rss, c.rssMB)
			if !traced {
				untraced = append(untraced, c.secs)
				continue
			}
			tracedSecs = append(tracedSecs, c.secs)
			for k, v := range c.layers {
				layers[k] = append(layers[k], v)
			}
		}
		if len(cuts) == 0 {
			return nil, fmt.Errorf("no partition call on graph %d succeeded: %s", gi, strings.Join(o.tally.reasons, "; "))
		}
		graphCuts = append(graphCuts, median(cuts))
	}
	o.set("setup_s", median(setups), len(setups))
	if len(untraced) == 0 || (cfg.trace && len(tracedSecs) == 0) {
		return nil, fmt.Errorf("no partition call succeeded: %s", strings.Join(o.tally.reasons, "; "))
	}
	o.set("partition_s", median(untraced), len(untraced))
	o.set("cut", mean(graphCuts), len(graphCuts))
	o.set("peak_rss_mb", median(rss), len(rss))
	if cfg.trace {
		for k, vs := range layers {
			o.set(k, median(vs), len(vs))
		}
		o.set("trace.overhead_frac", median(tracedSecs)/median(untraced)-1, len(tracedSecs)+len(untraced))
		for _, name := range liveLayer {
			o.set(name, 0, 0)
		}
	}
	return o, nil
}

// call is one checked partition call.
type call struct {
	checked
	secs   float64            // wall time
	rssMB  float64            // peak resident memory during the call
	layers map[string]float64 // per-layer metrics of a traced call
}

// partitionOnce runs and checks one partition call.
func partitionOnce(g *parhip.Graph, w partitionWorkload, traced bool, rec *recorder) (call, error) {
	opts := []parhip.Option{
		parhip.WithK(w.k), parhip.WithMode(parhip.Fast), parhip.WithClass(w.class), parhip.WithPEs(w.pes),
	}
	if w.workers > 0 {
		opts = append(opts, parhip.WithWorkers(w.workers))
	}
	var tr *parhip.Tracer
	var tracerEpoch time.Time
	if traced {
		tracerEpoch = time.Now()
		tr = parhip.NewTracer(w.pes)
		opts = append(opts, parhip.WithTracer(tr))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := resetPeakRSS(); err != nil {
		return call{}, err
	}
	t0 := time.Now()
	res, err := partition(g, opts)
	t1 := time.Now()
	rss, rerr := peakRSSMB()
	runtime.ReadMemStats(&ms1)
	out := call{secs: t1.Sub(t0).Seconds(), rssMB: rss}
	if err == nil {
		err = rerr
	}
	if err != nil {
		return out, err
	}
	part := make([]int32, g.NumNodes())
	for v := range part {
		part[v] = res.Partition.Block(int32(v))
	}
	out.checked, err = checkPartition(g, part, w.k, res.Cut)
	t2 := time.Now()
	if !traced || err != nil {
		return out, err
	}
	op := rec.newOp()
	root := rec.add(op, 0, "bench.partition", "bench", t0, t1)
	rec.add(op, 0, "bench.check", "bench", t1, t2)
	data, err := tracerJSON(tr)
	if err != nil {
		return out, err
	}
	evs, err := parseChrome(data)
	if err != nil {
		return out, err
	}
	rec.merge(op, root, "rank ", tracerEpoch, evs)
	out.layers = layerMetrics(res.Stats, evs, int64(g.NumNodes()))
	out.layers["mem.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	out.layers["mem.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	return out, nil
}

func partition(g *parhip.Graph, opts []parhip.Option) (parhip.Result, error) {
	p, err := parhip.New(g, opts...)
	if err != nil {
		return parhip.Result{}, err
	}
	return p.Run(context.Background())
}

// layerMetrics derives the per-layer metrics of one traced call from the
// run's Stats (rank 0) and the program's spans.
func layerMetrics(st core.Stats, evs []chromeEvent, n int64) map[string]float64 {
	rank0 := func(name string) float64 {
		var us float64
		for _, e := range evs {
			if e.Tid == 0 && e.Name == name {
				us += e.Dur
			}
		}
		return us / 1e6
	}
	// firstArg returns an argument of the earliest rank-0 span of name.
	firstArg := func(name, arg string) (int64, bool) {
		var best *chromeEvent
		for i := range evs {
			e := &evs[i]
			if e.Tid == 0 && e.Name == name && (best == nil || e.Ts < best.Ts) {
				best = e
			}
		}
		if best == nil {
			return 0, false
		}
		return best.arg(arg)
	}
	m := map[string]float64{
		"core.coarsen_s":           st.CoarsenTime.Seconds(),
		"sclp.cluster_s":           rank0("sclp.cluster_superstep"),
		"contract.quotient_s":      rank0("contract.quotient"),
		"core.levels":              float64(len(st.Levels)),
		"core.init_s":              st.InitTime.Seconds(),
		"core.refine_s":            st.RefineTime.Seconds(),
		"sclp.refine_s":            rank0("sclp.refine_superstep"),
		"core.rebalance_s":         st.RebalanceTime.Seconds(),
		"sclp.rebalance_moves":     float64(st.RebalanceMoves),
		"mpi.msgs":                 float64(st.Comm.MessagesSent),
		"mpi.bytes":                float64(st.Comm.BytesSent()),
		"mpi.alltoallv_s":          rank0("mpi.alltoallv"),
		"mpi.neighbor_alltoallv_s": rank0("mpi.neighbor_alltoallv"),
		"dgraph.sync_ghosts_s":     rank0("dgraph.sync_ghosts"),
		"dgraph.push_ghosts_s":     rank0("dgraph.push_ghosts"),
		"mpi.rank_skew_s":          rankSkew(evs),
		"sclp.propose_s":           float64(st.Par.ProposeNS) / 1e9,
		"sclp.commit_s":            float64(st.Par.CommitNS) / 1e9,
		"sclp.busy_s":              float64(st.Par.BusyNS) / 1e9,
		"sclp.utilization":         st.Par.Utilization(),
		"sclp.supersteps":          float64(st.Par.Supersteps),
	}
	if len(st.Levels) > 0 {
		m["core.coarsest_n"] = float64(st.Levels[len(st.Levels)-1].N)
	}
	if v, ok := firstArg("core.initial_partition", "coarsest_n"); ok {
		m["evo.input_n"] = float64(v)
	}
	// Stalled: cycle 0's first coarsening step kept >= 95% of the nodes.
	m["core.stalled"] = 0
	if v, ok := firstArg("core.coarsen_level", "coarse_n"); ok && v*20 >= n*19 {
		m["core.stalled"] = 1
	}
	return m
}

// rankSkew sums, over every core.* span, the slowest rank's duration minus
// the fastest rank's: time the faster ranks wait at the span's closing
// collective. Spans are matched across ranks by name and occurrence.
func rankSkew(evs []chromeEvent) float64 {
	byKey := map[string][]float64{} // name#occurrence -> per-rank durations
	seen := map[string]int{}        // rank/name -> occurrences so far
	sorted := append([]chromeEvent(nil), evs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Ts < sorted[j].Ts })
	for _, e := range sorted {
		if !strings.HasPrefix(e.Name, "core.") {
			continue
		}
		rk := fmt.Sprintf("%d/%s", e.Tid, e.Name)
		key := fmt.Sprintf("%s#%d", e.Name, seen[rk])
		seen[rk]++
		byKey[key] = append(byKey[key], e.Dur)
	}
	var us float64
	for _, ds := range byKey {
		lo, hi := ds[0], ds[0]
		for _, d := range ds {
			lo, hi = min(lo, d), max(hi, d)
		}
		us += hi - lo
	}
	return us / 1e6
}

// resetPeakRSS restarts the kernel's peak-RSS accounting of this process
// (Linux: writing 5 to /proc/self/clear_refs resets VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size since the last
// resetPeakRSS (VmHWM of /proc/self/status).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
