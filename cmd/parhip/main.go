// Command parhip partitions a graph from the command line.
//
// The input is either a METIS-format graph file (-graph) or a generated
// instance (-family with -n). Output is a quality report and, optionally,
// the partition written to -out: the versioned text partition format by
// default (a '%%' header plus one block per node per line, readable by
// legacy block-per-line parsers), or the binary format when the file name
// ends in .bpart. A partition saved this way can seed a later
// migration-aware repartitioning run of a drifted graph via -prev (any
// partition format, including legacy block-per-line files); the report
// then includes how many nodes migrated. A SIGINT (Ctrl-C) or SIGTERM
// cancels the run cooperatively: the simulated ranks unwind at the next
// superstep, partial progress statistics are printed, and the process
// exits with status 130. -progress streams per-level checkpoint events to
// stderr while the run is in flight.
//
// Examples:
//
//	parhip -family web -n 20000 -k 8 -pes 8 -mode eco -progress
//	parhip -graph mygraph.metis -k 2 -out blocks.part
//	parhip -graph mygraph-v2.metis -prev blocks.part -out blocks-v2.part
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "METIS graph file to partition")
		family    = flag.String("family", "", "generated family: rgg, delaunay, rmat, ba, web, mesh3d, grid")
		n         = flag.Int("n", 10000, "node count for generated graphs")
		seed      = flag.Uint64("seed", 1, "random seed")
		k         = flag.Int("k", 2, "number of blocks")
		pes       = flag.Int("pes", 4, "simulated processing elements")
		mode      = flag.String("mode", "fast", "fast, eco or minimal")
		class     = flag.String("class", "auto", "graph class: social, mesh or auto")
		eps       = flag.Float64("eps", 0.03, "allowed imbalance")
		baseline  = flag.Bool("baseline", false, "run the matching-based baseline instead")
		progress  = flag.Bool("progress", false, "stream per-level progress events to stderr")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		prevFile  = flag.String("prev", "", "previous partition file: run a migration-aware repartition seeded with it")
		out       = flag.String("out", "", "write the partition to this file (text format; binary when the name ends in .bpart)")
		traceFile = flag.String("trace", "", "record per-rank spans and write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
		workers   = flag.Int("workers", 0, "OS threads per rank for superstep compute (0 = NumCPU / ranks in this process; results are bit-identical for any value)")
		backend   = flag.String("transport", "inproc", "rank communication: inproc (all ranks in this process) or tcp (this process hosts one rank of a multi-process world)")
		rank      = flag.Int("rank", 0, "tcp: rank this process hosts, in [0, world size)")
		peersList = flag.String("peers", "", "tcp: rank-ordered comma-separated host:port list; its length is the world size")
	)
	flag.Parse()

	g, cls, err := loadGraph(*graphFile, *family, int32(*n), *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parhip:", err)
		os.Exit(1)
	}
	opt := parhip.Options{
		PEs:     *pes,
		Eps:     *eps,
		Seed:    *seed,
		Workers: *workers,
	}
	var tracer *parhip.Tracer
	if *traceFile != "" {
		tracer = parhip.NewTracer(*pes)
		opt.Trace = tracer
	}
	switch *mode {
	case "fast":
		opt.Mode = parhip.Fast
	case "eco":
		opt.Mode = parhip.Eco
	case "minimal":
		opt.Mode = parhip.Minimal
	default:
		fmt.Fprintf(os.Stderr, "parhip: unknown mode %q\n", *mode)
		os.Exit(1)
	}
	switch *class {
	case "social":
		opt.Class = parhip.Social
	case "mesh":
		opt.Class = parhip.Mesh
	case "auto":
		opt.Class = cls
	default:
		fmt.Fprintf(os.Stderr, "parhip: unknown class %q\n", *class)
		os.Exit(1)
	}

	switch *backend {
	case "inproc":
		if *peersList != "" {
			fmt.Fprintln(os.Stderr, "parhip: -peers requires -transport tcp")
			os.Exit(1)
		}
	case "tcp":
		runTCP(g, opt, *rank, *peersList, *mode, int32(*k), *timeout, *out,
			*baseline || *prevFile != "" || *traceFile != "" || *progress)
		return
	default:
		fmt.Fprintf(os.Stderr, "parhip: unknown transport %q (want inproc or tcp)\n", *backend)
		os.Exit(1)
	}

	var prev *parhip.Partition
	if *prevFile != "" {
		if *baseline {
			fmt.Fprintln(os.Stderr, "parhip: -prev is not supported with -baseline")
			os.Exit(1)
		}
		f, err := os.Open(*prevFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "parhip:", err)
			os.Exit(1)
		}
		prev, err = parhip.ReadPartition(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "parhip:", err)
			os.Exit(1)
		}
		kSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "k" {
				kSet = true
			}
		})
		if kSet && int32(*k) != prev.K() {
			fmt.Fprintf(os.Stderr, "parhip: -k %d conflicts with -prev partition's k=%d\n", *k, prev.K())
			os.Exit(1)
		}
		*k = int(prev.K())
	}

	fmt.Printf("graph: n=%d m=%d   k=%d  pes=%d  mode=%s\n",
		g.NumNodes(), g.NumEdges(), *k, *pes, *mode)

	// Ctrl-C / SIGTERM cancels the run cooperatively; -timeout bounds it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Track the latest checkpoint so an interrupted run can report how far
	// it got; -progress additionally streams every event.
	var mu sync.Mutex
	var last *parhip.ProgressEvent
	onEvent := func(ev parhip.ProgressEvent) {
		mu.Lock()
		last = &ev
		mu.Unlock()
		if *progress {
			if ev.Cut >= 0 {
				fmt.Fprintf(os.Stderr, "  [%6.2fs] cycle %d/%d %-9s level %-2d n=%-8d cut=%d imb=%.4f\n",
					ev.Elapsed.Seconds(), ev.Cycle+1, ev.Cycles, ev.Phase, ev.Level, ev.N, ev.Cut, ev.Imbalance)
			} else {
				fmt.Fprintf(os.Stderr, "  [%6.2fs] cycle %d/%d %-9s level %-2d n=%-8d m=%d\n",
					ev.Elapsed.Seconds(), ev.Cycle+1, ev.Cycles, ev.Phase, ev.Level, ev.N, ev.M)
			}
		}
	}

	start := time.Now()
	var res parhip.Result
	if *baseline {
		res, err = parhip.PartitionBaselineCtx(ctx, g, int32(*k), opt, 0)
	} else {
		opts := []parhip.Option{parhip.WithK(int32(*k)), parhip.WithOptions(opt),
			parhip.WithProgressFunc(onEvent)}
		if prev != nil {
			opts = append(opts, parhip.WithPrevious(prev))
		}
		var p *parhip.Partitioner
		p, err = parhip.New(g, opts...)
		if err == nil {
			res, err = p.Run(ctx)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "parhip: run cancelled after %.3fs (%v)\n",
				time.Since(start).Seconds(), err)
			mu.Lock()
			if last != nil {
				fmt.Fprintf(os.Stderr, "parhip: partial progress: cycle %d/%d, phase %s, level %d (n=%d)",
					last.Cycle+1, last.Cycles, last.Phase, last.Level, last.N)
				if last.Cut >= 0 {
					fmt.Fprintf(os.Stderr, ", cut=%d imbalance=%.4f", last.Cut, last.Imbalance)
				}
				fmt.Fprintln(os.Stderr)
			} else {
				fmt.Fprintln(os.Stderr, "parhip: cancelled before the first checkpoint")
			}
			mu.Unlock()
			writeTrace(*traceFile, tracer) // partial trace: spans completed before the abort
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "parhip:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("cut=%d  imbalance=%.4f  feasible=%v  commvol=%d  time=%.3fs\n",
		res.Cut, res.Imbalance, res.Feasible,
		res.Partition.CommunicationVolume(g), elapsed.Seconds())
	if prev != nil {
		plan, perr := res.Partition.MigrationPlan(prev)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "parhip: migration plan:", perr)
		} else {
			fmt.Printf("migration: %d/%d nodes moved (%.1f%%), volume %d\n",
				plan.MigratedNodes, plan.TotalNodes, 100*plan.MigratedFraction(), plan.MigrationVolume)
		}
	}
	if c := res.Stats.Comm; c.MessagesSent > 0 {
		fmt.Printf("comm: %d msgs, %d bytes (%d neighbor msgs over %d sparse exchanges)\n",
			c.MessagesSent, c.BytesSent(), c.NeighborMessages, c.NeighborExchanges)
	}
	if len(res.Stats.Levels) > 0 {
		fmt.Print("hierarchy:")
		for _, lv := range res.Stats.Levels {
			fmt.Printf(" %d", lv.N)
		}
		fmt.Println(" nodes")
	}
	st := res.Stats
	fmt.Printf("phases: coarsen %.3fs  init %.3fs  refine %.3fs  rebalance %.3fs (%d moves)\n",
		st.CoarsenTime.Seconds(), st.InitTime.Seconds(), st.RefineTime.Seconds(),
		st.RebalanceTime.Seconds(), st.RebalanceMoves)
	if st.CoarsenStalls > 0 {
		fmt.Printf("coarsening stalled in %d V-cycle(s)\n", st.CoarsenStalls)
	}
	if *out != "" {
		if err := writePartition(*out, res.Partition); err != nil {
			fmt.Fprintln(os.Stderr, "parhip:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	writeTrace(*traceFile, tracer)
}

// runTCP is the multi-process launcher path: this process hosts exactly
// one rank of a real networked world instead of simulating every PE
// in-process. Every process of the run must be started with identical
// graph, seed, k, mode and peer-table arguments; the result — printed
// and written only by the rank-0 process — is bit-identical to the
// in-process run with the same seed and configuration.
func runTCP(g *parhip.Graph, opt parhip.Options, rank int, peersList, mode string,
	k int32, timeout time.Duration, out string, unsupported bool) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "parhip:", err)
		os.Exit(1)
	}
	if unsupported {
		fail(errors.New("-baseline, -prev, -trace and -progress are not supported with -transport tcp (use the inproc transport, or parhip-worker -v for transport logs)"))
	}
	peers, err := cluster.ParsePeers(peersList)
	if err != nil {
		fail(err)
	}
	clsName := "social"
	if opt.Class == parhip.Mesh {
		clsName = "mesh"
	}
	coreCfg, err := cluster.CoreConfig(mode, clsName, k, opt.Eps, opt.Seed)
	if err != nil {
		fail(err)
	}
	coreCfg.Workers = opt.Workers

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	fmt.Printf("graph: n=%d m=%d   k=%d  rank=%d/%d  mode=%s  transport=tcp\n",
		g.NumNodes(), g.NumEdges(), k, rank, len(peers), mode)
	start := time.Now()
	rep, err := cluster.Run(ctx, cluster.Config{
		Rank:  rank,
		Peers: peers,
		Graph: g,
		Core:  coreCfg,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "parhip: run cancelled after %.3fs (%v)\n",
				time.Since(start).Seconds(), err)
			os.Exit(130)
		}
		fail(err)
	}
	elapsed := time.Since(start)
	if !rep.IsRoot {
		fmt.Printf("rank %d done in %.3fs (result reported by rank 0)\n", rank, elapsed.Seconds())
		return
	}
	// Rebuild the first-class Partition value so the report line carries
	// the same fields (including commvol) as the in-process path.
	p, err := parhip.NewPartition(g, rep.Result.Part, k, coreCfg.Eps)
	if err != nil {
		fail(err)
	}
	st := rep.Result.Stats
	fmt.Printf("cut=%d  imbalance=%.4f  feasible=%v  commvol=%d  time=%.3fs\n",
		st.Cut, st.Imbalance, st.Feasible, p.CommunicationVolume(g), elapsed.Seconds())
	ts := rep.Transport
	fmt.Printf("transport: %d frames / %d bytes sent, %d reconnects, %d heartbeat misses\n",
		ts.FramesSent, ts.BytesSent, ts.Reconnects, ts.HeartbeatMisses)
	if out != "" {
		if err := writePartition(out, p); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
}

// writeTrace serializes the recorded spans as Chrome trace-event JSON.
// No-op when tracing was not requested.
func writeTrace(path string, tracer *parhip.Tracer) {
	if path == "" || tracer == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parhip: trace:", err)
		return
	}
	w := bufio.NewWriter(f)
	err = tracer.WriteJSON(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "parhip: trace:", err)
		return
	}
	fmt.Printf("wrote %s (%d spans; open in https://ui.perfetto.dev)\n", path, tracer.SpanCount())
}

func loadGraph(file, family string, n int32, seed uint64) (*parhip.Graph, parhip.GraphClass, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		var g *parhip.Graph
		if strings.HasSuffix(file, ".bgf") || strings.HasSuffix(file, ".bin") {
			g, err = graph.ReadBinary(f)
		} else {
			g, err = parhip.ReadMetis(f)
		}
		return g, parhip.Social, err
	}
	if family == "" {
		return nil, 0, fmt.Errorf("need -graph or -family")
	}
	g, err := gen.ByFamily(gen.Family(family), n, seed)
	if err != nil {
		return nil, 0, err
	}
	cls := parhip.Social
	switch gen.Family(family) {
	case gen.FamilyRGG, gen.FamilyDelaunay, gen.FamilyMesh3D, gen.FamilyGrid:
		cls = parhip.Mesh
	}
	return g, cls, nil
}

// writePartition saves the partition in the versioned text format, or the
// binary format for .bpart files.
func writePartition(path string, p *parhip.Partition) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if strings.HasSuffix(path, ".bpart") {
		_, err = p.WriteTo(w)
	} else {
		_, err = p.WriteTextTo(w)
	}
	if err != nil {
		return err
	}
	return w.Flush()
}
