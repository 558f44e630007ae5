package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/server"
)

// liveWorkload streams edge deltas into a live graph served in-process
// while a second connection reads placements, both as open loops at fixed
// rates.
type liveWorkload struct {
	name       string
	n          int32
	k          int32
	pes        int
	batchRate  float64 // update batches per second
	batchSize  int     // deltas per batch
	lookupRate float64 // placement lookups per second
}

// liveStream sends 20 batches of 170 deltas a second, so the default 5%
// churn trigger (about 13.7k deltas of m ~ 274k) fires every 4 s or so,
// longer than a warm repartition takes.
var liveStream = liveWorkload{"live-stream", 65536, 16, 2, 20, 170, 200}

// Latency limits, fixed from the first steady runs on a 2-CPU host
// (lookup p99 160-190 ms, update p90 32-39 ms): a lookup's tail is the
// time it waits for a core while a repartition runs.
const (
	lookupP99LimitUS = 250_000
	updateP90LimitMS = 50
)

// partitionOnlyLayer are the per-layer metrics only a partition call's own
// Stats and spans produce; the service does not expose them per run.
var partitionOnlyLayer = []string{
	"sclp.cluster_s", "contract.quotient_s", "core.levels", "evo.input_n", "core.coarsest_n",
	"core.stalled", "sclp.refine_s", "core.rebalance_s", "sclp.rebalance_moves",
	"mpi.alltoallv_s", "mpi.neighbor_alltoallv_s", "dgraph.sync_ghosts_s", "dgraph.push_ghosts_s",
	"mpi.rank_skew_s", "mem.alloc_mb", "mem.gc_cycles", "trace.overhead_frac",
}

// service is one parhipd instance on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    server.New(server.Config{Workers: 1, CoreWorkers: 1}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

// stop closes the listener and connections, waits for Serve to return,
// then drains the job queue.
func (s *service) stop() {
	_ = s.hs.Close() // the only error is from closing an already closed listener
	<-s.served
	s.srv.Close()
}

// client is one HTTP connection to the service.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). Any other status is an error.
func (c *client) do(method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

func (c *client) postJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, path, "application/json", body, out)
}

// liveStatus is the part of GET /v1/graphs/{id}/live the benchmark reads.
type liveStatus struct {
	Epoch            int64   `json:"epoch"`
	M                int64   `json:"m"`
	PendingDeltas    int64   `json:"pending_deltas"`
	ChurnFraction    float64 `json:"churn_fraction"`
	InFlight         bool    `json:"in_flight"`
	AutoRepartitions int64   `json:"auto_repartitions"`
	Swaps            int64   `json:"swaps"`
	LastError        string  `json:"last_error"`
	Cut              *int64  `json:"cut"`
	Feasible         *bool   `json:"feasible"`
}

// awaitStatus polls the live status until cond holds.
func awaitStatus(c *client, id string, timeout time.Duration, what string, cond func(liveStatus) bool) (liveStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		var st liveStatus
		if err := c.do(http.MethodGet, "/v1/graphs/"+id+"/live", "", nil, &st); err != nil {
			return st, err
		}
		if cond(st) {
			return st, nil
		}
		if st.LastError != "" {
			return st, fmt.Errorf("waiting for %s: live graph reports %s", what, st.LastError)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("timed out waiting for %s (%+v)", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveSession is a service with one live graph on it.
type liveSession struct {
	svc *service
	c   *client
	id  string
	// enabled is when the enable request was sent: the live graph's span
	// tracer starts its clock while serving it.
	enabled time.Time
}

func (ls *liveSession) close() {
	ls.c.tr.CloseIdleConnections()
	ls.svc.stop()
}

// setUpLive starts a service, uploads g, promotes it to live and waits
// for the initial partition (epoch 1).
func setUpLive(w liveWorkload, g *parhip.Graph, trace bool) (*liveSession, error) {
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	ls := &liveSession{svc: svc, c: newClient(svc.base)}
	c := ls.c
	fail := func(err error) (*liveSession, error) {
		ls.close()
		return nil, err
	}
	var body bytes.Buffer
	if err := parhip.WriteBinary(&body, g); err != nil {
		return fail(err)
	}
	var up struct {
		ID string `json:"id"`
	}
	if err := c.do(http.MethodPost, "/v1/graphs", "application/octet-stream", body.Bytes(), &up); err != nil {
		return fail(err)
	}
	enable := map[string]any{
		"k":       w.k,
		"options": map[string]any{"mode": "fast", "pes": w.pes},
		"trace":   trace,
	}
	ls.id, ls.enabled = up.ID, time.Now()
	if err := c.postJSON("/v1/graphs/"+ls.id+"/live", enable, nil); err != nil {
		return fail(err)
	}
	if _, err := awaitStatus(c, ls.id, 120*time.Second, "initial partition", func(s liveStatus) bool { return s.Epoch >= 1 }); err != nil {
		return fail(err)
	}
	return ls, nil
}

type wireDelta struct {
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
	W  int64  `json:"w,omitempty"`
}

type updateRequest struct {
	Seq    int64       `json:"seq"`
	Deltas []wireDelta `json:"deltas"`
}

type updateResponse struct {
	Applied  int   `json:"applied"`
	Replayed bool  `json:"replayed"`
	Epoch    int64 `json:"epoch"`
	Decision struct {
		Trigger bool   `json:"trigger"`
		Reason  string `json:"reason"`
	} `json:"decision"`
}

func toWire(ds []gen.EdgeDelta) []wireDelta {
	out := make([]wireDelta, len(ds))
	for i, d := range ds {
		out[i] = wireDelta{Op: "remove_edge", U: d.U, V: d.V}
		if d.Add {
			out[i] = wireDelta{Op: "add_edge", U: d.U, V: d.V, W: d.W}
		}
	}
	return out
}

// streamDeltas returns at least total edge deltas for g, removals and
// insertions alternating, deterministic under seed.
func streamDeltas(g *parhip.Graph, total int, seed uint64) ([]gen.EdgeDelta, error) {
	frac := min(1, 1.1*float64(total)/float64(2*g.NumEdges()))
	ds := gen.PerturbDeltas(g, frac, seed)
	half := len(ds) / 2 // removals first, then as many insertions
	out := make([]gen.EdgeDelta, 0, len(ds))
	for i := 0; i < half; i++ {
		out = append(out, ds[i], ds[half+i])
	}
	if len(out) < total {
		return nil, fmt.Errorf("only %d deltas for a stream of %d", len(out), total)
	}
	return out[:total], nil
}

type sample struct {
	due, recv time.Time
	epoch     int64
	trigger   bool
}

func (s sample) latency() time.Duration { return s.recv.Sub(s.due) }

// openLoop calls op for i = 0..count-1, each due at start + i/rate,
// regardless of how long earlier calls took. It returns how late the
// loop ran at worst.
func openLoop(start time.Time, rate float64, count int, op func(i int, due time.Time)) time.Duration {
	var late time.Duration
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = max(late, time.Since(due))
		op(i, due)
	}
	return late
}

// runLive sets the service up setupRuns times (setup_s is the median),
// streams updates and lookups against the last instance for cfg.seconds,
// drains it, and checks every answer and the final partition.
func runLive(cfg runConfig, w liveWorkload) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		o.spans = newRecorder()
	}
	var (
		g      *parhip.Graph
		ls     *liveSession
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if ls != nil {
			ls.close()
		}
		t0 := time.Now()
		g, _ = gen.PlantedPartition(w.n, 30, 8, 0.4, cfg.seed)
		var err error
		if ls, err = setUpLive(w, g, cfg.trace); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		o.spans.add(o.spans.newOp(), 0, "bench.setup", "bench", t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	defer ls.close()
	c, id := ls.c, ls.id
	debug.FreeOSMemory()
	o.set("setup_s", median(setups), len(setups))
	fmt.Fprintf(cfg.log, "%s: planted n=%d m=%d k=%d pes=%d, setup %.3f s\n",
		w.name, g.NumNodes(), g.NumEdges(), w.k, w.pes, median(setups))

	nBatches := max(1, int(cfg.seconds*w.batchRate))
	nLookups := max(1, int(cfg.seconds*w.lookupRate))
	// The reserve after the timed stream tops the churn up to the trigger
	// so the tail of the stream is repartitioned too.
	reserve := int(0.06*float64(g.NumEdges())) + w.batchSize
	deltas, err := streamDeltas(g, nBatches*w.batchSize+reserve, cfg.seed+1)
	if err != nil {
		return nil, err
	}
	batches := make([][]wireDelta, nBatches)
	for i := range batches {
		batches[i] = toWire(deltas[i*w.batchSize : (i+1)*w.batchSize])
	}
	reader := newClient(ls.svc.base)
	defer reader.tr.CloseIdleConnections()

	var (
		updates      = make([]sample, nBatches)
		lookups      = make([]sample, nLookups)
		wt, rt       tally
		wLate, rLate time.Duration
		wg           sync.WaitGroup
	)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	streamStart := time.Now()
	start := streamStart.Add(10 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		wLate = openLoop(start, w.batchRate, nBatches, func(i int, due time.Time) {
			var ur updateResponse
			err := c.postJSON("/v1/graphs/"+id+"/updates", updateRequest{Seq: int64(i + 1), Deltas: batches[i]}, &ur)
			recv := time.Now()
			o.spans.add(o.spans.newOp(), 0, "bench.update", "updates", due, recv)
			if err == nil && (ur.Applied != len(batches[i]) || ur.Replayed) {
				err = fmt.Errorf("batch %d: applied %d of %d (replayed %v)", i+1, ur.Applied, len(batches[i]), ur.Replayed)
			}
			wt.record(err)
			updates[i] = sample{due: due, recv: recv, epoch: ur.Epoch, trigger: err == nil && ur.Decision.Trigger}
		})
	}()
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewPCG(cfg.seed, 2))
		var lastEpoch int64
		rLate = openLoop(start, w.lookupRate, nLookups, func(i int, due time.Time) {
			v := r.Int32N(w.n)
			var pv struct {
				Block int32 `json:"block"`
				Epoch int64 `json:"epoch"`
			}
			err := reader.do(http.MethodGet, fmt.Sprintf("/v1/graphs/%s/placement/%d", id, v), "", nil, &pv)
			recv := time.Now()
			o.spans.add(o.spans.newOp(), 0, "bench.lookup", "lookups", due, recv)
			switch {
			case err != nil:
			case pv.Block < 0 || pv.Block >= w.k:
				err = fmt.Errorf("node %d placed in block %d outside [0,%d)", v, pv.Block, w.k)
			case pv.Epoch < lastEpoch:
				err = fmt.Errorf("placement epoch went backwards: %d -> %d", lastEpoch, pv.Epoch)
			}
			rt.record(err)
			if err == nil {
				lastEpoch = pv.Epoch
			}
			lookups[i] = sample{due: due, recv: recv, epoch: pv.Epoch}
		})
	}()
	wg.Wait()
	streamEnd := time.Now()
	o.tally = mergeTallies(wt, rt)
	fmt.Fprintf(cfg.log, "  streamed %d batches of %d deltas and %d lookups in %.1f s\n",
		nBatches, w.batchSize, nLookups, streamEnd.Sub(streamStart).Seconds())

	// Replaying the last batch must be a no-op.
	var ur updateResponse
	err = c.postJSON("/v1/graphs/"+id+"/updates", updateRequest{Seq: int64(nBatches), Deltas: batches[nBatches-1]}, &ur)
	if err == nil && (!ur.Replayed || ur.Applied != 0) {
		err = fmt.Errorf("replay of batch %d applied %d deltas (replayed %v)", nBatches, ur.Applied, ur.Replayed)
	}
	o.tally.record(err)

	sent, st, err := drain(c, id, deltas, nBatches*w.batchSize, int64(nBatches))
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	t2 := time.Now()
	o.spans.add(o.spans.newOp(), 0, "bench.drain", "bench", streamEnd, t2)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", rss, 1)
	fmt.Fprintf(cfg.log, "  drained after %d deltas: epoch %d, %d repartitions, %d swaps\n",
		sent, st.Epoch, st.AutoRepartitions, st.Swaps)
	o.tally.record(checkFinalStatus(st))

	warm, cut, err := checkFinalPartition(c, id, gen.ApplyEdgeDeltas(g, deltas[:sent]), w.k, st)
	o.tally.record(err)
	if len(warm) == 0 {
		return nil, fmt.Errorf("no warm repartition finished")
	}
	o.set("partition_s", median(warm), len(warm))
	o.set("cut", float64(cut), 1)

	lookupUS := latencies(lookups, time.Microsecond)
	updateMS := latencies(updates, time.Millisecond)
	lags := swapLags(updates, lookups)
	o.set("lookup_p50_us", quantile(lookupUS, 0.5), len(lookupUS))
	o.set("lookup_p99_us", quantile(lookupUS, 0.99), len(lookupUS))
	o.set("update_p50_ms", quantile(updateMS, 0.5), len(updateMS))
	o.set("update_p90_ms", quantile(updateMS, 0.9), len(updateMS))
	o.set("swap_lag_ms", median(lags), len(lags))
	o.set("loadgen.late_ms_max", float64(max(wLate, rLate))/float64(time.Millisecond), nBatches+nLookups)
	fmt.Fprintf(cfg.log, "  limits: lookup_p99_us <= %d met: %v, update_p90_ms <= %d met: %v\n",
		lookupP99LimitUS, quantile(lookupUS, 0.99) <= lookupP99LimitUS,
		updateP90LimitMS, quantile(updateMS, 0.9) <= updateP90LimitMS)

	if cfg.trace {
		if err := liveLayers(ls, o, t2); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func mergeTallies(ts ...tally) tally {
	var out tally
	for _, t := range ts {
		out.attempted += t.attempted
		out.failed += t.failed
		out.reasons = append(out.reasons, t.reasons...)
	}
	return out
}

// drain tops the churn up from the reserve deltas[sent:] whenever the
// live graph is idle with pending deltas, until every delta is in a
// swapped-in partition. It returns how many deltas were sent in all.
func drain(c *client, id string, deltas []gen.EdgeDelta, sent int, seq int64) (int, liveStatus, error) {
	deadline := time.Now().Add(90 * time.Second)
	for {
		st, err := awaitStatus(c, id, time.Until(deadline), "idle service", func(s liveStatus) bool { return !s.InFlight })
		if err != nil {
			return sent, st, err
		}
		if st.PendingDeltas == 0 {
			return sent, st, nil
		}
		// Settle: a swap re-evaluates the policy right after clearing
		// in_flight, and may start the next run by itself.
		time.Sleep(50 * time.Millisecond)
		if err := c.do(http.MethodGet, "/v1/graphs/"+id+"/live", "", nil, &st); err != nil {
			return sent, st, err
		}
		if st.InFlight || st.PendingDeltas == 0 {
			continue
		}
		if sent >= len(deltas) {
			return sent, st, fmt.Errorf("reserve of deltas exhausted with %d pending", st.PendingDeltas)
		}
		need := min(max(1, int((0.05-st.ChurnFraction)*float64(st.M)*1.05)+1), len(deltas)-sent)
		seq++
		var ur updateResponse
		if err := c.postJSON("/v1/graphs/"+id+"/updates", updateRequest{Seq: seq, Deltas: toWire(deltas[sent : sent+need])}, &ur); err != nil {
			return sent, st, err
		}
		sent += need
		if time.Now().After(deadline) {
			return sent, st, fmt.Errorf("timed out draining (%+v)", st)
		}
	}
}

// checkFinalStatus checks the drained live graph: nothing pending, no
// error, a feasible placement, and at least two auto-repartitions (after
// the initial run) swapped in.
func checkFinalStatus(st liveStatus) error {
	switch {
	case st.PendingDeltas != 0:
		return fmt.Errorf("%d deltas pending after drain", st.PendingDeltas)
	case st.LastError != "":
		return fmt.Errorf("live graph reports %s", st.LastError)
	case st.Feasible == nil || !*st.Feasible:
		return errors.New("final placement is infeasible")
	case st.Swaps < 3:
		return fmt.Errorf("only %d swaps: fewer than two auto-repartitions after the initial run", st.Swaps)
	}
	return nil
}

type jobView struct {
	ID      string  `json:"id"`
	GraphID string  `json:"graph_id"`
	State   string  `json:"state"`
	RunMS   float64 `json:"run_ms"`
}

// checkFinalPartition fetches the last repartition's result, checks it
// against the graph the benchmark built from every delta it sent, and
// returns the run times of the warm repartitions and the recomputed cut.
func checkFinalPartition(c *client, id string, final *parhip.Graph, k int32, st liveStatus) ([]float64, int64, error) {
	var jobs []jobView
	if err := c.do(http.MethodGet, "/v1/jobs", "", nil, &jobs); err != nil {
		return nil, 0, err
	}
	var warm []float64 // every finished run after the initial cold one
	last := ""
	for _, j := range jobs {
		if j.GraphID != id || j.State != "done" {
			continue
		}
		if last != "" {
			warm = append(warm, j.RunMS/1e3)
		}
		last = j.ID
	}
	if last == "" {
		return warm, 0, errors.New("no finished repartition job")
	}
	var res struct {
		Cut  int64   `json:"cut"`
		Part []int32 `json:"part"`
	}
	if err := c.do(http.MethodGet, "/v1/jobs/"+last+"/result", "", nil, &res); err != nil {
		return warm, 0, err
	}
	got, err := checkPartition(final, res.Part, k, res.Cut)
	if err == nil && (st.Cut == nil || *st.Cut != got.cut) {
		err = fmt.Errorf("live status cut %v differs from recomputed %d", st.Cut, got.cut)
	}
	return warm, got.cut, err
}

func latencies(ss []sample, unit time.Duration) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if !s.recv.IsZero() {
			out = append(out, float64(s.latency())/float64(unit))
		}
	}
	return out
}

// swapLags measures, for every update whose decision triggered a
// repartition, the time from its response to the first placement answer
// at a newer epoch, in milliseconds.
func swapLags(updates, lookups []sample) []float64 {
	var lags []float64
	for _, u := range updates {
		if !u.trigger {
			continue
		}
		i := sort.Search(len(lookups), func(i int) bool { return !lookups[i].recv.Before(u.recv) })
		for ; i < len(lookups); i++ {
			if lookups[i].epoch > u.epoch {
				lags = append(lags, float64(lookups[i].recv.Sub(u.recv))/float64(time.Millisecond))
				break
			}
		}
	}
	return lags
}

// liveLayers fills the per-layer metrics of the live-stream run from the
// service's /metrics, /v1/stats and live span trace, and merges the live
// spans under one benchmark span covering the session up to end.
func liveLayers(ls *liveSession, o *outcome, end time.Time) error {
	c := ls.c
	prom, err := scrapeMetrics(c)
	if err != nil {
		return err
	}
	perRun := func(sum, count string) float64 {
		if prom[count] == 0 {
			return 0
		}
		return prom[sum] / prom[count]
	}
	runs := prom["parhipd_core_runs_total"]
	o.set("jobs.queue_wait_s", perRun("parhipd_job_queue_wait_seconds_sum", "parhipd_job_queue_wait_seconds_count"), int(prom["parhipd_job_queue_wait_seconds_count"]))
	o.set("jobs.run_s", perRun("parhipd_job_run_seconds_sum", "parhipd_job_run_seconds_count"), int(prom["parhipd_job_run_seconds_count"]))
	o.set("live.triggered", prom["parhipd_live_repartitions_triggered_total"], 1)
	o.set("live.swaps", prom["parhipd_live_swaps_total"], 1)
	o.set("live.swap_ratio", perRun("parhipd_live_swaps_total", "parhipd_live_repartitions_triggered_total"), 1)
	o.set("mpi.msgs", perRun("parhipd_comm_messages_total", "parhipd_core_runs_total"), int(runs))
	o.set("mpi.bytes", perRun("parhipd_comm_bytes_total", "parhipd_core_runs_total"), int(runs))
	o.set("sclp.supersteps", perRun("parhipd_sclp_supersteps_total", "parhipd_core_runs_total"), int(runs))
	o.set("sclp.propose_s", perRun("parhipd_sclp_propose_seconds_total", "parhipd_core_runs_total"), int(runs))
	o.set("sclp.commit_s", perRun("parhipd_sclp_commit_seconds_total", "parhipd_core_runs_total"), int(runs))
	o.set("sclp.busy_s", perRun("parhipd_sclp_worker_busy_seconds_total", "parhipd_core_runs_total"), int(runs))
	o.set("sclp.utilization", prom["parhipd_sclp_propose_utilization"], 1)

	var stats struct {
		Core struct {
			Runs      int64   `json:"runs"`
			CoarsenMS float64 `json:"coarsen_ms"`
			InitMS    float64 `json:"init_ms"`
			RefineMS  float64 `json:"refine_ms"`
		} `json:"core"`
	}
	if err := c.do(http.MethodGet, "/v1/stats", "", nil, &stats); err != nil {
		return err
	}
	n := float64(max(stats.Core.Runs, 1))
	o.set("core.coarsen_s", stats.Core.CoarsenMS/1e3/n, int(stats.Core.Runs))
	o.set("core.init_s", stats.Core.InitMS/1e3/n, int(stats.Core.Runs))
	o.set("core.refine_s", stats.Core.RefineMS/1e3/n, int(stats.Core.Runs))

	var raw json.RawMessage
	if err := c.do(http.MethodGet, "/v1/graphs/"+ls.id+"/live/trace", "", nil, &raw); err != nil {
		return err
	}
	evs, err := parseChrome(raw)
	if err != nil {
		return err
	}
	durs := map[string][]float64{}
	for _, e := range evs {
		durs[e.Name] = append(durs[e.Name], e.Dur)
	}
	o.set("live.apply_batch_us", median(durs["live.apply_batch"]), len(durs["live.apply_batch"]))
	o.set("live.materialize_s", median(durs["live.materialize"])/1e6, len(durs["live.materialize"]))
	o.set("live.swap_s", median(durs["live.swap"])/1e6, len(durs["live.swap"]))
	// The live tracer's clock starts while the enable request is served,
	// so its spans sit up to that request's latency later than shown.
	op := o.spans.newOp()
	root := o.spans.add(op, 0, "bench.live_session", "bench", ls.enabled, end)
	o.spans.merge(op, root, "live ", ls.enabled, evs)
	for _, name := range partitionOnlyLayer {
		o.set(name, 0, 0)
	}
	return nil
}

// scrapeMetrics reads the unlabelled samples of GET /metrics.
func scrapeMetrics(c *client) (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
