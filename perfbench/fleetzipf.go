package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/limits"
	"repro/internal/qtree"
	"repro/internal/service"
	"repro/internal/sqlparser"
	"repro/internal/university"
)

// fleet-zipf shape. Keys are (template, constant) pairs over the
// university schema; their popularity follows a Zipf law over a
// seed-derived ranking, so the seed decides which keys are hot.
//
// The traffic parameters below (constants per template, Zipf exponent,
// prepopulated keys, memory cache size, analyze share) are assumptions,
// not measurements: no record of a grading service's traffic exists to
// derive them from. They give the traffic the workload is meant to
// have (many cheap keys, heavy repeats, a memory cache smaller than the
// working set, a small uncached analyze share); README.md says which
// conclusions depend on them.
const (
	fleetMembers = 3
	// fleetConsts constants per template give len(fleetTemplates) ×
	// fleetConsts distinct keys.
	fleetConsts = 500
	fleetZipfS  = 1.1
	// fleetPrepopulate top-ranked keys are solved into the members'
	// disk caches by an untimed phase before set-up.
	fleetPrepopulate = 1200
	// fleetMemCacheBytes is each member's memory cache
	// (Limits.MaxCacheBytes): far smaller than the key working set, so
	// the disk tier serves a share of hits.
	fleetMemCacheBytes = 256 << 10
	// fleetAnalyzeShare of requests are /v1/analyze, spread evenly over
	// the 1- and 2-join Table I cells; the daemon never caches them.
	fleetAnalyzeShare = 0.06
	// fleetClients is the number of client workers (each keeps one
	// keep-alive connection per member).
	fleetClients = 2
	// fleetSetups is how many times a run opens the fleet over the
	// populated cache directories; setup_s is their median.
	fleetSetups = 41
	// fleetSample generate bodies are byte-compared with the library
	// path.
	fleetSample = 200
)

// fleetTemplates are cheap-to-solve university queries with one
// constant slot each, and the foreign keys their schema carries.
var fleetTemplates = []struct {
	fk  int
	sql string
}{
	{0, "SELECT * FROM instructor WHERE salary > %d"},
	{1, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > %d"},
	{0, "SELECT * FROM course WHERE credits >= %d"},
	{0, "SELECT dept_name, SUM(salary) FROM instructor WHERE salary < %d GROUP BY dept_name"},
	{5, "SELECT * FROM student s, takes tk WHERE s.id = tk.id AND tk.grade > %d"},
	{1, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND t.course_id = %d"},
	{3, "SELECT * FROM course c, department d WHERE c.dept_name = d.dept_name AND d.budget > %d"},
	{0, "SELECT * FROM section WHERE year = %d"},
}

// fleetKeys renders every key's request text once.
type fleetKeys struct {
	ddl  []string // per template
	sqls []string // per key
	tmpl []int    // per key
	// analyze bodies: the 1–2-join Table I cells.
	analyze [][]byte
	bodies  map[int][]byte
}

func newFleetKeys() (*fleetKeys, error) {
	k := &fleetKeys{bodies: make(map[int][]byte)}
	for _, t := range fleetTemplates {
		k.ddl = append(k.ddl, university.Schema(t.fk).String())
	}
	for ti, t := range fleetTemplates {
		for c := 0; c < fleetConsts; c++ {
			k.sqls = append(k.sqls, fmt.Sprintf(t.sql, c*250))
			k.tmpl = append(k.tmpl, ti)
		}
	}
	tableI := university.TableIQueries()
	for _, bq := range tableI[:2] { // Q1, Q2: one and two joins
		for _, fk := range bq.FKCounts {
			body, err := json.Marshal(service.AnalyzeRequest{GenerateRequest: service.GenerateRequest{
				DDL: university.Schema(fk).String(), Query: bq.SQL}})
			if err != nil {
				return nil, err
			}
			k.analyze = append(k.analyze, body)
		}
	}
	return k, nil
}

func (k *fleetKeys) n() int { return len(k.sqls) }

func (k *fleetKeys) body(key int) []byte {
	if b, ok := k.bodies[key]; ok {
		return b
	}
	b, _ := json.Marshal(service.GenerateRequest{DDL: k.ddl[k.tmpl[key]], Query: k.sqls[key]})
	k.bodies[key] = b
	return b
}

// member is one in-process xdatad fleet member on a loopback listener.
type member struct {
	addr string
	svc  *service.Server
	srv  *http.Server
	done chan struct{}
}

type cluster struct{ members []*member }

// startCluster starts one fleet member per address, each over its own
// cache directory, with the daemon's defaults except the memory cache
// cap.
func startCluster(addrs, dirs []string) (*cluster, error) {
	lim := limits.Default()
	lim.MaxCacheBytes = fleetMemCacheBytes
	c := &cluster{}
	for i, addr := range addrs {
		ln, err := listenRetry(addr)
		if err != nil {
			c.stop()
			return nil, err
		}
		cfg := service.Config{Advertise: addr, CacheDir: dirs[i], Limits: lim, MaxConcurrent: runtime.NumCPU()}
		for j, a := range addrs {
			if j != i {
				cfg.Peers = append(cfg.Peers, a)
			}
		}
		svc, err := service.NewFleet(cfg)
		if err != nil {
			ln.Close()
			c.stop()
			return nil, err
		}
		if w := svc.DurableWarning(); w != "" {
			ln.Close()
			svc.Close()
			c.stop()
			return nil, fmt.Errorf("member %s: %s", addr, w)
		}
		m := &member{addr: addr, svc: svc, srv: &http.Server{Handler: svc.Handler()}, done: make(chan struct{})}
		go func() {
			defer close(m.done)
			_ = m.srv.Serve(ln)
		}()
		c.members = append(c.members, m)
	}
	return c, nil
}

// listenRetry binds addr, retrying briefly: a restarted member must
// come back on its old address, because the address names it on the
// consistent-hash ring.
func listenRetry(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < 100; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}

// waitReady polls every member's /readyz until all answer 200.
func (c *cluster) waitReady(client *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, m := range c.members {
		for {
			resp, err := client.Get("http://" + m.addr + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("member %s not ready: %v", m.addr, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stop drains and closes every member and waits for its server
// goroutine to end.
func (c *cluster) stop() {
	for _, m := range c.members {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = m.svc.Drain(ctx)
		_ = m.srv.Shutdown(ctx)
		cancel()
		<-m.done
		m.svc.Close()
	}
	c.members = nil
}

// counters sums nothing: it returns each member's /statsz snapshot.
func (c *cluster) counters(client *http.Client) ([]service.Counters, error) {
	out := make([]service.Counters, len(c.members))
	for i, m := range c.members {
		resp, err := client.Get("http://" + m.addr + "/statsz")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fleetReq is one request.
type fleetReq struct {
	member  int
	key     int // -1 for analyze
	body    []byte
	analyze bool
	sample  bool
}

// fleetResp is what the client saw.
type fleetResp struct {
	lat      time.Duration
	status   int
	err      error
	body     []byte // kept for sampled requests only
	servedBy string
	from     string
}

// fleetEnv is one fleet-zipf run's shared state.
type fleetEnv struct {
	r       *run
	keys    *fleetKeys
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int // popularity rank → key
	addrs   []string
	dirs    []string
	cl      *cluster
	clients []*http.Client
	ctl     *http.Client
}

// closeIdle drops the clients' keep-alive connections, which a stopped
// member leaves dead.
func (e *fleetEnv) closeIdle() {
	for _, c := range append(e.clients, e.ctl) {
		c.CloseIdleConnections()
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// popularity ranks the keys: rank i belongs to template i mod T, so
// every seed spreads the hot keys evenly over the templates and only
// the constants each template's hot keys carry depend on the seed.
func popularity(rng *rand.Rand) []int {
	t := len(fleetTemplates)
	consts := make([][]int, t)
	for i := range consts {
		consts[i] = rng.Perm(fleetConsts)
	}
	perm := make([]int, t*fleetConsts)
	for i := range perm {
		perm[i] = (i%t)*fleetConsts + consts[i%t][i/t]
	}
	return perm
}

// draw picks one request's target: a Zipf-ranked generate key, or an
// analyze cell with probability fleetAnalyzeShare.
func (e *fleetEnv) draw() fleetReq {
	rq := fleetReq{member: e.rng.Intn(fleetMembers)}
	if e.rng.Float64() < fleetAnalyzeShare {
		rq.analyze, rq.key = true, -1
		rq.body = e.keys.analyze[e.rng.Intn(len(e.keys.analyze))]
		return rq
	}
	rq.key = e.perm[e.zipf.Uint64()]
	rq.body = e.keys.body(rq.key)
	return rq
}

// send issues one request through client and reads the whole answer.
func (e *fleetEnv) send(client *http.Client, rq *fleetReq) fleetResp {
	path := "/v1/generate"
	if rq.analyze {
		path = "/v1/analyze"
	}
	var out fleetResp
	resp, err := client.Post("http://"+e.addrs[rq.member]+path, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		out.err = err
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status, out.err = resp.StatusCode, err
	if out.status == http.StatusOK && !rq.analyze {
		var dec struct {
			ServedBy   string `json:"served_by"`
			ServedFrom string `json:"served_from"`
		}
		if json.Unmarshal(body, &dec) == nil {
			out.servedBy, out.from = dec.ServedBy, dec.ServedFrom
		}
	}
	if rq.sample {
		out.body = body
	}
	return out
}

func (resp fleetResp) ok() bool { return resp.err == nil && resp.status == http.StatusOK }

// runFleetZipf is the fleet-zipf workload: a closed loop of two client
// workers against 3 in-process xdatad members whose disk caches were
// populated by an untimed earlier phase (see README.md for why the loop
// is closed).
func runFleetZipf(r *run) error {
	keys, err := newFleetKeys()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	e := &fleetEnv{r: r, keys: keys, rng: rng, ctl: newClient()}
	e.perm = popularity(rng)
	e.zipf = rand.NewZipf(rng, fleetZipfS, 1, uint64(keys.n()-1))
	for i := 0; i < fleetClients; i++ {
		e.clients = append(e.clients, newClient())
	}
	defer e.closeIdle()
	for i := 0; i < fleetMembers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.addrs = append(e.addrs, ln.Addr().String())
		ln.Close()
		e.dirs = append(e.dirs, filepath.Join(r.workDir, fmt.Sprintf("member%d", i)))
	}
	t0 := time.Now()
	if err := e.prepopulate(); err != nil {
		return err
	}
	r.note("prepopulated %d keys in %.2f s (untimed)", fleetPrepopulate, time.Since(t0).Seconds())
	e.closeIdle()
	// Set-up: open the fleet over the populated directories (durable
	// recovery) until every member answers /readyz.
	cl, err := timeSetup(r, fleetSetups, func() (*cluster, error) {
		cl, err := startCluster(e.addrs, e.dirs)
		if err != nil {
			return nil, err
		}
		if err := cl.waitReady(e.ctl); err != nil {
			cl.stop()
			return nil, err
		}
		return cl, nil
	}, func(cl *cluster) {
		cl.stop()
		e.closeIdle()
	})
	if err != nil {
		return err
	}
	e.cl = cl
	defer func() {
		if e.cl != nil {
			e.cl.stop()
		}
	}()
	if r.trace {
		return e.traced()
	}
	return e.untraced()
}

// prepopulate solves the top-ranked keys through a first incarnation of
// the fleet, so they land in their owners' disk caches, then stops it.
func (e *fleetEnv) prepopulate() error {
	cl, err := startCluster(e.addrs, e.dirs)
	if err != nil {
		return err
	}
	defer cl.stop()
	if err := cl.waitReady(e.ctl); err != nil {
		return err
	}
	work := make(chan fleetReq)
	errs := make(chan error, fleetClients)
	var wg sync.WaitGroup
	for w := 0; w < fleetClients; w++ {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			for rq := range work {
				if resp := e.send(client, &rq); !resp.ok() {
					errs <- fmt.Errorf("prepopulate key %d: status %d: %v", rq.key, resp.status, resp.err)
					for range work {
					}
					return
				}
			}
		}(e.clients[w])
	}
	for rank := 0; rank < fleetPrepopulate; rank++ {
		key := e.perm[rank]
		work <- fleetReq{member: rank % fleetMembers, key: key, body: e.keys.body(key)}
	}
	close(work)
	wg.Wait()
	close(errs)
	return <-errs
}

// sent is one request and what the client saw.
type sent struct {
	rq   fleetReq
	resp fleetResp
}

// loopResult is what the closed loop saw. It keeps one latency per
// request, and whole records only of failed and sampled requests, so
// the benchmark's own memory does not grow with the fleet's throughput
// and move peak_rss_mb.
type loopResult struct {
	gen, analyze    latencies
	completed       int
	oneHop, twoHops int // generate requests answered by the entry member or by its peer
	failed, samples []sent
}

func (res *loopResult) add(e *fleetEnv, x sent, slice int) {
	if x.rq.analyze {
		res.analyze.add(x.resp.lat, slice)
	} else {
		res.gen.add(x.resp.lat, slice)
	}
	if !x.resp.ok() {
		res.failed = append(res.failed, x)
		return
	}
	res.completed++
	if x.rq.sample {
		res.samples = append(res.samples, x)
	}
	if !x.rq.analyze {
		if x.resp.servedBy == e.addrs[x.rq.member] {
			res.oneHop++
		} else {
			res.twoHops++
		}
	}
}

func (res *loopResult) merge(o *loopResult) {
	res.gen.merge(o.gen)
	res.analyze.merge(o.analyze)
	res.completed += o.completed
	res.oneHop += o.oneHop
	res.twoHops += o.twoHops
	res.failed = append(res.failed, o.failed...)
	res.samples = append(res.samples, o.samples...)
}

// closedLoop runs the client workers with no think time for d of
// measured time: each sends its next request as soon as its previous
// one is answered, so the completion rate is the highest rate the
// fleet sustains for them. The loop runs in host-speed slices: after
// each speedSlice the workers finish their requests in flight and the
// reference job is measured with the fleet idle (see hostspeed.go).
// Requests are drawn in one sequence as the workers ask for them and
// timed on the process's CPU clock from when they are sent. sample of
// the first 10×sample generate requests are kept for checkSample. It
// returns the merged result, the loop's wall time, and its CPU time in
// ref units.
func (e *fleetEnv) closedLoop(d time.Duration, sample int) (*loopResult, time.Duration, float64) {
	h := e.r.speed
	h.measure() // closes the set-up's slice
	sampled := make(map[int]bool)
	for _, k := range e.rng.Perm(10 * sample)[:sample] {
		sampled[k] = true
	}
	var mu sync.Mutex
	gens := 0
	draw := func() fleetReq {
		mu.Lock()
		defer mu.Unlock()
		rq := e.draw()
		if !rq.analyze {
			rq.sample = sampled[gens]
			gens++
		}
		return rq
	}
	res := &loopResult{}
	var elapsed time.Duration
	var slices []time.Duration
	for elapsed < d {
		k := h.slice()
		done := make([]loopResult, fleetClients)
		var wg sync.WaitGroup
		start, cpu0 := time.Now(), cpuNow()
		deadline := start.Add(speedSlice)
		for w := 0; w < fleetClients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					rq := draw()
					t0 := cpuNow()
					resp := e.send(e.clients[w], &rq)
					resp.lat = cpuNow() - t0
					done[w].add(e, sent{rq, resp}, k)
				}
			}(w)
		}
		wg.Wait()
		elapsed += time.Since(start)
		slices = append(slices, cpuNow()-cpu0)
		for w := range done {
			res.merge(&done[w])
		}
		h.measure()
	}
	refs := 0.0
	for k, el := range slices {
		refs += ms(el) / h.unit(k)
	}
	return res, elapsed, refs
}

// untraced measures the end-to-end metrics on the closed loop and
// checks a sample of its bodies against the library path.
func (e *fleetEnv) untraced() error {
	r := e.r
	h := r.speed
	s, elapsed, refs := e.closedLoop(r.seconds, fleetSample)
	r.attempted = len(s.gen.ms) + len(s.analyze.ms)
	r.failed = len(s.failed)
	for _, x := range s.failed {
		r.problem("%s request to %s: status %d: %v", map[bool]string{true: "analyze", false: "generate"}[x.rq.analyze],
			e.addrs[x.rq.member], x.resp.status, x.resp.err)
	}
	r.note("client: %d requests, %d ok, %d failed; generate answered in one hop %d, two hops %d",
		r.attempted, s.completed, r.failed, s.oneHop, s.twoHops)
	r.note("closed loop: %.2f s measured (%.1f ref), %.2f queries/s", elapsed.Seconds(), refs, float64(s.completed)/elapsed.Seconds())
	r.set("complete_share", float64(s.completed)/float64(r.attempted))
	r.set("queries_per_ref", float64(s.completed)/refs)
	r.pct("suite_p50_ref", s.gen, 0.50, h)
	r.pct("suite_p90_ref", s.gen, 0.90, h)
	r.pct("report_p50_ref", s.analyze, 0.50, h)
	var all latencies
	all.merge(s.gen)
	all.merge(s.analyze)
	r.pct("serve_p99_ref", all, 0.99, h)
	h.note(r)
	e.checkSample(s.samples)
	return nil
}

// statsTimes matches the two wall-clock fields of a suite's stats, the
// only bytes of a body that legitimately differ between two solves.
var statsTimes = regexp.MustCompile(`"(SolveTime|TotalTime)":\d+`)

// decorations matches the fleet fields the daemon splices outside the
// cached bytes.
var decorations = regexp.MustCompile(`(,"served_by":"[^"]*")?(,"served_from":"[^"]*")?(,"degraded":true)?}\s*$`)

// checkSample byte-compares the sampled bodies, minus decorations, with
// the library-path encoding of the same key.
func (e *fleetEnv) checkSample(samples []sent) {
	r := e.r
	budget, opts, lim := daemonDefaults()
	want := make(map[int][]byte)
	checked := 0
	for _, x := range samples {
		rq, resp := x.rq, x.resp
		lib, ok := want[rq.key]
		if !ok {
			var err error
			lib, err = libraryBody(e.keys.ddl[e.keys.tmpl[rq.key]], e.keys.sqls[rq.key], budget, opts, lim)
			if err != nil {
				r.failed++
				r.problem("library path for %q: %v", e.keys.sqls[rq.key], err)
				continue
			}
			want[rq.key] = lib
		}
		got := decorations.ReplaceAll(resp.body, []byte("}"))
		got = statsTimes.ReplaceAll(got, []byte(`"$1":0`))
		checked++
		if !bytes.Equal(got, lib) {
			r.failed++
			r.problem("body for %q (served by %s from %q) differs from the library path:\n  got:  %.300s\n  want: %.300s",
				e.keys.sqls[rq.key], resp.servedBy, resp.from, got, lib)
		}
	}
	r.note("byte-compared %d sampled bodies (%d distinct keys) with the library path", checked, len(want))
}

// libraryBody is the daemon's 200 body for a key, built on the library
// path: parse, build, generate under daemon defaults, encode as
// /v1/generate does, with the stats' wall-clock fields zeroed.
func libraryBody(ddl, sql string, budget time.Duration, opts core.Options, lim limits.Limits) ([]byte, error) {
	sch, err := sqlparser.ParseSchemaLimits(ddl, lim)
	if err != nil {
		return nil, err
	}
	stmt, err := sqlparser.ParseQueryLimits(sql, lim)
	if err != nil {
		return nil, err
	}
	q, err := qtree.Build(sch, stmt)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	suite, err := core.NewGenerator(q, opts).GenerateContext(ctx)
	if err != nil {
		return nil, err
	}
	resp := service.GenerateResponse{
		Complete: len(suite.Incomplete) == 0,
		Datasets: make([]service.DatasetJSON, 0, len(suite.Datasets)),
		Stats:    suite.Stats,
	}
	resp.Stats.SolveTime, resp.Stats.TotalTime = 0, 0
	if suite.Original != nil {
		resp.Original = &service.DatasetJSON{Purpose: suite.Original.Purpose, Inserts: suite.Original.SQLInserts(sch)}
	}
	for _, ds := range suite.Datasets {
		resp.Datasets = append(resp.Datasets, service.DatasetJSON{Purpose: ds.Purpose, Inserts: ds.SQLInserts(sch)})
	}
	for _, sk := range suite.Skipped {
		resp.Skipped = append(resp.Skipped, service.SkipJSON{Purpose: sk.Purpose, Reason: sk.Reason})
	}
	return json.Marshal(resp)
}

// tier names where one traced request was answered.
type tier int

const (
	tierMemory tier = iota
	tierDisk
	tierSolve
	tierAnalyze
)

// tracedReq is one request of the traced serial phase.
type tracedReq struct {
	lat       time.Duration
	tier      tier
	forwarded bool
	local     bool // entry member owns the key
	inproc    time.Duration
}

// traced reports the per-layer metrics. It drives one request at a
// time, attributing each to a tier and hop from the deltas of every
// member's /statsz and from the served_by/served_from fields, and
// times the layers the daemon runs on every request (parse, build,
// content key, a memory-cache read) in process on the same inputs.
// Requests alternate between traced (statsz snapshots and in-process
// timings around them) and untraced; the difference is the tracing
// overhead. The durable store is then timed directly on a copy of each
// member's cache directory.
func (e *fleetEnv) traced() error {
	r := e.r
	tr := r.tracer
	_, opts, lim := daemonDefaults()
	r.set("bench.ref_job_ms", r.speed.points[0])
	client := e.clients[0]
	before, err := e.cl.counters(e.ctl)
	if err != nil {
		return err
	}
	first := before
	local := fleet.NewSuiteCache(0)
	var reqs []tracedReq
	var plain []float64
	analyze := 0
	deadline := time.Now().Add(r.seconds)
	for opID := int32(0); time.Now().Before(deadline); opID++ {
		rq := e.draw()
		rq.sample = true
		if rq.analyze {
			analyze++
		}
		if opID%2 == 1 {
			start := time.Now()
			resp := e.send(client, &rq)
			plain = append(plain, ms(time.Since(start)))
			r.attempted++
			if !resp.ok() {
				r.failed++
				r.problem("request status %d: %v", resp.status, resp.err)
			}
			if before, err = e.cl.counters(e.ctl); err != nil {
				return err
			}
			continue
		}
		root := tr.begin("op", -1, opID)
		var key fleet.Key
		if !rq.analyze {
			sp := tr.begin("sqlparser.parse", root, opID)
			sch, err1 := sqlparser.ParseSchemaLimits(e.keys.ddl[e.keys.tmpl[rq.key]], lim)
			stmt, err2 := sqlparser.ParseQueryLimits(e.keys.sqls[rq.key], lim)
			tr.end(sp)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("parse %q: %v %v", e.keys.sqls[rq.key], err1, err2)
			}
			sp = tr.begin("qtree.build", root, opID)
			q, err := qtree.Build(sch, stmt)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("fleet.key", root, opID)
			key = fleet.ContentKey(sch, q, opts)
			tr.end(sp)
		}
		sp := tr.begin("service.http", root, opID)
		start := time.Now()
		resp := e.send(client, &rq)
		lat := time.Since(start)
		tr.end(sp)
		tr.end(root)
		r.attempted++
		if !resp.ok() {
			r.failed++
			r.problem("request status %d: %v", resp.status, resp.err)
		}
		after, err := e.cl.counters(e.ctl)
		if err != nil {
			return err
		}
		tq := tracedReq{lat: lat, tier: tierAnalyze}
		var d service.Counters
		for i := range after {
			addDelta(&d, after[i], before[i])
		}
		before = after
		if !rq.analyze {
			tq.forwarded = d.Forwards > 0
			tq.local = resp.servedBy == e.addrs[rq.member]
			switch {
			case d.CacheCounters.DiskHits > 0:
				tq.tier = tierDisk
			case d.CacheCounters.Hits > 0:
				tq.tier = tierMemory
			default:
				tq.tier = tierSolve
			}
			if (tq.tier == tierDisk) != (resp.from == "disk") {
				r.problem("request %d: statsz says tier %d, body says served_from %q", opID, tq.tier, resp.from)
			}
			if tq.forwarded == tq.local {
				r.problem("request %d: statsz forwards %d disagree with served_by %s (entry %s)", opID, d.Forwards, resp.servedBy, e.addrs[rq.member])
			}
			if tq.tier == tierMemory && tq.local {
				// The same hit in process: what the handler does
				// around the cache read, minus HTTP.
				payload := append([]byte(nil), resp.body...)
				local.Put(key, payload)
				t0 := time.Now()
				sch, _ := sqlparser.ParseSchemaLimits(e.keys.ddl[e.keys.tmpl[rq.key]], lim)
				stmt, _ := sqlparser.ParseQueryLimits(e.keys.sqls[rq.key], lim)
				q, _ := qtree.Build(sch, stmt)
				_, _, _ = local.GetTier(fleet.ContentKey(sch, q, opts))
				tq.inproc = time.Since(t0)
			}
		}
		reqs = append(reqs, tq)
	}
	last, err := e.cl.counters(e.ctl)
	if err != nil {
		return err
	}
	var total service.Counters
	for i := range last {
		addDelta(&total, last[i], first[i])
	}
	e.reportTraced(reqs, plain, total, analyze)
	e.cl.stop()
	e.cl = nil
	return e.timeDurable()
}

// addDelta adds the counters a request moved on one member.
func addDelta(d *service.Counters, after, before service.Counters) {
	d.Received += after.Received - before.Received
	d.Shed += after.Shed - before.Shed
	d.Partial += after.Partial - before.Partial
	d.Forwards += after.Forwards - before.Forwards
	d.CacheCounters.Hits += after.CacheCounters.Hits - before.CacheCounters.Hits
	d.CacheCounters.DiskHits += after.CacheCounters.DiskHits - before.CacheCounters.DiskHits
}

func (e *fleetEnv) reportTraced(reqs []tracedReq, plain []float64, total service.Counters, analyze int) {
	r := e.r
	var gen, hits, disk, fwd int
	var localHit, fwdHit, miss, inproc, traced []float64
	for _, q := range reqs {
		traced = append(traced, ms(q.lat))
		if q.tier == tierAnalyze {
			continue
		}
		gen++
		if q.forwarded {
			fwd++
		}
		switch q.tier {
		case tierMemory:
			hits++
			if q.local {
				localHit = append(localHit, ms(q.lat))
				inproc = append(inproc, ms(q.inproc))
			} else {
				fwdHit = append(fwdHit, ms(q.lat))
			}
		case tierDisk:
			hits++
			disk++
		case tierSolve:
			miss = append(miss, ms(q.lat))
		}
	}
	// Ratios from the /statsz sums over the whole phase, with forwarded
	// requests subtracted: a forwarded request is received by two
	// members but looked up in one cache.
	lookups := float64(total.Received - total.Forwards - int64(analyze))
	r.set("fleet.cache_hit_ratio", ratio(float64(total.CacheCounters.Hits+total.CacheCounters.DiskHits), lookups))
	r.set("fleet.disk_hit_ratio", ratio(float64(total.CacheCounters.DiskHits), lookups))
	r.set("fleet.forward_ratio", ratio(float64(fwd), float64(gen)))
	r.set("fleet.hit_ms", median(localHit))
	r.set("fleet.miss_ms", median(miss))
	r.set("fleet.forward_extra_ms", median(fwdHit)-median(append([]float64(nil), localHit...)))
	total2, _ := r.tracer.layerTimes()
	n := float64(len(reqs))
	r.set("fleet.key_us", ms(total2["fleet.key"])*1000/float64(gen))
	r.set("sqlparser.parse_ms", ms(total2["sqlparser.parse"])/float64(gen))
	r.set("qtree.build_ms", ms(total2["qtree.build"])/float64(gen))
	r.set("service.http_overhead_us", (median(append([]float64(nil), localHit...))-median(inproc))*1000)
	r.set("service.shed", float64(total.Shed))
	r.set("service.partial", float64(total.Partial))
	overhead := ratio(mean(traced)-mean(plain), mean(plain)) * 100
	r.set("bench.trace_overhead_pct", overhead)
	r.note("design check: %.1f%% of generate requests were cache hits (%.1f%% from disk)", 100*ratio(float64(hits), float64(gen)), 100*ratio(float64(disk), float64(gen)))
	r.note("traced serial phase: %.0f traced + %d untraced requests; generate %d (memory+disk hits %d, disk %d, solved %d, forwarded %d); client-side hit ratio %.3f",
		n, len(plain), gen, hits, disk, len(miss), fwd, ratio(float64(hits), float64(gen)))
	r.note("tracing overhead: traced mean request %.4f ms vs untraced %.4f ms (%+.2f%%)", mean(traced), mean(plain), overhead)
}

// timeDurable times durable.Open, Store.Get and Store.Put directly on
// a copy of each member's cache directory.
func (e *fleetEnv) timeDurable() error {
	r := e.r
	var opens, gets, puts []float64
	recovered := int64(0)
	for i, dir := range e.dirs {
		cp := filepath.Join(e.r.workDir, fmt.Sprintf("copy%d", i))
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		sp := r.tracer.begin("durable.open", -1, -1)
		t0 := time.Now()
		st, err := durable.Open(cp, durable.Options{MaxBytes: limits.Default().MaxDiskCacheBytes})
		opens = append(opens, ms(time.Since(t0)))
		r.tracer.end(sp)
		if err != nil {
			return err
		}
		recovered += st.Counters().RecoveredRecords
		keys := liveKeys(st, e.keys)
		var payload []byte
		for _, key := range keys {
			sp := r.tracer.begin("durable.get", -1, -1)
			t0 := time.Now()
			_, body, ok := st.Get(key)
			gets = append(gets, ms(time.Since(t0))*1000)
			r.tracer.end(sp)
			if ok && payload == nil {
				payload = body
			}
		}
		for j := 0; j < 200 && payload != nil; j++ {
			sp := r.tracer.begin("durable.put", -1, -1)
			t0 := time.Now()
			st.Put(fmt.Sprintf("perfbench-put-%d-%d", i, j), http.StatusOK, payload)
			puts = append(puts, ms(time.Since(t0))*1000)
			r.tracer.end(sp)
		}
		st.Close()
	}
	r.set("durable.open_ms", median(opens))
	r.set("durable.recovered_records", float64(recovered))
	r.set("durable.get_us", median(gets))
	r.set("durable.put_us", median(puts))
	return nil
}

// liveKeys returns the content keys of every key the fleet could have
// stored that the store holds.
func liveKeys(st *durable.Store, keys *fleetKeys) []string {
	_, opts, lim := daemonDefaults()
	var out []string
	for k := 0; k < keys.n() && len(out) < 200; k++ {
		sch, err := sqlparser.ParseSchemaLimits(keys.ddl[keys.tmpl[k]], lim)
		if err != nil {
			continue
		}
		q, err := qtree.BuildSQL(sch, keys.sqls[k])
		if err != nil {
			continue
		}
		key := fleet.ContentKey(sch, q, opts).String()
		if _, _, ok := st.Get(key); ok {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
