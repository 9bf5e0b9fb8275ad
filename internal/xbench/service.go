package xbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/internal/service"
)

// ServiceBench is the daemon-path measurement pinned in BENCH_<n>.json
// alongside the library-path headline: the same university-style
// workload pushed through xdatad's full HTTP stack (admission,
// clamping, JSON marshalling), with the /statsz counters snapshotted
// at the end so the trajectory records service behavior (admitted,
// shed, drained, panics recovered, budget expired) and not just wall
// time.
type ServiceBench struct {
	Name string `json:"name"`
	// Concurrency is the number of client goroutines.
	Concurrency int `json:"concurrency"`
	// Requests is the total number of /v1/generate requests issued.
	Requests int `json:"requests"`
	// FleetNodes is the number of fleet members the storm was spread
	// over (0 = one standalone daemon, no routing).
	FleetNodes int `json:"fleet_nodes,omitempty"`
	// NsPerRequest is mean wall time per request (whole-storm wall
	// time divided by Requests; concurrent requests overlap).
	NsPerRequest int64 `json:"ns_per_request"`
	TotalNs      int64 `json:"total_ns"`
	// Counters is the /statsz snapshot after the storm and drain —
	// summed across members in fleet mode, so the forward/cache/degrade
	// traffic of the whole fleet is pinned, not one node's view.
	Counters service.Counters `json:"counters"`
}

// addCounters sums one member's /statsz counters into dst. It walks the
// struct by reflection and adds every integer field at any depth (the
// embedded fleet counters, engine.ExecCounts, the durable tier's
// counters), so a counter added to service.Counters is summed without
// an edit here; gauges and epochs are summed too, as fleet totals.
// Booleans (Draining, Durable.Enabled) report whether any member had
// them set; strings keep dst's value.
func addCounters(dst *service.Counters, c service.Counters) {
	addFields(reflect.ValueOf(dst).Elem(), reflect.ValueOf(c))
}

func addFields(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Bool:
		dst.SetBool(dst.Bool() || src.Bool())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			if dst.Field(i).CanSet() {
				addFields(dst.Field(i), src.Field(i))
			}
		}
	}
}

// serviceBenchDDL/SQL: the Example-2 style workload used by the
// service benchmark (kept small so the number measures service
// overhead plus a realistic solve, not a stress solve).
const serviceBenchDDL = `
CREATE TABLE instructor (
	id INT PRIMARY KEY,
	name VARCHAR(20) NOT NULL,
	dept_name VARCHAR(20) NOT NULL,
	salary INT NOT NULL
);
CREATE TABLE teaches (
	id INT NOT NULL,
	course_id INT NOT NULL,
	PRIMARY KEY (id, course_id)
);
`

const serviceBenchSQL = `SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50`

// RunServiceBench starts fleetNodes in-process xdatad members (one
// standalone daemon when fleetNodes < 2) on loopback listeners, fires
// requests /v1/generate calls from concurrency client goroutines
// spread round-robin over every member, drains the servers, and
// reports timing plus the final counters (summed across members). Any
// non-200 response fails the benchmark: the workload is sized under
// the admission queue, so shed or partial responses indicate a
// service regression. In fleet mode the workload cycles a few query
// variants so consistent-hash forwarding and the cross-request suite
// cache both light up in the pinned counters.
func RunServiceBench(ctx context.Context, concurrency, requests, fleetNodes int) (ServiceBench, error) {
	if concurrency <= 0 {
		concurrency = 8
	}
	if requests <= 0 {
		requests = 32
	}
	if fleetNodes < 2 {
		fleetNodes = 1
	}
	b := ServiceBench{Name: "service_generate", Concurrency: concurrency, Requests: requests}
	if fleetNodes > 1 {
		b.Name = "service_generate_fleet"
		b.FleetNodes = fleetNodes
	}

	listeners := make([]net.Listener, fleetNodes)
	addrs := make([]string, fleetNodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return b, fmt.Errorf("xbench: service listen: %w", err)
		}
		defer ln.Close()
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	baseCfg := service.Config{
		MaxQueue:  2 * requests, // never shed: this measures the happy path
		QueueWait: time.Minute,
		// Every member gets a full complement of slots: on a small host
		// the GOMAXPROCS default would let entry nodes occupy all slots
		// and starve the forwards they are waiting on — a degraded-mode
		// scenario the chaos tests cover; this measures the happy path.
		MaxConcurrent: concurrency,
	}
	servers := make([]*service.Server, fleetNodes)
	for i := range servers {
		if fleetNodes == 1 {
			servers[i] = service.New(baseCfg)
			continue
		}
		cfg := baseCfg
		cfg.Advertise = addrs[i]
		for j, a := range addrs {
			if j != i {
				cfg.Peers = append(cfg.Peers, a)
			}
		}
		svc, err := service.NewFleet(cfg)
		if err != nil {
			return b, fmt.Errorf("xbench: fleet node %d: %w", i, err)
		}
		servers[i] = svc
	}
	httpSrvs := make([]*http.Server, fleetNodes)
	for i, svc := range servers {
		httpSrvs[i] = &http.Server{Handler: svc.Handler()}
		serveDone := make(chan struct{})
		go func(srv *http.Server, ln net.Listener) {
			defer close(serveDone)
			_ = srv.Serve(ln)
		}(httpSrvs[i], listeners[i])
		defer func(srv *http.Server, svc *service.Server, done chan struct{}) {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutCtx)
			<-done
			svc.Close()
		}(httpSrvs[i], svc, serveDone)
	}

	// One query per member plus one: every node owns some traffic with
	// high probability, and repeats guarantee cache hits.
	queries := []string{serviceBenchSQL}
	if fleetNodes > 1 {
		for v := 0; v < fleetNodes; v++ {
			queries = append(queries, fmt.Sprintf(
				`SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > %d`, 60+v))
		}
	}
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		body, err := json.Marshal(map[string]string{"ddl": serviceBenchDDL, "query": q})
		if err != nil {
			return b, err
		}
		bodies[i] = body
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	work := make(chan int, requests)
	for i := 0; i < requests; i++ {
		work <- i
	}
	close(work)

	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					fail(ctx.Err())
					return
				}
				url := "http://" + addrs[i%len(addrs)] + "/v1/generate"
				body := bodies[i%len(bodies)]
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
				if err != nil {
					fail(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					fail(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("xbench: service benchmark request got %d, want 200", resp.StatusCode))
					return
				}
			}
		}()
	}
	wg.Wait()
	b.TotalNs = time.Since(start).Nanoseconds()
	b.NsPerRequest = b.TotalNs / int64(requests)

	for _, svc := range servers {
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := svc.Drain(drainCtx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("xbench: service drain: %w", err)
		}
		cancel()
		addCounters(&b.Counters, svc.Counters())
	}
	return b, firstErr
}
