// Command loadgen drives the façade-level load harness (internal/loadgen)
// against the embedded and remote backends and prints one markdown table:
// the same workload grid, through the same public Engine API, measured on
// both sides of the location-transparency line. The remote backend is a
// real cached server on a TCP loopback listener, so its rows carry the
// full RPC stack — framing, batching, push delivery.
//
// Usage:
//
//	loadgen                 # full grid, both backends
//	loadgen -quick          # CI smoke: tiny event counts
//	loadgen -backend remote # one backend only
//	loadgen -cluster 3      # grid against a 3-node loopback cluster
//
// -cluster n replaces the backend grid with a partitioned cluster of n
// in-process cached nodes on TCP loopback listeners, driven through
// unicache.Cluster — the row label is "cluster<n>". Comparing -cluster 1
// against -cluster 3 on a multi-topic workload shows how throughput moves
// as topics spread across nodes.
//
// -tenants n replaces the grid with a fairness check: one multi-tenant
// cached on a loopback listener, n authenticated connections (tenants
// t0..t(n-1)) each driving the full workload concurrently through their
// own namespace. One row per tenant, labelled "tenant<i>/<n>" — near-equal
// events/sec across the rows means the namespacing layer shares the cache
// fairly. The allocs/event column is process-wide, so under concurrent
// tenants it reports the sum across all of them.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"

	"unicache"
	"unicache/internal/cache"
	"unicache/internal/loadgen"
	"unicache/internal/rpc"
	"unicache/internal/tenant"
)

func main() {
	quick := flag.Bool("quick", false, "run the smoke-sized grid (CI)")
	events := flag.Int("events", 0, "override total events per workload")
	backend := flag.String("backend", "both", "embedded, remote or both")
	cluster := flag.Int("cluster", 0, "measure an n-node loopback cluster instead of the embedded/remote grid")
	tenants := flag.Int("tenants", 0, "run the grid as n concurrent tenants of one multi-tenant cached (fairness check)")
	flag.Parse()
	switch *backend {
	case "embedded", "remote", "both":
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown backend %q (want embedded, remote or both)\n", *backend)
		os.Exit(2)
	}

	workloads := loadgen.DefaultWorkloads()
	if *quick {
		workloads = loadgen.QuickWorkloads()
	}
	if *events > 0 {
		for i := range workloads {
			workloads[i].Events = *events
		}
	}

	cfg := cache.Config{TimerPeriod: -1}

	var results []loadgen.Result
	if *tenants > 0 {
		for _, w := range workloads {
			rs, err := runTenants(w, cfg, *tenants)
			if err != nil {
				fail(err)
			}
			results = append(results, rs...)
		}
		fmt.Print(loadgen.Table(results))
		return
	}
	if *cluster > 0 {
		for _, w := range workloads {
			r, err := runCluster(w, cfg, *cluster)
			if err != nil {
				fail(err)
			}
			results = append(results, r)
		}
		fmt.Print(loadgen.Table(results))
		return
	}
	for _, w := range workloads {
		if *backend != "remote" {
			r, err := runEmbedded(w, cfg)
			if err != nil {
				fail(err)
			}
			results = append(results, r)
		}
		if *backend != "embedded" {
			r, err := runRemote(w, cfg)
			if err != nil {
				fail(err)
			}
			results = append(results, r)
		}
	}
	fmt.Print(loadgen.Table(results))
}

// runEmbedded measures one workload on a fresh in-process engine.
func runEmbedded(w loadgen.Workload, cfg cache.Config) (loadgen.Result, error) {
	eng, err := unicache.NewEmbedded(cfg)
	if err != nil {
		return loadgen.Result{}, err
	}
	defer func() { _ = eng.Close() }()
	return loadgen.Run(eng, "embedded", w)
}

// runRemote measures one workload through a fresh cached server on a TCP
// loopback listener — the whole RPC stack in the measured path.
func runRemote(w loadgen.Workload, cfg cache.Config) (loadgen.Result, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return loadgen.Result{}, err
	}
	defer c.Close()
	srv := rpc.NewServer(c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return loadgen.Result{}, err
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()
	eng, err := unicache.DialRemote(ln.Addr().String())
	if err != nil {
		return loadgen.Result{}, err
	}
	defer func() { _ = eng.Close() }()
	return loadgen.Run(eng, "remote", w)
}

// runCluster measures one workload through n fresh cached nodes on TCP
// loopback listeners behind one unicache.Cluster engine — consistent-hash
// routing, per-node batching and cross-node stat merging all inside the
// measured path.
func runCluster(w loadgen.Workload, cfg cache.Config, n int) (loadgen.Result, error) {
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		c, err := cache.New(cfg)
		if err != nil {
			return loadgen.Result{}, err
		}
		defer c.Close()
		srv := rpc.NewServer(c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return loadgen.Result{}, err
		}
		go func() { _ = srv.Serve(ln) }()
		defer func() { _ = srv.Close() }()
		addrs[i] = ln.Addr().String()
	}
	eng, err := unicache.Cluster(addrs...)
	if err != nil {
		return loadgen.Result{}, err
	}
	defer func() { _ = eng.Close() }()
	return loadgen.Run(eng, fmt.Sprintf("cluster%d", n), w)
}

// runTenants measures one workload run concurrently by n tenants of a
// single multi-tenant cached on a loopback listener. Each tenant dials its
// own authenticated connection and drives the full workload in its own
// namespace — the table names collide only apparently; the tenant prefix
// keeps them disjoint. The returned rows (one per tenant) expose fairness:
// with identical workloads, events/sec should be near-equal across tenants.
func runTenants(w loadgen.Workload, cfg cache.Config, n int) ([]loadgen.Result, error) {
	specs := make([]tenant.Spec, n)
	for i := range specs {
		specs[i] = tenant.Spec{Name: fmt.Sprintf("t%d", i), Token: fmt.Sprintf("tok%d", i)}
	}
	reg, err := tenant.NewRegistry(specs...)
	if err != nil {
		return nil, err
	}
	cfg.Tenants = reg
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	srv := rpc.NewServer(c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	results := make([]loadgen.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := unicache.DialRemote(ln.Addr().String(),
				unicache.WithToken(specs[i].Token))
			if err != nil {
				errs[i] = err
				return
			}
			defer func() { _ = eng.Close() }()
			results[i], errs[i] = loadgen.Run(eng, fmt.Sprintf("tenant%d/%d", i, n), w)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
