package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"torusnet/internal/obs"
	"torusnet/internal/service"
)

// workload is one seeded traffic mix. Implementations keep every answer
// they receive, in per-client slices, and check them all in verify, after
// the timed loop.
type workload interface {
	// clients is the closed-loop client count on an nproc-CPU machine.
	clients(nproc int) int
	// setup boots the system under test, waits for it to be ready and
	// primes it. A non-nil tracer turns the program's own stage spans on.
	setup(ctx context.Context, tracer *obs.Tracer) (*target, error)
	// op runs client c's next op against t and returns its latency as the
	// client saw it. A non-nil error is a transport error or a non-2xx
	// status.
	op(ctx context.Context, t *target, c int) (time.Duration, error)
	// setupOps is how many ops the set-ups so far made (priming).
	setupOps() int
	// verify checks every collected answer against the paper's oracle and
	// returns one error per failed op.
	verify(ctx context.Context) []error
	// layers computes the workload's per-layer metrics in a traced run.
	layers(ctx context.Context, lc *layerContext) error
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
func workloadNames() []string { return []string{"hits", "misses", "search", "cluster"} }

// newWorkload builds the named workload's seeded inputs, or nil.
func newWorkload(name string, seed int64) workload {
	switch name {
	case "hits":
		return newHits(seed)
	case "misses":
		return newMisses(seed)
	case "search":
		return newSearch(seed)
	case "cluster":
		return newClusterLoad(seed)
	}
	return nil
}

// target is a running system under test: one server, or the nodes of a
// harness cluster, each with a client.
type target struct {
	servers []*service.Server
	clients []*service.Client
	stop    func(context.Context) error
}

// serviceConfig is the per-server configuration every workload uses: the
// torusd binary's defaults (analytic lane on, GOMAXPROCS pool workers,
// queue depth 2×workers, 512-entry cache), with no access log.
func serviceConfig(tracer *obs.Tracer) service.Config {
	return service.Config{EnableAnalytic: true, Tracer: tracer}
}

// bootServer serves one torusd instance on a loopback listener.
func bootServer(ctx context.Context, cfg service.Config) (*target, error) {
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = srv.Serve(ln)
	}()
	t := &target{
		servers: []*service.Server{srv},
		clients: []*service.Client{service.NewClient("http://" + ln.Addr().String())},
	}
	t.stop = func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		wg.Wait()
		if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		return err
	}
	if err := t.clients[0].Ready(ctx); err != nil {
		return nil, errors.Join(err, t.stop(ctx))
	}
	return t, nil
}

// loopStats summarizes one closed-loop phase.
type loopStats struct {
	lats    []time.Duration // every op's latency, sorted
	ops     int
	elapsed time.Duration
	errs    []error // the failed ops' transport or status errors
}

// closedLoop runs op on each of clients goroutines until dur has passed:
// a client sends its next op only after the previous one returned. With a
// non-nil tracer every op runs under a root span of its own, whose trace ID
// the client propagates to the server.
func closedLoop(ctx context.Context, w workload, t *target, clients int, dur time.Duration, tracer *obs.Tracer) loopStats {
	lats := make([][]time.Duration, clients)
	errs := make([][]error, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				opCtx, sp := tracer.Root(ctx, "bench.op", "")
				lat, err := w.op(opCtx, t, c)
				sp.End()
				lats[c] = append(lats[c], lat)
				if err != nil {
					errs[c] = append(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start)}
	for c := range lats {
		st.lats = append(st.lats, lats[c]...)
		st.errs = append(st.errs, errs[c]...)
	}
	sort.Slice(st.lats, func(i, j int) bool { return st.lats[i] < st.lats[j] })
	st.ops = len(st.lats)
	return st
}

// Set-up is repeated and setup_s is the median, so one slow boot does not
// move it: at least minSetups times, and more while the set-ups so far
// took under setupBudget, up to maxSetups. A millisecond boot is repeated
// dozens of times; the primed hits set-up a handful.
const (
	minSetups   = 5
	maxSetups   = 51
	setupBudget = time.Second
)

// setupTimed sets the system up repeatedly and keeps the last target; it
// returns the median set-up time in seconds and the number of set-ups.
func setupTimed(ctx context.Context, w workload) (*target, float64, int, error) {
	var t *target
	var times []float64
	var spent time.Duration
	for len(times) < maxSetups && (len(times) < minSetups || spent < setupBudget) {
		if t != nil {
			if err := t.stop(ctx); err != nil {
				return nil, 0, 0, fmt.Errorf("stopping set-up %d: %w", len(times), err)
			}
		}
		t0 := time.Now()
		var err error
		t, err = w.setup(ctx, nil)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return t, median(times), len(times), nil
}

// warmup is the untimed closed-loop phase before measuring: connections
// open, code pages fault in and the allocator reaches its steady state.
func warmup(dur time.Duration) time.Duration {
	return min(time.Second, dur/10)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, w workload, cond conditions, dur time.Duration) (*report, error) {
	t, setupS, setups, err := setupTimed(ctx, w)
	if err != nil {
		return nil, err
	}
	warm := closedLoop(ctx, w, t, cond.Clients, warmup(dur), nil)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	cpu0 := cpuTime()
	runtime.ReadMemStats(&ms0)
	st := closedLoop(ctx, w, t, cond.Clients, dur, nil)
	runtime.ReadMemStats(&ms1)
	cpu1 := cpuTime()
	peak := peakRSS()
	if err := t.stop(ctx); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if st.ops == 0 {
		return nil, errNoOps
	}
	rep := &report{notes: make(map[string]string), attempted: w.setupOps() + warm.ops + st.ops}
	rep.fail(append(warm.errs, st.errs...), w.verify(ctx))
	ops := float64(st.ops)
	tail, label := tailLatency(st.lats)
	rep.set("setup_s", setupS, "s")
	rep.set("ops_per_s", ops/st.elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", ms(quantileDur(st.lats, 0.5)), "ms")
	rep.set("latency_tail_ms", ms(tail), "ms")
	rep.set("cpu_ms_per_op", ms(cpu1-cpu0)/ops, "ms")
	rep.set("alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops, "KiB")
	rep.set("mem_peak_mb", peak, "MiB")
	rep.set("success_share", 1-float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", setups)
	rep.notes["latency_tail_ms"] = fmt.Sprintf("%s of %d ops", label, st.ops)
	rep.notes["success_share"] = fmt.Sprintf("fail_share %.4g: %d of %d ops failed",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	return rep, nil
}

// median is the median of values (which it sorts).
func median(values []float64) float64 {
	sort.Float64s(values)
	return quantile(values, 0.5)
}

// fail records the failed ops of a run: transport/status errors plus the
// oracle's findings. Every op the run made, warm-up and priming included,
// counts as attempted.
func (r *report) fail(opErrs, checkErrs []error) {
	all := append(append([]error(nil), opErrs...), checkErrs...)
	r.failed += len(all)
	for _, err := range all {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// tailLatency is the highest of p99 and p90 that still has at least ten
// samples beyond it. Runs too short for p90 fall back to p75, then p50.
func tailLatency(sorted []time.Duration) (time.Duration, string) {
	n := len(sorted)
	for _, pct := range []int{99, 90, 75} {
		if beyond := n - (n*pct+99)/100; beyond >= 10 {
			return quantileDur(sorted, float64(pct)/100), fmt.Sprintf("p%d", pct)
		}
	}
	return quantileDur(sorted, 0.5), "p50"
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quantileDur is quantile over sorted durations.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + time.Duration(float64(sorted[hi]-sorted[lo])*(pos-float64(lo)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
