package main

// The serving workloads, zipf-hit and nx-flood: 10^5 generated zones
// behind the real netserve.Server, driven over loopback UDP.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/zone"
)

// Workload constants. Offered rates and windows are fixed here, never
// derived from a capacity measured in the same run, so a faster server
// does not get a harder test.
const (
	servingZones = 100000
	corpusSize   = 1 << 17
	zipfS        = 1.1

	setupRepeats = 3 // set-ups per run; setup_s is their median

	closedWindow = 128 // outstanding queries per socket in the closed loop
	capWindow    = 250 * time.Millisecond

	// zipfOpenQPS is about half of zipf-hit's closed-loop capacity at HEAD
	// on a two-vCPU host (METRICS.md records the medians it is set from).
	zipfOpenQPS = 40000

	attackQPS     = 20000 // nx-flood attacker, 127.0.0.3, open loop
	legitQPS      = 2000  // nx-flood legitimate resolver, 127.0.0.2, open loop: a low rate beside the flood
	legitLearnQPS = 1e6   // the rate RateLimit learned for the legitimate resolver
	maxInflight   = 64    // nx-flood overload ladder ceiling
	victimRank    = 1000  // the attacked zone's popularity rank, fixed like the ranking

	lateBoundUs = 50000 // a run whose generator p99 lateness exceeds this is invalid
)

var (
	serverAddr = netip.MustParseAddr("127.0.0.1")
	clientA    = netip.MustParseAddr("127.0.0.2") // legitimate traffic
	clientB    = netip.MustParseAddr("127.0.0.3") // second socket; the attacker in nx-flood
)

var servingMix = mix{edns: 0.10, nx: 0.05, refer: 0.05}

// servingSetup is one instance of the serving stack.
type servingSetup struct {
	store *zone.Store
	srv   *netserve.Server
	pipe  *filters.Pipeline
}

// setupServing builds the zones in one Store.Update and starts the server
// the way cmd/authdns does with its defaults (plus the filter pipeline
// and ladder for nx-flood). One UDP read loop serves one socket: with
// SO_REUSEPORT the kernel would hash each client socket onto one of
// several server sockets at random, and which pairs collide would change
// from run to run.
func setupServing(zs *zoneSet, withFilters bool) (*servingSetup, error) {
	st := &servingSetup{store: zone.NewStore()}
	zones := make([]*zone.Zone, zs.n)
	for i := range zones {
		z, err := zs.build(i, 1)
		if err != nil {
			return nil, err
		}
		zones[i] = z
	}
	st.store.Update(func(tx *zone.Tx) {
		for _, z := range zones {
			tx.Put(z)
		}
	})
	eng := nameserver.NewEngine(st.store)
	if withFilters {
		rl := filters.NewRateLimit()
		rl.Learn(clientA.String(), legitLearnQPS)
		nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: st.store}, filters.PerHotZone)
		st.pipe = filters.NewPipeline(rl, nx)
	}
	cfg := netserve.DefaultConfig()
	cfg.UDPAddr = netip.AddrPortFrom(serverAddr, 0).String()
	cfg.UDPWorkers = 1
	if withFilters {
		cfg.MaxInflight = maxInflight
	}
	st.srv = netserve.New(cfg, eng, st.pipe)
	obs.RegisterBuildInfo(st.srv.Reg)
	st.srv.History = zone.NewHistory(8)
	for _, origin := range st.store.Origins() {
		st.srv.History.Record(st.store.Get(origin))
	}
	if err := st.srv.Start(); err != nil {
		return nil, err
	}
	return st, nil
}

// setupRepeated runs setup setupRepeats times, closing all but the last,
// and records the median duration as setup_s.
func setupRepeated[T any](r *run, build func() (T, error), closeFn func(T)) (T, error) {
	var durs []float64
	var last, zero T
	for i := 0; i < setupRepeats; i++ {
		last = zero // let the previous instance be collected first
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			closeFn(v)
		}
		last = v
	}
	r.set("setup_s", r.spreadOf("setup_s", durs), "s")
	return last, nil
}

func (st *servingSetup) addr() netip.AddrPort {
	return netip.MustParseAddrPort(st.srv.UDPAddrActual())
}

// phases splits the measured seconds: the closed loop (capacity) takes
// half, the open loop (latency and CPU) the other half.
func (r *run) phases() (closed, open time.Duration) {
	total := time.Duration(r.seconds * float64(time.Second))
	closed = total / 2
	return closed, total - closed
}

// capacity runs the closed loop on the closed lanes for d and returns
// the median over capWindow sub-windows of the counted lanes' correct
// answers per second. When the two differ, the closed lanes' own rate is
// recorded as capacity_closed_qps.
func capacity(r *run, d time.Duration, closed, counted []*lane) float64 {
	until := time.Now().Add(d)
	done := make(chan struct{})
	for _, l := range closed {
		l := l
		go func() {
			l.closedLoop(closedWindow, until)
			done <- struct{}{}
		}()
	}
	var rates, closedRates, cores []float64
	prev, prevClosed, t, c := answeredBy(counted), answeredBy(closed), time.Now(), cpuTime()
	for time.Until(until) >= capWindow {
		time.Sleep(capWindow)
		a, ac, now, cn := answeredBy(counted), answeredBy(closed), time.Now(), cpuTime()
		dt := now.Sub(t).Seconds()
		rates = append(rates, float64(a-prev)/dt)
		closedRates = append(closedRates, float64(ac-prevClosed)/dt)
		cores = append(cores, (cn-c).Seconds()/dt)
		prev, prevClosed, t, c = a, ac, now, cn
	}
	r.spreadOf("capacity_cores", cores)
	if len(closed) != len(counted) {
		r.spreadOf("capacity_closed_qps", closedRates)
	}
	for range closed {
		<-done
	}
	for _, l := range closed {
		l.drain()
	}
	return r.spreadOf("capacity_qps", rates)
}

// openStats are the open-loop phase's readings.
type openStats struct {
	cpuPerAnswerUs float64
	p50, p90, p99  float64
	lateP99        float64
}

const openWindow = time.Second

// measureOpen runs the flows' open loop for d (other lanes keep running
// their own loops) in windows of openWindow, and takes per window the
// latency quantiles of lat, one of the flows' lanes, and its sender's p99
// lateness; medians over windows keep one disturbed second from moving
// the result. CPU per
// answer is the process's CPU over the whole phase divided by the counted
// lanes' correct answers: churn's changelists and collections land in
// some windows and not others, and the phase total averages them.
func (r *run) measureOpen(lat *lane, flows []flow, d time.Duration, counted ...*lane) (openStats, error) {
	var cpu, p50, p90, p99, late []float64
	phaseAnswers, phaseCPU := answeredBy(counted), cpuTime()
	end := time.Now().Add(d)
	for time.Until(end) > openWindow/2 {
		until := time.Now().Add(openWindow)
		if until.After(end) {
			until = end
		}
		lat.lat.reset()
		lat.behind.reset()
		a0 := answeredBy(counted)
		c0 := cpuTime()
		if err := openLoop(until, flows...); err != nil {
			return openStats{}, err
		}
		n := answeredBy(counted) - a0
		cpu = append(cpu, ratio(float64((cpuTime()-c0).Microseconds()), float64(n)))
		p50 = append(p50, lat.lat.quantile(0.5))
		p90 = append(p90, lat.lat.quantile(0.90))
		p99 = append(p99, lat.lat.quantile(0.99))
		late = append(late, lat.behind.quantile(0.99))
	}
	n, c := answeredBy(counted)-phaseAnswers, cpuTime()-phaseCPU
	for _, f := range flows {
		f.l.drain()
	}
	r.spreadOf("cpu_us_per_answer", cpu)
	return openStats{
		cpuPerAnswerUs: ratio(float64(c.Microseconds()), float64(n)),
		p50:            r.spreadOf("lat_p50_us", p50),
		p90:            r.spreadOf("lat_p90_us", p90),
		p99:            r.spreadOf("lat_p99_us", p99),
		lateP99:        r.spreadOf("gen.late_p99_us", late),
	}, nil
}

func (r *run) reportOpen(st openStats) {
	r.set("cpu_us_per_answer", st.cpuPerAnswerUs, "us")
	r.set("lat_p50_us", st.p50, "us")
	r.set("lat_p90_us", st.p90, "us")
	r.set("lat_p99_us", st.p99, "us")
	r.info["gen_late_p99_us"] = st.lateP99
	if st.lateP99 > lateBoundUs {
		r.invalid = fmt.Sprintf("open-loop generator ran late: p99 %.0f us > %d us", st.lateP99, lateBoundUs)
	}
}

func runZipfHit(r *run) error {
	zs := newZoneSet(servingZones, "bench.")
	rng := rand.New(rand.NewSource(r.seed))
	c := zipfCorpus(zs, corpusSize, zipfS, servingMix, rng)
	r.info["corpus_sha256"] = hashHex(c.hash(nil))
	heap := &driverHeap{base: heapMiB()}
	st, err := setupRepeated(r, func() (*servingSetup, error) { return setupServing(zs, false) },
		func(s *servingSetup) { s.srv.Close() })
	if err != nil {
		return err
	}
	defer st.srv.Close()
	heap.beforeLanes()
	a, err := newLane("a", clientA, st.addr(), c, newOracle(zs), 1<<16)
	if err != nil {
		return err
	}
	defer a.close()
	b, err := newLane("b", clientB, st.addr(), c, newOracle(zs), 1<<16)
	if err != nil {
		return err
	}
	defer b.close()
	heap.afterLanes()
	// Lane b walks the corpus from its middle, so the two sockets do not
	// send the same query at the same moment.
	b.next, b.low = corpusSize/2, corpusSize/2

	warm(a, b)
	snap := r.snapshot(st.srv.Reg, a, b)
	closedD, openD := r.phases()
	capQPS := capacity(r, closedD, []*lane{a, b}, []*lane{a, b})
	r.set("capacity_qps", capQPS, "1/s")
	ops, err := r.measureOpen(a, []flow{{a, zipfOpenQPS}}, openD, a)
	if err != nil {
		return err
	}
	r.live(st.srv.Reg, snap, a, b)
	r.reportOpen(ops)
	r.note(a.counts())
	r.note(b.counts())
	r.crossCheck(st.srv, 0, a, b)
	r.setHeap(heap, a.orc, b.orc)
	if r.trace {
		return r.traceServing(st, c, nil, ops)
	}
	return nil
}

// warm runs every lane's closed loop over one pass of the corpus (at most
// a few seconds) so zone views are compiled and the hot cache is filled
// before anything is timed, then collects garbage: a collection of the
// large zone heap landing in some measured windows and not others would
// be the biggest source of run-to-run spread (runtime.gc_cpu_frac reports
// what collection costs during the run).
func warm(lanes ...*lane) {
	defer runtime.GC()
	until := time.Now().Add(3 * time.Second)
	done := make(chan struct{})
	for _, l := range lanes {
		l := l
		go func() {
			target := l.next + corpusSize/int64(len(lanes))
			for l.next < target && time.Now().Before(until) {
				l.closedLoop(closedWindow, time.Now().Add(100*time.Millisecond))
			}
			l.drain()
			done <- struct{}{}
		}()
	}
	for range lanes {
		<-done
	}
}

func runNXFlood(r *run) error {
	zs := newZoneSet(servingZones, "bench.")
	rng := rand.New(rand.NewSource(r.seed))
	c := zipfCorpus(zs, corpusSize, zipfS, servingMix, rng)
	atk := newAttackSource(zs, byPopularity(zs)[victimRank], r.seed)
	r.info["corpus_sha256"] = hashHex(c.hash(atk.suffix))
	heap := &driverHeap{base: heapMiB()}
	st, err := setupRepeated(r, func() (*servingSetup, error) { return setupServing(zs, true) },
		func(s *servingSetup) { s.srv.Close() })
	if err != nil {
		return err
	}
	defer st.srv.Close()
	heap.beforeLanes()
	legit, err := newLane("legit", clientA, st.addr(), c, newOracle(zs), 1<<16)
	if err != nil {
		return err
	}
	defer legit.close()
	attacker, err := newLane("attack", clientB, st.addr(), atk, newOracle(zs), 1<<16)
	if err != nil {
		return err
	}
	defer attacker.close()
	heap.afterLanes()
	warm(legit)
	closedD, openD := r.phases()
	// The attack runs open loop through both measured phases: on its own
	// goroutine beside the closed loop, then in the open loop's ticks,
	// where each tick's legitimate queries leave right after its attack
	// burst and queue behind it.
	attackDone := make(chan error, 1)
	go func() { attackDone <- openLoop(time.Now().Add(closedD), flow{attacker, attackQPS}) }()
	snap := r.snapshot(st.srv.Reg, legit, attacker)
	// Capacity counts attack answers too: the server's answers per second
	// while it is flooded. The legitimate share alone is the CPU left after
	// a fixed attack cost, so it would amplify any change in the host's
	// speed several times over.
	capQPS := capacity(r, closedD, []*lane{legit}, []*lane{legit, attacker})
	r.set("capacity_qps", capQPS, "1/s")
	if err := <-attackDone; err != nil {
		return err
	}
	ops, err := r.measureOpen(legit, []flow{{attacker, attackQPS}, {legit, legitQPS}}, openD, legit, attacker)
	if err != nil {
		return err
	}
	r.live(st.srv.Reg, snap, legit, attacker)
	r.reportOpen(ops)
	r.info["attack_late_p99_us"] = attacker.behind.quantile(0.99)
	r.note(legit.counts())
	// Attack answers are checked like any other, so a wrong one fails the
	// run, but an attack query left unanswered is not a failed operation.
	ac := attacker.counts()
	r.note(counts{sent: ac.answered + ac.wrong, answered: ac.answered, wrong: ac.wrong})
	r.info["attack_unanswered"] = ac.lost
	r.crossCheck(st.srv, 0, legit, attacker)
	r.setHeap(heap, legit.orc, attacker.orc)
	if r.trace {
		return r.traceServing(st, c, atk, ops)
	}
	return nil
}
