package main

// The churn workload: a controller holding churnZones zones behind the
// real ctlplane HTTP API and netserve.Server, four pull machines with
// their own stores and propagate.Pullers, one poster sending
// serial-bumping changelists in a closed loop, and one UDP socket
// querying churned and untouched zones.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/propagate"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

const (
	churnZones    = 1024
	churnSet      = 256 // zones the poster cycles through; the rest stay untouched
	changeZones   = 16  // zones per changelist
	seedChunk     = 256 // zones per set-up changelist
	machines      = 4
	churnQPS      = 20000 // query socket's open-loop rate, about a fifth of churn's closed-loop capacity
	churnCorpus   = 1 << 15
	probeIDBase   = 1 << 15 // probe queries use DNS IDs at and above this
	visibleWithin = 2 * time.Second
	// posterPeriod paces the poster: it sends a changelist on each tick,
	// once the previous one is visible. Each changelist costs the control
	// plane and the four machines tens of milliseconds of CPU; back to
	// back they would hold both cores, and the query socket could not keep
	// its schedule. The period equals the open loop's window, so every
	// window holds exactly one changelist.
	posterPeriod = openWindow
	convergeWait = 20 * time.Second
)

var churnMix = mix{edns: 0.10, nx: 0.05}

// machine is one pull machine: its own store fed by its own Puller.
type machine struct {
	id    int
	store *zone.Store
	pull  *propagate.Puller
	// synced is closed at the first successful cycle that leaves the
	// store matching the controller's zone count.
	synced   chan struct{}
	syncOnce sync.Once
	coldSync time.Duration
}

// changeRec is one applied changelist, tracked until every machine holds it.
type changeRec struct {
	t0      time.Time
	zones   []int
	serial  []uint32
	done    [machines]bool
	ndone   int
	counted bool // inside the measured window
}

type churnSetup struct {
	zs      *zoneSet
	store   *zone.Store
	srv     *netserve.Server
	ctl     *ctlplane.Controller
	pl      *ctlplane.Pipeline
	http    *obs.HTTPServer
	src     *propagate.Source
	ms      []*machine
	tr      *ctlTransport
	posts   int64 // changelists applied through HTTP
	url     string
	client  *http.Client
	started []atomic.Uint32 // highest serial POSTed per zone
	commit  []atomic.Uint32 // serial applied (POST returned) per zone

	coldStart time.Time

	mu      sync.Mutex
	pending []*changeRec
	conv    []float64 // ms, counted changelists
}

func (cs *churnSetup) close() {
	for _, m := range cs.ms {
		m.pull.Stop()
	}
	cs.tr.close()
	cs.http.Close()
	cs.pl.Close()
	cs.srv.Close()
	cs.client.CloseIdleConnections()
}

func setupChurn(zs *zoneSet) (*churnSetup, error) {
	cs := &churnSetup{zs: zs, store: zone.NewStore(),
		started: make([]atomic.Uint32, zs.n), commit: make([]atomic.Uint32, zs.n),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
	for i := range cs.started {
		cs.started[i].Store(1)
		cs.commit[i].Store(1)
	}
	cfg := netserve.DefaultConfig()
	cfg.UDPAddr = netip.AddrPortFrom(serverAddr, 0).String()
	cfg.UDPWorkers = 1
	cs.srv = netserve.New(cfg, nameserver.NewEngine(cs.store), nil)
	obs.RegisterBuildInfo(cs.srv.Reg)
	cs.srv.History = zone.NewHistory(8)
	cs.src = propagate.NewSource(cs.store, cs.srv.History)
	cs.ctl = ctlplane.New(cs.store, ctlplane.Config{Registry: cs.srv.Reg, History: cs.srv.History,
		Publish: func(dnswire.Name, uint32) {
			for _, m := range cs.ms {
				m.pull.Poke()
			}
		}})
	cs.pl = ctlplane.NewPipeline(cs.ctl, ctlplane.PipelineConfig{})
	if err := cs.srv.Start(); err != nil {
		return nil, err
	}
	hs, err := obs.ServeWith(netip.AddrPortFrom(serverAddr, 0).String(), cs.srv.Reg, cs.srv.Healthy,
		func(mux *http.ServeMux) {
			cs.srv.RegisterDebug(mux)
			cs.ctl.RegisterHTTP(mux)
		})
	if err != nil {
		cs.srv.Close()
		return nil, err
	}
	cs.http = hs
	cs.url = "http://" + hs.Addr() + "/ctl/changelist"
	// The machines exist before the seed changelists, so the publish hook
	// never sees the list change; a Puller ignores pokes until started.
	clock := propagate.NewWallClock()
	cs.tr = newCtlTransport(clock, cs.src)
	for i := 0; i < machines; i++ {
		m := &machine{id: i, store: zone.NewStore(), synced: make(chan struct{})}
		m.pull = propagate.New(propagate.Config{ID: fmt.Sprintf("m%d", i), Clock: clock, Transport: cs.tr,
			Store: m.store, Seed: int64(i), OnSync: func(simtime.Time) { cs.onSync(m) }})
		cs.ms = append(cs.ms, m)
	}
	for lo := 0; lo < zs.n; lo += seedChunk {
		var zones []int
		var serials []uint32
		for i := lo; i < lo+seedChunk && i < zs.n; i++ {
			zones = append(zones, i)
			serials = append(serials, 1)
		}
		if err := cs.post(zones, serials); err != nil {
			cs.close()
			return nil, err
		}
	}
	// The fleet cold-starts together, as machines do after a controller
	// restart; each machine's cold sync runs until its own first full sync.
	cs.coldStart = time.Now()
	for _, m := range cs.ms {
		m.pull.Start()
		m.pull.Poke()
	}
	timeout := time.After(convergeWait * 3)
	for _, m := range cs.ms {
		select {
		case <-m.synced:
		case <-timeout:
			cs.close()
			return nil, fmt.Errorf("machine %d did not cold-sync", m.id)
		}
	}
	return cs, nil
}

// post submits one changelist over the keep-alive connection and checks
// that it was applied.
func (cs *churnSetup) post(zones []int, serials []uint32) error {
	type entry struct {
		Origin string `json:"origin"`
		Zone   string `json:"zone"`
	}
	doc := struct {
		Zones []entry `json:"zones"`
	}{}
	for k, i := range zones {
		doc.Zones = append(doc.Zones, entry{Origin: cs.zs.originText(i), Zone: cs.zs.masterText(i, serials[k])})
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	resp, err := cs.client.Post(cs.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("post changelist: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read plan: %w", err)
	}
	var plan struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(raw, &plan); err != nil || resp.StatusCode != http.StatusOK || plan.Status != "applied" {
		return fmt.Errorf("changelist not applied: HTTP %d: %.200s", resp.StatusCode, raw)
	}
	cs.posts++
	return nil
}

// onSync runs after each successful pull cycle of m: it completes cold
// sync and marks every pending changelist m now holds.
func (cs *churnSetup) onSync(m *machine) {
	if m.store.Len() == cs.zs.n {
		m.syncOnce.Do(func() {
			m.coldSync = time.Since(cs.coldStart)
			close(m.synced)
		})
	}
	now := time.Now()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	keep := cs.pending[:0]
	for _, c := range cs.pending {
		if !c.done[m.id] && holds(m.store, cs.zs, c) {
			c.done[m.id] = true
			c.ndone++
		}
		if c.ndone == machines {
			if c.counted {
				cs.conv = append(cs.conv, float64(now.Sub(c.t0).Microseconds())/1000)
			}
			continue
		}
		keep = append(keep, c)
	}
	cs.pending = keep
}

func holds(st *zone.Store, zs *zoneSet, c *changeRec) bool {
	for k, i := range c.zones {
		z := st.Get(zs.origin(i))
		if z == nil || z.Serial() < c.serial[k] {
			return false
		}
	}
	return true
}

// ctlTransport carries the machines' pull requests to the controller's
// Source through one goroutine, the controller's transfer server, and
// times each Source.Handle call per operation. Requests queue behind each
// other as they would at one controller process, and the simulated fleet
// never holds more than one of the host's two cores: with a goroutine per
// request (NewDirect), four machines' pulls can take both, and the
// controller's UDP server, sharing the host, stalls for milliseconds.
type ctlTransport struct {
	clock propagate.Clock
	src   *propagate.Source
	// reqs holds at most one request per machine plus retries of timed
	// out ones; a full queue drops the request like a lost packet, and the
	// Puller's timeout recovers it.
	reqs chan ctlReq
	done chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	us [3][]float64 // Handle time by propagate.Op
}

type ctlReq struct {
	req     propagate.Request
	deliver func(now simtime.Time, resp *propagate.Response)
}

func newCtlTransport(clock propagate.Clock, src *propagate.Source) *ctlTransport {
	t := &ctlTransport{clock: clock, src: src, reqs: make(chan ctlReq, 16*machines), done: make(chan struct{})}
	t.wg.Add(1)
	go t.serve()
	return t
}

func (t *ctlTransport) Send(req propagate.Request, deliver func(now simtime.Time, resp *propagate.Response)) {
	select {
	case t.reqs <- ctlReq{req, deliver}:
	default:
	}
}

func (t *ctlTransport) serve() {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case c := <-t.reqs:
			t0 := time.Now()
			resp := t.src.Handle(c.req)
			d := float64(time.Since(t0).Nanoseconds()) / 1000
			t.mu.Lock()
			if int(c.req.Op) < len(t.us) {
				t.us[c.req.Op] = append(t.us[c.req.Op], d)
			}
			t.mu.Unlock()
			c.deliver(t.clock.Now(), resp)
		}
	}
}

// close stops the transfer server and waits for it; the Pullers must be
// stopped first.
func (t *ctlTransport) close() {
	close(t.done)
	t.wg.Wait()
}

// poster sends changelists until stop is closed: each bumps the serial
// of the next changeZones zones of the churn set, and the next is sent on
// the first posterPeriod tick after the UDP probes saw every new serial.
type poster struct {
	cs      *churnSetup
	probe   *lane
	next    int
	changes int64       // zone changes made
	measure atomic.Bool // inside the measured window
	visible []float64   // ms, measured changelists
	applied int64       // measured changelists
	failed  int64       // changelists not visible in time
	probes  int64
	wrong   int64 // probe answers outside the serial window
	err     error
}

func (p *poster) run(stop <-chan struct{}) {
	tick := time.NewTicker(posterPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if err := p.once(); err != nil {
			p.err = err
			return
		}
	}
}

func (p *poster) once() error {
	cs := p.cs
	zones := make([]int, changeZones)
	serials := make([]uint32, changeZones)
	prev := make([]uint32, changeZones)
	for k := range zones {
		i := p.next % churnSet
		p.next++
		p.changes++
		zones[k] = i
		prev[k] = cs.commit[i].Load()
		serials[k] = cs.started[i].Add(1)
	}
	counted := p.measure.Load()
	t0 := time.Now()
	rec := &changeRec{t0: t0, zones: zones, serial: serials, counted: counted}
	cs.mu.Lock()
	cs.pending = append(cs.pending, rec)
	cs.mu.Unlock()
	if err := cs.post(zones, serials); err != nil {
		return err
	}
	for k, i := range zones {
		cs.commit[i].Store(serials[k])
	}
	vis, ok := p.awaitVisible(zones, prev, serials)
	if counted {
		p.applied++
		if ok {
			p.visible = append(p.visible, float64(vis.Sub(t0).Microseconds())/1000)
		}
	}
	if !ok {
		p.failed++
	}
	return nil
}

// awaitVisible probes www of each changed zone on the query socket until
// its answer carries the new serial, and returns when the last one did.
// An answer at a serial from prev up to the new one is correct but not yet
// the new version, and is probed again; any other answer is wrong.
func (p *poster) awaitVisible(zones []int, prev, serials []uint32) (time.Time, bool) {
	var last time.Time
	deadline := time.Now().Add(visibleWithin)
	for k, i := range zones {
		for {
			p.probes++
			at, st := p.probe.probe(i, prev[k], serials[k])
			if st == probeVisible {
				if at.After(last) {
					last = at
				}
				break
			}
			if st == probeWrong {
				p.wrong++
			}
			if time.Now().After(deadline) {
				return last, false
			}
			time.Sleep(time.Millisecond)
		}
	}
	return last, true
}

func runChurn(r *run) error {
	zs := newZoneSet(churnZones, "churn.")
	rng := rand.New(rand.NewSource(r.seed))
	c := uniformCorpus(zs, churnCorpus, churnMix, rng)
	r.info["corpus_sha256"] = hashHex(c.hash(nil))
	heap := &driverHeap{base: heapMiB()}
	cs, err := setupRepeated(r, func() (*churnSetup, error) { return setupChurn(zs) },
		func(cs *churnSetup) { cs.close() })
	if err != nil {
		return err
	}
	defer cs.close()
	var cold []float64
	for _, m := range cs.ms {
		cold = append(cold, m.coldSync.Seconds())
	}
	r.set("propagate.cold_sync_s", r.spreadOf("propagate.cold_sync_s", cold), "s")
	seedPosts := cs.posts

	heap.beforeLanes()
	q, err := newLane("query", clientA, netip.MustParseAddrPort(cs.srv.UDPAddrActual()), c, newOracle(zs), probeIDBase)
	if err != nil {
		return err
	}
	defer q.close()
	q.serialRange = func(z int32) (uint32, uint32) { return cs.commit[z].Load(), cs.started[z].Load() }
	q.enableProbes(zs)
	heap.afterLanes()

	warm(q)
	statsBefore := pullStats(cs)
	p := &poster{cs: cs, probe: q, next: rng.Intn(churnSet)}
	snap := r.snapshot(cs.srv.Reg, q)
	closedD, openD := r.phases()
	p.measure.Store(true)
	t0 := time.Now()
	stop := make(chan struct{})
	posterDone := make(chan struct{})
	go func() {
		p.run(stop)
		close(posterDone)
	}()
	capQPS := capacity(r, closedD, []*lane{q}, []*lane{q})
	r.set("capacity_qps", capQPS, "1/s")
	ops, err := r.measureOpen(q, []flow{{q, churnQPS}}, openD, q)
	p.measure.Store(false)
	window := time.Since(t0)
	close(stop)
	<-posterDone
	if err == nil {
		err = p.err
	}
	if err != nil {
		return err
	}
	r.live(cs.srv.Reg, snap, q)
	r.reportOpen(ops)
	r.info["poster_changelists_per_s"] = float64(p.applied) / window.Seconds() // paced: about 1/posterPeriod
	r.set("apply_visible_p50_ms", quantile(p.visible, 0.5), "ms")
	r.set("apply_visible_p99_ms", quantile(p.visible, 0.99), "ms")
	r.info["changelists_measured"] = p.applied
	if p.failed > 0 {
		r.fail("%d changelists were not visible over UDP within %s", p.failed, visibleWithin)
	}

	if err := cs.converge(); err != nil {
		r.fail("%v", err)
	}
	cs.mu.Lock()
	conv := append([]float64(nil), cs.conv...)
	cs.mu.Unlock()
	r.set("fleet_converge_p50_ms", quantile(conv, 0.5), "ms")
	r.set("fleet_converge_p99_ms", quantile(conv, 0.99), "ms")
	statsAfter := pullStats(cs)
	r.pullRows(cs, statsBefore, statsAfter, p, seedPosts)

	qc := q.counts()
	r.note(qc)
	r.res.Attempted += p.probes
	r.res.Failed += p.wrong
	if p.wrong > 0 {
		r.fail("%d probe answers were outside their zone's serial window", p.wrong)
	}
	r.crossCheck(cs.srv, p.probes, q)
	// The control plane's own count of applied plans must equal the
	// changelists the poster saw applied.
	snapNow := cs.srv.Reg.Snapshot()
	if v, _ := snapNow.Value("akamaidns_ctl_plans_total", "result", "applied"); int64(v) != cs.posts {
		r.fail("ctlplane counted %d applied plans, the poster had %d applied", int64(v), cs.posts)
	}
	r.info["posts"] = map[string]int64{"seed": seedPosts, "run": cs.posts - seedPosts}
	r.setHeap(heap, q.orc, q.pr.orc)
	if r.trace {
		if err := r.traceServing(&servingSetup{store: cs.store}, c, nil, ops); err != nil {
			return err
		}
		return r.traceControl(cs, p.next)
	}
	return nil
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

// converge waits until every machine's store equals the controller's:
// same serials and the same propagate.ZoneSum for every zone.
func (cs *churnSetup) converge() error {
	deadline := time.Now().Add(convergeWait)
	want := cs.store.Serials()
	for _, m := range cs.ms {
		for {
			bad := mismatch(cs.store, m.store, want)
			if bad == "" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("machine %d did not converge: %s", m.id, bad)
			}
			m.pull.Poke()
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func mismatch(ctl, local *zone.Store, want map[dnswire.Name]uint32) string {
	got := local.Serials()
	if len(got) != len(want) {
		return fmt.Sprintf("%d zones, controller has %d", len(got), len(want))
	}
	for o, s := range want {
		if got[o] != s {
			return fmt.Sprintf("zone %s at serial %d, controller at %d", o, got[o], s)
		}
		if propagate.ZoneSum(local.Get(o)) != propagate.ZoneSum(ctl.Get(o)) {
			return fmt.Sprintf("zone %s content differs from the controller's", o)
		}
	}
	return ""
}

func pullStats(cs *churnSetup) []propagate.Status {
	out := make([]propagate.Status, len(cs.ms))
	for i, m := range cs.ms {
		out[i] = m.pull.Status()
	}
	return out
}

// pullRows sets the propagation rows and cross-checks each machine's pull
// counts against the changes made: every changed zone was pulled at least
// once, and never more often than it changed.
func (r *run) pullRows(cs *churnSetup, before, after []propagate.Status, p *poster, seedPosts int64) {
	changes := p.changes
	distinct := changes
	if distinct > churnSet {
		distinct = churnSet
	}
	var delta, full, cycles float64
	for i := range after {
		d := after[i].DeltaPulls - before[i].DeltaPulls
		f := after[i].FullPulls - before[i].FullPulls
		delta += float64(d)
		full += float64(f)
		cycles += float64(after[i].Cycles - before[i].Cycles)
		pulls := int64(d + f)
		if pulls > changes || pulls < distinct {
			r.fail("machine %d pulled %d zone versions for %d zone changes over %d zones", i, pulls, changes, distinct)
		}
	}
	r.set("propagate.delta_frac", ratio(delta, delta+full), "ratio")
	r.set("propagate.cycles_per_change", ratio(cycles, float64(cs.posts-seedPosts)), "count")
}

// probes lets the poster query www of one zone on the query socket with
// DNS IDs above the lane's range; the lane's receiver hands those
// answers over.
type probes struct {
	orc  *oracle
	seq  uint16
	want atomic.Int32 // DNS ID awaited, -1 when none
	ch   chan []byte
	buf  []byte
}

func (l *lane) enableProbes(zs *zoneSet) {
	l.pr = &probes{orc: newOracle(zs), ch: make(chan []byte, 1)}
	l.pr.want.Store(-1)
}

// deliverProbe is called by the receiver for IDs outside the lane's range.
func (l *lane) deliverProbe(id int64, p []byte) {
	if l.pr == nil || int64(l.pr.want.Load()) != id {
		return
	}
	select {
	case l.pr.ch <- append([]byte(nil), p...):
	default:
	}
}

// probeState is the outcome of one probe.
type probeState uint8

const (
	probeVisible probeState = iota // the answer carries the new serial
	probeOlder                     // a correct answer at an older serial in the window
	probeLost                      // no answer within the probe's timeout
	probeWrong                     // an answer outside the window, or otherwise wrong
)

// probe asks for www of zone i and reports when an answer arrived and
// whether it carries serial, a serial from lo up to it, or neither.
func (l *lane) probe(i int, lo, serial uint32) (time.Time, probeState) {
	pr := l.pr
	pr.seq++
	id := uint16(probeIDBase + int(pr.seq)%probeIDBase)
	name := child(pr.orc.zs.origin(i), "www")
	pr.buf = packQuery(name, false)
	pr.buf[0], pr.buf[1] = byte(id>>8), byte(id)
	pr.want.Store(int32(id))
	defer pr.want.Store(-1)
	if _, err := l.conn.Write(pr.buf); err != nil {
		return time.Time{}, probeLost
	}
	select {
	case resp := <-pr.ch:
		at := time.Now()
		qi := qinfo{zone: int32(i), kind: kindWWW}
		switch {
		case pr.orc.check(resp, pr.buf, id, qi, serial, serial) == verdictOK:
			return at, probeVisible
		case lo < serial && pr.orc.check(resp, pr.buf, id, qi, lo, serial-1) == verdictOK:
			return at, probeOlder
		}
		return at, probeWrong
	case <-time.After(100 * time.Millisecond):
		return time.Time{}, probeLost
	}
}

const (
	ctlReplays = 24 // changelists in the traced control-plane replay
	ctlBurst   = 24 // changelists in the unpaced burst behind applies_per_s
)

// applyBurst posts ctlBurst changelists over the keep-alive connection,
// each as soon as the previous one returned applied, and sets
// applies_per_s. The machines pull beside it, as they do in the live run.
func (r *run) applyBurst(cs *churnSetup, next int) (int, error) {
	t0 := time.Now()
	for k := 0; k < ctlBurst; k++ {
		zones := make([]int, changeZones)
		serials := make([]uint32, changeZones)
		for j := range zones {
			zones[j] = next % churnSet
			next++
			serials[j] = cs.started[zones[j]].Add(1)
		}
		if err := cs.post(zones, serials); err != nil {
			return next, err
		}
		for j, i := range zones {
			cs.commit[i].Store(serials[j])
		}
	}
	r.set("applies_per_s", ctlBurst/time.Since(t0).Seconds(), "1/s")
	return next, nil
}

// traceControl measures the unpaced apply rate, then replays changelists
// straight through the control plane's public functions on the live
// controller, with a span around each layer, and sets the control-plane
// and propagation rows.
func (r *run) traceControl(cs *churnSetup, next int) error {
	next, err := r.applyBurst(cs, next)
	if err != nil {
		return err
	}
	// The replay starts once the machines have pulled the burst, so their
	// catch-up does not share the cores with the timed calls.
	if err := cs.converge(); err != nil {
		return err
	}
	tr := &tracer{on: true, epoch: time.Now()}
	rows := map[string][]float64{}
	for k := 0; k < ctlReplays; k++ {
		req := int64(k)
		root := int64(tr.begin(req, -1, "changelist"))
		var zones []int
		for j := 0; j < changeZones; j++ {
			zones = append(zones, next%churnSet)
			next++
		}
		s := tr.begin(req, root, "ctlplane.decode")
		var cl ctlplane.Changelist
		for _, i := range zones {
			serial := cs.started[i].Add(1)
			z, err := zone.ParseMaster(strings.NewReader(cs.zs.masterText(i, serial)), cs.zs.origin(i))
			if err != nil {
				return fmt.Errorf("parse changelist zone: %w", err)
			}
			cl.Zones = append(cl.Zones, ctlplane.ZoneChange{Origin: cs.zs.origin(i), Desired: z})
		}
		tr.end(s)
		s = tr.begin(req, root, "ctlplane.plan")
		plan := cs.ctl.Plan(cl)
		tr.end(s)
		if plan.Status != ctlplane.StatusPlanned {
			return fmt.Errorf("traced changelist %d was not planned: %s", k, plan.Status)
		}
		sh0 := cs.store.ShardRebuilds()
		s = tr.begin(req, root, "ctlplane.apply")
		err := cs.ctl.Apply(plan)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("apply traced changelist: %w", err)
		}
		rows["zone.shard_rebuilds_per_zone"] = append(rows["zone.shard_rebuilds_per_zone"],
			float64(cs.store.ShardRebuilds()-sh0)/float64(len(zones)))
		s = tr.begin(req, root, "zone.view_compile")
		for _, i := range zones {
			cs.store.Get(cs.zs.origin(i)).View()
		}
		tr.end(s)
		tr.end(int(root))
	}
	n := len(tr.spans)
	perReq := map[string][]float64{}
	for _, sp := range tr.spans[:n] {
		perReq[sp.name] = append(perReq[sp.name], float64(sp.end-sp.start)/1000)
	}
	sum := 0.0
	for _, name := range []string{"ctlplane.decode", "ctlplane.plan", "ctlplane.apply", "zone.view_compile"} {
		v := r.spreadOf(name+"_us", perReq[name])
		r.set(name+"_us", v, "us")
		sum += v
	}
	r.set("zone.shard_rebuilds_per_zone", r.spreadOf("zone.shard_rebuilds_per_zone", rows["zone.shard_rebuilds_per_zone"]), "count")
	r.set("ctlplane.residual_us", r.res.Metrics["apply_visible_p50_ms"].Value*1000-sum, "us")
	cs.tr.mu.Lock()
	for op, name := range []string{"catalog", "ixfr", "axfr"} {
		r.set("propagate.source_handle_us."+name, r.spreadOf("propagate.source_handle_us."+name, cs.tr.us[op]), "us")
	}
	cs.tr.mu.Unlock()
	path := fmt.Sprintf("%s/spans-churn-ctl-%d.csv.gz", r.outDir, r.seed)
	if err := tr.write(path, len(tr.spans)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.info["ctl_spans_file"] = path
	return nil
}
