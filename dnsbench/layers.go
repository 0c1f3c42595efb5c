package main

// Per-layer attribution. Counter rows come from the program's own
// registries, read around the live run. Timing rows come from a traced
// replay: the driver calls each layer's public functions on the live
// store in the order the server's packet handler calls them, and records
// a span around each call.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/qod"
	"akamaidns/internal/queue"
	"akamaidns/internal/simtime"
)

// span is one timed call: spans of one replayed query share a request id,
// and every layer span's parent is that query's root span.
type span struct {
	req, id, parent int64
	name            string
	start, end      int64 // ns since the tracer epoch
}

type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) begin(req, parent int64, name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{req: req, id: int64(len(t.spans)), parent: parent, name: name,
		start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// selfTimes returns each span name's summed self time: its duration minus
// the part covered by its children.
func (t *tracer) selfTimes() map[string]int64 {
	out := map[string]int64{}
	for _, s := range t.spans {
		out[s.name] += s.end - s.start
		if s.parent >= 0 {
			p := t.spans[s.parent]
			out[p.name] -= s.end - s.start
		}
	}
	return out
}

// write saves the first max spans as gzip-compressed CSV.
func (t *tracer) write(path string, max int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "req,id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		if i == max {
			break
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.req, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// liveSnap is the state of the program's counters before the live run.
type liveSnap struct {
	reg      obs.Snapshot
	rt       []metrics.Sample
	answered int64
}

var rtMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func answeredBy(lanes []*lane) int64 {
	var n int64
	for _, l := range lanes {
		n += l.answered.Load()
	}
	return n
}

func (r *run) snapshot(reg *obs.Registry, lanes ...*lane) liveSnap {
	return liveSnap{reg: reg.Snapshot(), rt: readRuntime(), answered: answeredBy(lanes)}
}

func histSumCount(s obs.Snapshot, name string) (float64, float64) {
	for _, p := range s {
		if p.Name == name && p.Kind == obs.KindHistogram {
			return p.Sum, float64(p.Count)
		}
	}
	return 0, 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// live sets the counter rows over the interval since snap.
func (r *run) live(reg *obs.Registry, snap liveSnap, lanes ...*lane) {
	now := reg.Snapshot()
	d := func(name string, labels ...string) float64 {
		a, _ := now.Value(name, labels...)
		b, _ := snap.reg.Value(name, labels...)
		return a - b
	}
	dt := func(name string) float64 { return now.Total(name) - snap.reg.Total(name) }
	hits, misses := d(obs.MetricHotCacheHitsTotal), d(obs.MetricHotCacheMissesTotal)
	udp := d(obs.MetricQueriesTotal, "transport", "udp")
	r.set("nameserver.hotcache_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("netserve.view_served_frac", ratio(d(obs.MetricViewServedTotal), udp), "ratio")
	s1, c1 := histSumCount(now, obs.MetricUDPBatchSize)
	s0, c0 := histSumCount(snap.reg, obs.MetricUDPBatchSize)
	r.set("udpbatch.batch_mean", ratio(s1-s0, c1-c0), "count")
	shed := d(obs.MetricDiscardedTotal) + d(obs.MetricTailDroppedTotal) + dt(obs.MetricShedTotal)
	r.set("netserve.shed_frac", ratio(shed, udp), "ratio")
	r.set("filters.ratelimit_over", d(obs.MetricFilterHitsTotal, "filter", "ratelimit"), "count")
	rt := readRuntime()
	r.set("runtime.alloc_bytes_per_answer",
		ratio(rtValue(rt[0])-rtValue(snap.rt[0]), float64(answeredBy(lanes)-snap.answered)), "B")
	r.set("runtime.gc_cpu_frac", ratio(rtValue(rt[1])-rtValue(snap.rt[1]), rtValue(rt[2])-rtValue(snap.rt[2])), "ratio")
}

// crossCheck compares what the benchmark counted from outside with the
// server's own series; a mismatch fails the run. extra counts datagrams
// sent to the server outside the lanes' counts (churn's probes).
func (r *run) crossCheck(srv *netserve.Server, extra int64, lanes ...*lane) {
	answered, sent := int64(0), extra
	for _, l := range lanes {
		c := l.counts()
		if c.answered+c.wrong+c.lost != c.sent {
			r.fail("lane %s: answered %d + failed %d != attempted %d", l.name, c.answered, c.wrong+c.lost, c.sent)
		}
		answered += c.answered
		sent += c.sent
	}
	r.info["server"] = map[string]uint64{"udp_queries": srv.Metrics.UDPQueries.Load(),
		"write_errors": srv.Metrics.WriteErrors.Load(), "send_shortfall": srv.Metrics.SendShortfall.Load(),
		"decode_errors": srv.Metrics.DecodeErrors.Load(), "panics": srv.Metrics.Panics.Load(),
		"qod_refused": srv.Metrics.QoDRefused.Load(), "truncated": srv.Metrics.Truncated.Load(),
		"watchdog_trips": uint64(srv.Reg.Snapshot().Total(obs.MetricWatchdogTripsTotal))}
	perLane := map[string]map[string]int64{}
	for _, l := range lanes {
		c := l.counts()
		perLane[l.name] = map[string]int64{"sent": c.sent, "answered": c.answered, "wrong": c.wrong, "lost": c.lost,
			"late_or_duplicate": l.late.Load()}
	}
	r.info["lanes"] = perLane
	if q := int64(srv.Metrics.UDPQueries.Load()); q < answered || q > sent {
		r.fail("server counted %d UDP queries; the lanes sent %d and received %d answers", q, sent, answered)
	}
	r.set("fail_frac", ratio(float64(r.res.Failed), float64(r.res.Attempted)), "ratio")
}

// replayer runs queries through the serving layers' public functions, in
// the order the server's packet handler calls them, against the live
// store. It owns its hot cache, quarantine and flight recorder, so the
// replay never disturbs the server's.
type replayer struct {
	st    *servingSetup
	tr    *tracer
	hot   *nameserver.HotCache
	quar  *qod.Quarantine
	fw    *flight.Worker
	pipe  *filters.Pipeline
	admit *queue.Q
	start time.Time
	pkt   []byte
	key   []byte
	qfold []byte
	out   []byte
}

func newReplayer(st *servingSetup) *replayer {
	rp := &replayer{st: st, tr: &tracer{}, hot: nameserver.NewHotCache(0),
		quar: qod.NewQuarantine(0, 0), fw: flight.New(flight.Config{}, obs.NewRegistry()).Worker(),
		start: time.Now()}
	if st.pipe != nil {
		rl := filters.NewRateLimit()
		rl.Learn(clientA.String(), legitLearnQPS)
		rp.pipe = filters.NewPipeline(rl, filters.NewNXDomain(nameserver.StoreZoneInfo{Store: st.store}, filters.PerHotZone))
		rp.admit = queue.MustNew(queue.Config{MaxScores: []float64{0, 0.495 * queue.DefaultConfig().Smax,
			0.995 * queue.DefaultConfig().Smax}, Smax: queue.DefaultConfig().Smax, Capacity: queue.DefaultConfig().Capacity})
	}
	return rp
}

// one replays a single query from resolver. The query is first copied
// into a reused buffer, as the server's read loop receives it into its
// arena, so the layers see it hot in cache.
func (rp *replayer) one(req int64, query []byte, resolver string) {
	rp.pkt = append(rp.pkt[:0], query...)
	wire := rp.pkt
	tr := rp.tr
	root := tr.begin(req, -1, "query")
	rootID := int64(root)
	s := tr.begin(req, rootID, "qod.check")
	if rp.quar.Len() > 0 {
		if v, ok := dnswire.ParseQueryView(wire); ok {
			rp.quar.Check(v.QnameWire(wire), uint16(v.QType), v.Flags, time.Now())
		}
	}
	tr.end(s)
	s = tr.begin(req, rootID, "dnswire.parse")
	v, ok := dnswire.ParseQueryView(wire)
	tr.end(s)
	if !ok {
		tr.end(root)
		return
	}
	// The server's payload size classes: 2 without EDNS, 4 for the
	// corpus's 1232-octet EDNS payload.
	class := byte(2)
	if v.HasOPT {
		class = 4
	}
	s = tr.begin(req, rootID, "nameserver.hotcache_lookup")
	gen := rp.st.store.Gen()
	rp.key = v.AppendCacheKey(rp.key[:0], wire, class)
	e, hit := rp.hot.Lookup(rp.key, gen)
	tr.end(s)
	var rcode uint8
	zoneName := ""
	if hit {
		if rp.pipe != nil {
			rp.score(req, rootID, e.Name, e.Zone, uint16(v.QType), resolver)
		}
		rp.out = append(rp.out[:0], e.Wire...)
		rcode = uint8(e.RCode)
		zoneName = e.Zone.String()
	} else {
		s = tr.begin(req, rootID, "zone.find_wire")
		rp.qfold, _ = v.AppendQnameFolded(rp.qfold[:0], wire)
		z, _, found := rp.st.store.FindWire(rp.qfold)
		tr.end(s)
		if !found {
			tr.end(root)
			return
		}
		if rp.pipe != nil {
			name, _ := dnswire.NameFromFoldedWire(rp.qfold)
			rp.score(req, rootID, name, z.Origin(), uint16(v.QType), resolver)
		}
		s = tr.begin(req, rootID, "zone.append_answer")
		view := z.View()
		rp.out = append(rp.out[:0], wire[:12+v.QnameLen+4]...)
		out, wa, okA := view.AppendAnswer(rp.out, rp.qfold, 12, v.QType)
		tr.end(s)
		rp.out = out
		if okA && wa.Cacheable {
			rp.hot.Insert(rp.key, &nameserver.HotEntry{Wire: append([]byte(nil), out...), QnameLen: v.QnameLen,
				Name: wa.Name, Zone: view.Origin()}, gen)
		}
		zoneName = view.Origin().String()
	}
	s = tr.begin(req, rootID, "flight.observe")
	rp.fw.Observe(flight.Sample{QnameWire: v.QnameWire(wire), QType: uint16(v.QType), RCode: rcode,
		Zone: zoneName, Latency: -1, Verdict: flight.VerdictView})
	tr.end(s)
	tr.end(root)
}

func (rp *replayer) score(req, root int64, name, zoneName dnswire.Name, qtype uint16, resolver string) {
	s := rp.tr.begin(req, root, "filters.score")
	fq := filters.Query{Resolver: resolver, Name: name, Type: dnswire.Type(qtype), Zone: zoneName, IPTTL: 64,
		Now: simtime.Time(time.Since(rp.start))}
	score, _ := rp.pipe.Score(&fq)
	rp.tr.end(s)
	s = rp.tr.begin(req, root, "queue.admit")
	rp.admit.Admit(score)
	rp.tr.end(s)
}

// replayQueries is the exact query stream of the workload: the corpus,
// interleaved with attack queries at the workload's offered ratio.
type replayQuery struct {
	wire     []byte
	resolver string
}

func replayStream(c *corpus, atk *attackSource, n int) []replayQuery {
	out := make([]replayQuery, 0, n)
	every := 0
	if atk != nil {
		every = attackQPS / legitQPS
	}
	var seq, aseq int64
	for len(out) < n {
		if every > 0 && len(out)%(every+1) != every {
			out = append(out, replayQuery{wire: atk.query(nil, aseq), resolver: clientB.String()})
			aseq++
			continue
		}
		out = append(out, replayQuery{wire: c.query(nil, seq), resolver: clientA.String()})
		seq++
	}
	return out
}

const (
	replayQueries = 1 << 16
	replayPasses  = 3
	spansWritten  = 1 << 16
)

// serving layer rows, in handler order.
var servingRows = []struct{ span, metric string }{
	{"qod.check", "qod.check_ns"},
	{"dnswire.parse", "dnswire.parse_ns"},
	{"nameserver.hotcache_lookup", "nameserver.hotcache_lookup_ns"},
	{"zone.find_wire", "zone.find_wire_ns"},
	{"filters.score", "filters.score_ns"},
	{"queue.admit", "queue.admit_ns"},
	{"zone.append_answer", "zone.append_answer_ns"},
	{"flight.observe", "flight.observe_ns"},
}

// traceServing replays the workload's query stream untraced and traced,
// alternating, and sets the serving rows (median per-query self time over
// the traced passes), the tracing overhead and the residual against the
// live run's CPU per answer.
func (r *run) traceServing(st *servingSetup, c *corpus, atk *attackSource, ops openStats) error {
	stream := replayStream(c, atk, replayQueries)
	rp := newReplayer(st)
	spans := make([]span, 0, 8*len(stream))
	pass := func(traced bool) time.Duration {
		rp.tr = &tracer{on: traced, epoch: time.Now(), spans: spans[:0]}
		t0 := time.Now()
		for i, q := range stream {
			rp.one(int64(i), q.wire, q.resolver)
		}
		return time.Since(t0)
	}
	pass(false) // warm: views compiled, replay cache filled
	rows := map[string][]float64{}
	var plain, traced []float64
	var last *tracer
	for i := 0; i < replayPasses; i++ {
		plain = append(plain, float64(pass(false).Nanoseconds())/float64(len(stream)))
		traced = append(traced, float64(pass(true).Nanoseconds())/float64(len(stream)))
		self := rp.tr.selfTimes()
		for _, row := range servingRows {
			rows[row.metric] = append(rows[row.metric], float64(self[row.span])/float64(len(stream)))
		}
		last = rp.tr
	}
	sum := 0.0
	for _, row := range servingRows {
		v := r.spreadOf(row.metric, rows[row.metric])
		r.set(row.metric, v, "ns")
		sum += v
	}
	r.set("trace.overhead_ns", median(traced)-median(plain), "ns")
	r.set("netserve.residual_ns", ops.cpuPerAnswerUs*1000-sum, "ns")
	r.set("gen.late_p99_us", ops.lateP99, "us")
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-%d.csv.gz", r.workload, r.seed))
	if err := last.write(path, spansWritten); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.info["spans_file"] = path
	return nil
}
