package netserve

import (
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/qod"
	"akamaidns/internal/zone"
)

// resolverPenalty scores every query from a resolver with a fixed penalty
// and counts its Score calls.
type resolverPenalty struct {
	by    map[string]float64
	calls atomic.Int64
}

func (p *resolverPenalty) Name() string { return "resolver-penalty" }

func (p *resolverPenalty) Score(q *filters.Query) float64 {
	p.calls.Add(1)
	return p.by[q.Resolver]
}

// ladderOutcome is what a client sees for one query.
type ladderOutcome string

const (
	served  ladderOutcome = "served"
	refused ladderOutcome = "refused"
	dropped ladderOutcome = "dropped"
)

// TestDegradationLadderTable pins what every degradation level does to
// every serving tier for every kind of resolver: the client-visible
// outcome and the shed{level}, Discarded and TailDropped deltas. The level
// is forced by pre-occupying the in-flight ladder (MaxInflight 20:
// Degraded from 10 in flight, CleanOnly from 17, Saturated above 20).
func TestDegradationLadderTable(t *testing.T) {
	const maxInflight = 20
	levels := []struct {
		level    int
		occupied int
	}{
		{qod.LevelFull, 0},
		{qod.LevelDegraded, 9},
		{qod.LevelCleanOnly, 16},
		{qod.LevelSaturated, maxInflight},
	}
	type resolver struct {
		name        string
		addr        string
		allowlisted bool
		penalty     float64 // 0: rung 0; 50: rung 1; 500: at/above Smax
	}
	resolvers := []resolver{
		{"allow/rung0", "10.0.0.1", true, 0},
		{"allow/rung1", "10.0.0.2", true, 50},
		{"other/rung0", "10.0.0.3", false, 0},
		{"other/rung1", "10.0.0.4", false, 50},
		{"other/hostile", "10.0.0.5", false, 500},
	}
	tiers := []struct {
		name  string
		qtype dnswire.Type
		prime bool // answer the query once first so it hits the hot cache
	}{
		{"hot", dnswire.TypeA, true},
		{"view", dnswire.TypeA, false},
		{"decode", dnswire.TypeANY, false},
	}
	type want struct {
		outcome                ladderOutcome
		shedLevel              int // ladder level whose shed counter moves (0 = none)
		discarded, tailDropped uint64
	}
	expect := func(level, tier int, r resolver) want {
		hostile := r.penalty >= 200
		switch {
		case level == qod.LevelSaturated:
			return want{outcome: dropped, shedLevel: qod.LevelSaturated}
		case tiers[tier].name == "hot" || level == qod.LevelFull:
			// Hot hits skip the reputation rungs at every level below
			// saturation; at Full every tier only scores.
			if hostile {
				return want{outcome: dropped, discarded: 1}
			}
			return want{outcome: served}
		case !r.allowlisted:
			return want{outcome: refused, shedLevel: qod.LevelDegraded}
		case level == qod.LevelCleanOnly && r.penalty > 0:
			return want{outcome: refused, shedLevel: qod.LevelCleanOnly}
		}
		return want{outcome: served}
	}

	for _, lv := range levels {
		for ti, tier := range tiers {
			for _, r := range resolvers {
				name := fmt.Sprintf("%s/%s/%s", qod.LevelName(lv.level), tier.name, r.name)
				t.Run(name, func(t *testing.T) {
					allow := filters.NewAllowlist()
					penalty := &resolverPenalty{by: map[string]float64{}}
					for _, rr := range resolvers {
						if rr.allowlisted {
							allow.Add(rr.addr)
						}
						penalty.by[rr.addr] = rr.penalty
					}
					store := zone.NewStore()
					store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
					cfg := DefaultConfig()
					cfg.MaxInflight = maxInflight
					srv := New(cfg, nameserver.NewEngine(store), filters.NewPipeline(allow, penalty))
					q := dnswire.NewQuery(7, dnswire.MustName("www.ex.test"), tier.qtype)
					wire, err := q.Pack()
					if err != nil {
						t.Fatal(err)
					}
					sc := scratchPool.Get().(*scratch)
					defer scratchPool.Put(sc)
					if tier.prime {
						primer := netip.MustParseAddrPort("10.0.0.1:53")
						if srv.handlePacket(wire, primer, false, sc) == nil {
							t.Fatal("priming query unanswered")
						}
						if hits, _, _ := srv.hot.Stats(); hits != 0 {
							t.Fatalf("priming query hit the cache (%d hits)", hits)
						}
					}
					for i := 0; i < lv.occupied; i++ {
						srv.ladder.Enter()
					}
					defer func() {
						for i := 0; i < lv.occupied; i++ {
							srv.ladder.Exit()
						}
					}()
					var shedBefore [qod.LevelSaturated + 1]uint64
					for l := qod.LevelDegraded; l <= qod.LevelSaturated; l++ {
						shedBefore[l] = srv.shed[l].Load()
					}
					discBefore := srv.Metrics.Discarded.Load()
					tailBefore := srv.Metrics.TailDropped.Load()
					hitsBefore, _, _ := srv.hot.Stats()

					src := netip.AddrPortFrom(netip.MustParseAddr(r.addr), 5353)
					resp := srv.handlePacket(wire, src, false, sc)

					got := dropped
					if resp != nil {
						m, err := dnswire.Unpack(resp)
						if err != nil {
							t.Fatalf("unpack: %v", err)
						}
						if m.ID != 7 {
							t.Fatalf("ID = %d", m.ID)
						}
						got = served
						if m.RCode == dnswire.RCodeRefused {
							got = refused
						} else if m.RCode != dnswire.RCodeNoError || len(m.Answers) == 0 {
							t.Fatalf("served answer: %v", m)
						}
					}
					w := expect(lv.level, ti, r)
					if got != w.outcome {
						t.Errorf("outcome = %s, want %s", got, w.outcome)
					}
					for l := qod.LevelDegraded; l <= qod.LevelSaturated; l++ {
						d := srv.shed[l].Load() - shedBefore[l]
						wantD := uint64(0)
						if l == w.shedLevel {
							wantD = 1
						}
						if d != wantD {
							t.Errorf("shed{level=%s} delta = %d, want %d", qod.LevelName(l), d, wantD)
						}
					}
					if d := srv.Metrics.Discarded.Load() - discBefore; d != w.discarded {
						t.Errorf("Discarded delta = %d, want %d", d, w.discarded)
					}
					if d := srv.Metrics.TailDropped.Load() - tailBefore; d != w.tailDropped {
						t.Errorf("TailDropped delta = %d, want %d", d, w.tailDropped)
					}
					hits, _, _ := srv.hot.Stats()
					if tier.prime && lv.level != qod.LevelSaturated && hits != hitsBefore+1 {
						t.Errorf("hot tier row did not hit the cache")
					}
					if !tier.prime && hits != hitsBefore {
						t.Errorf("%s tier row hit the cache", tier.name)
					}
				})
			}
		}
	}
}

// TestScoreOnceOnOversizeHandoff: a query the wire tier admits and then
// hands to the decode path because its answer exceeds the client's payload
// limit is scored exactly once, and the client gets the truncated reply.
func TestScoreOnceOnOversizeHandoff(t *testing.T) {
	var b strings.Builder
	b.WriteString("$ORIGIN ex.test.\n$TTL 300\n")
	b.WriteString("@ IN SOA ns1 host ( 7 3600 600 604800 30 )\n@ IN NS ns1\nns1 IN A 198.51.100.1\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "big IN TXT \"txt-record-number-%06d\"\n", i)
	}
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(b.String(), dnswire.MustName("ex.test")))
	counter := &resolverPenalty{by: map[string]float64{}}
	srv := New(DefaultConfig(), nameserver.NewEngine(store), filters.NewPipeline(counter))
	wire, err := dnswire.NewQuery(9, dnswire.MustName("big.ex.test"), dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp := handleOnce(t, srv, wire)
	if resp == nil {
		t.Fatal("no response")
	}
	m, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Truncated {
		t.Fatalf("reply not truncated: %v", m)
	}
	if n := counter.calls.Load(); n != 1 {
		t.Fatalf("Score called %d times, want 1", n)
	}
}
