package main

import (
	"math/rand"
	"net"
	"testing"
	"time"
)

// serveOnce sends one query to a small live server and returns the answer.
func serveOnce(t *testing.T, st *servingSetup, q []byte) []byte {
	t.Helper()
	conn, err := net.Dial("udp", st.srv.UDPAddrActual())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(q); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// TestOracleRejectsTamperedResponses checks real answers of every kind
// pass the oracle and that a single tampered byte fails it, both on the
// first (fully decoded) check and once the answer's shape is approved.
func TestOracleRejectsTamperedResponses(t *testing.T) {
	zs := newZoneSet(8, "bench.")
	st, err := setupServing(zs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()
	c := uniformCorpus(zs, 64, mix{edns: 0.5, nx: 0.25, refer: 0.25}, rand.New(rand.NewSource(7)))
	seen := map[uint8]bool{}
	for i := range c.wires {
		qi := c.infos[i]
		seen[qi.kind] = true
		q := c.query(nil, int64(i))
		id := uint16(0x1000 + i)
		q[0], q[1] = byte(id>>8), byte(id)
		resp := serveOnce(t, st, q)
		orc := newOracle(zs)
		if orc.check(resp, q, id, qi, 1, 1) != verdictOK {
			t.Fatalf("query %d (kind %d): real answer rejected", i, qi.kind)
		}
		for _, off := range []int{1, 2, 3, len(resp) - 1} {
			bad := append([]byte(nil), resp...)
			bad[off] ^= 0x04
			if orc.check(bad, q, id, qi, 1, 1) != verdictWrong {
				t.Errorf("query %d (kind %d): byte %d tampered after approval, still accepted", i, qi.kind, off)
			}
			if newOracle(zs).check(bad, q, id, qi, 1, 1) != verdictWrong {
				t.Errorf("query %d (kind %d): byte %d tampered, accepted by a fresh oracle", i, qi.kind, off)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("corpus covered kinds %v, want all four", seen)
	}
}

// TestChurnSerialWindow checks a serial-coded answer passes only when its
// serial is inside the window the oracle is given.
func TestChurnSerialWindow(t *testing.T) {
	zs := newZoneSet(4, "churn.")
	q := packQuery(child(zs.origin(2), "www"), false)
	z, err := zs.build(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := setupServing(zs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()
	st.store.Put(z)
	resp := serveOnce(t, st, q)
	qi := qinfo{zone: 2, kind: kindWWW}
	if newOracle(zs).check(resp, q, 0, qi, 4, 6) != verdictOK {
		t.Fatal("serial 5 rejected inside [4,6]")
	}
	if newOracle(zs).check(resp, q, 0, qi, 5, 5) != verdictOK {
		t.Fatal("serial 5 rejected inside [5,5]")
	}
	if newOracle(zs).check(resp, q, 0, qi, 6, 7) != verdictWrong {
		t.Fatal("serial 5 accepted outside [6,7]")
	}
}

func TestCorpusDeterministic(t *testing.T) {
	zs := newZoneSet(1000, "bench.")
	a := zipfCorpus(zs, 4096, zipfS, servingMix, rand.New(rand.NewSource(3)))
	b := zipfCorpus(zs, 4096, zipfS, servingMix, rand.New(rand.NewSource(3)))
	c := zipfCorpus(zs, 4096, zipfS, servingMix, rand.New(rand.NewSource(4)))
	if hashHex(a.hash(nil)) != hashHex(b.hash(nil)) {
		t.Fatal("same seed gave different corpora")
	}
	if hashHex(a.hash(nil)) == hashHex(c.hash(nil)) {
		t.Fatal("different seeds gave the same corpus")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q[0] != 2.75 || q[1] != 5.5 || q[2] != 8.25 {
		t.Fatalf("quartiles = %v", q)
	}
}

// TestLaneLoops drives a small live server with both loops of one lane
// while its receiver runs, so -race sees the sender, receiver and oracle
// share state only through the slot atomics; every query must be
// answered correctly, and the server must see exactly what was sent.
func TestLaneLoops(t *testing.T) {
	zs := newZoneSet(16, "bench.")
	st, err := setupServing(zs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()
	c := uniformCorpus(zs, 512, servingMix, rand.New(rand.NewSource(3)))
	l, err := newLane("t", clientA, st.addr(), c, newOracle(zs), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	l.closedLoop(8, time.Now().Add(100*time.Millisecond))
	l.drain()
	if err := openLoop(time.Now().Add(100*time.Millisecond), flow{l, 2000}); err != nil {
		t.Fatal(err)
	}
	l.drain()
	got := l.counts()
	if got.sent == 0 || got.answered != got.sent || got.wrong != 0 || got.lost != 0 {
		t.Fatalf("counts %+v", got)
	}
	if q := int64(st.srv.Metrics.UDPQueries.Load()); q != got.sent {
		t.Fatalf("server read %d queries, lane sent %d", q, got.sent)
	}
}

// TestTicksOnLaneClock checks the open loop's tick grid lands on the
// lane's clock where the ticks fire: no wakeup is seen before its tick,
// and a CLOCK_MONOTONIC reading converts to the lane's current time.
func TestTicksOnLaneClock(t *testing.T) {
	zs := newZoneSet(4, "bench.")
	st, err := setupServing(zs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()
	c := uniformCorpus(zs, 64, servingMix, rand.New(rand.NewSource(3)))
	l, err := newLane("t", clientA, st.addr(), c, newOracle(zs), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	mono, err := monotonicNow()
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.sinceEpoch(mono)
	if err != nil {
		t.Fatal(err)
	}
	if d := l.now() - got; d < 0 || d > int64(50*time.Microsecond) {
		t.Fatalf("CLOCK_MONOTONIC reading converted %d ns from the lane's clock", d)
	}
	tk, first, err := newTicker(tickPeriod)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.close()
	start, err := l.sinceEpoch(first)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 20; k++ {
		if err := tk.wait(); err != nil {
			t.Fatal(err)
		}
		if now, due := l.now(), start+k*int64(tickPeriod); now < due {
			t.Fatalf("tick %d seen %d ns before it was due", k, due-now)
		}
	}
}

// TestProbeStates checks a churn visibility probe tells the new serial,
// an older one inside the window, and one outside it apart.
func TestProbeStates(t *testing.T) {
	zs := newZoneSet(4, "churn.")
	st, err := setupServing(zs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()
	z, err := zs.build(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	st.store.Put(z)
	c := uniformCorpus(zs, 64, churnMix, rand.New(rand.NewSource(3)))
	l, err := newLane("t", clientA, st.addr(), c, newOracle(zs), probeIDBase)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	l.enableProbes(zs)
	for _, tc := range []struct {
		lo, serial uint32
		want       probeState
	}{{4, 5, probeVisible}, {4, 6, probeOlder}, {6, 7, probeWrong}, {1, 4, probeWrong}} {
		if _, got := l.probe(2, tc.lo, tc.serial); got != tc.want {
			t.Errorf("probe for serial %d from %d: state %d, want %d", tc.serial, tc.lo, got, tc.want)
		}
	}
}
