package main

// The UDP load generator. A lane is one client socket with a sender (the
// caller's goroutine, running one phase at a time) and a receiver
// goroutine that checks every response with the oracle. Queries carry
// their sequence number in the DNS ID, so a lane keeps one slot per ID.

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"akamaidns/internal/udpbatch"
)

// querySource yields the seq'th query of a stream and its description.
type querySource interface {
	query(dst []byte, seq int64) []byte
	info(seq int64) qinfo
}

const (
	batchK       = 32              // datagrams per sendmmsg/recvmmsg
	queryTimeout = 2 * time.Second // unanswered after this: failed
	histMaxUs    = 1 << 18         // latency histogram range (µs)
)

// hist is a 1 µs resolution latency histogram; the last bucket collects
// everything at or beyond histMaxUs.
type hist struct {
	b [histMaxUs + 1]atomic.Uint32
	n atomic.Int64
}

func (h *hist) add(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	if us > histMaxUs {
		us = histMaxUs
	}
	h.b[us].Add(1)
	h.n.Add(1)
}

// quantile returns the q-quantile in µs (0 when empty).
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n-1)) + 1
	var acc int64
	for i := range h.b {
		acc += int64(h.b[i].Load())
		if acc >= rank {
			return float64(i)
		}
	}
	return histMaxUs
}

func (h *hist) reset() {
	for i := range h.b {
		h.b[i].Store(0)
	}
	h.n.Store(0)
}

// slot tracks the query currently using one DNS ID.
type slot struct {
	seq atomic.Int64  // seq+1 while outstanding, 0 when resolved
	t   atomic.Int64  // ns since the lane epoch: due time (open loop) or send time
	lo  atomic.Uint32 // lowest acceptable zone serial (churn)
}

// lane is one client UDP socket.
type lane struct {
	name string
	conn *net.UDPConn
	// rb and sb wrap the same socket for the receiver and the sender.
	// They must be separate: one udpbatch.Conn keeps the result of its
	// last syscall in fields its read and write paths share, so a read
	// racing a write can make Flush resend or skip datagrams.
	rb, sb *udpbatch.Conn
	src    querySource
	orc    *oracle
	epoch  time.Time
	ids    int64 // DNS IDs used by the lane: seq mod ids

	// serialRange, when set, gives the acceptable serials of a zone: lo
	// at send time (stored in the slot) and hi at receive time (churn).
	serialRange func(zone int32) (lo, hi uint32)

	slots []slot
	next  int64 // next seq to send (sender only)
	low   int64 // all seqs below low are resolved (sender only)

	inflight atomic.Int64
	answered atomic.Int64 // correct answers
	wrong    atomic.Int64
	lost     atomic.Int64
	late     atomic.Int64 // answers to queries already answered or expired
	lat      hist         // latency of the current window
	behind   hist         // open-loop sender lateness (sender only)
	sent     int64

	pr *probes // set by enableProbes

	waiting atomic.Bool
	wake    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	qbuf    []byte
}

// newLane dials the server from the local address and starts the receiver.
func newLane(name string, local netip.Addr, server netip.AddrPort, src querySource, orc *oracle, ids int64) (*lane, error) {
	conn, err := net.DialUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(local, 0)), net.UDPAddrFromAddrPort(server))
	if err != nil {
		return nil, fmt.Errorf("lane %s: %w", name, err)
	}
	_ = conn.SetReadBuffer(4 << 20)  // best effort; clamped by rmem_max
	_ = conn.SetWriteBuffer(4 << 20) // best effort; clamped by wmem_max
	rb, err := udpbatch.New(conn, batchK)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("lane %s: %w", name, err)
	}
	sb, err := udpbatch.New(conn, batchK)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("lane %s: %w", name, err)
	}
	l := &lane{name: name, conn: conn, rb: rb, sb: sb, src: src, orc: orc, epoch: time.Now(), ids: ids,
		slots: make([]slot, ids), wake: make(chan struct{}, 1), done: make(chan struct{})}
	l.wg.Add(1)
	go l.receive()
	return l, nil
}

func (l *lane) now() int64 { return int64(time.Since(l.epoch)) }

// sinceEpoch converts a CLOCK_MONOTONIC reading to the lane's clock
// through a reading taken between two of the lane's, so it is right to
// within a microsecond. An open loop's start must be: a start slightly
// late would hold each tick's queries back a whole tick whenever the
// wakeup came sooner, and a start early would add to every latency.
func (l *lane) sinceEpoch(mono int64) (int64, error) {
	a := l.now()
	m, err := monotonicNow()
	if err != nil {
		return 0, err
	}
	return mono - m + (a+l.now())/2, nil
}

// close stops the receiver and waits for it.
func (l *lane) close() {
	close(l.done)
	l.conn.Close()
	l.wg.Wait()
}

func (l *lane) receive() {
	defer l.wg.Done()
	var qbuf []byte
	for {
		n, err := l.rb.ReadBatch()
		if err != nil {
			select {
			case <-l.done:
				return
			default:
			}
			continue
		}
		now := l.now()
		for i := 0; i < n; i++ {
			p := l.rb.Packet(i)
			if len(p) < 12 {
				continue
			}
			id := int64(uint16(p[0])<<8 | uint16(p[1]))
			if id >= l.ids {
				l.deliverProbe(id, p)
				continue
			}
			s := &l.slots[id]
			cur := s.seq.Load()
			if cur == 0 {
				l.late.Add(1) // an answer after expiry, or a duplicate
				continue
			}
			seq := cur - 1
			t0 := s.t.Load()
			lo := s.lo.Load()
			if !s.seq.CompareAndSwap(cur, 0) {
				continue
			}
			l.inflight.Add(-1)
			qi := l.src.info(seq)
			hi := uint32(1)
			if l.serialRange != nil {
				_, hi = l.serialRange(qi.zone)
				if hi < lo {
					hi = lo
				}
			} else {
				lo = 1
			}
			qbuf = l.src.query(qbuf, seq)
			if l.orc.check(p, qbuf, uint16(id), qi, lo, hi) != verdictOK {
				l.wrong.Add(1)
				continue
			}
			l.answered.Add(1)
			l.lat.add(time.Duration(now - t0))
		}
		if l.waiting.Load() && l.waiting.CompareAndSwap(true, false) {
			select {
			case l.wake <- struct{}{}:
			default:
			}
		}
	}
}

// stage prepares query seq in send slot j, stamped with time t.
func (l *lane) stage(j int, seq, t int64) {
	id := seq % l.ids
	s := &l.slots[id]
	if s.seq.Load() != 0 {
		// The ID is still in use: its query is older than a full ID cycle
		// and counts as lost.
		if old := s.seq.Swap(0); old != 0 {
			l.lost.Add(1)
			l.inflight.Add(-1)
		}
	}
	l.qbuf = l.src.query(l.qbuf, seq)
	l.qbuf[0], l.qbuf[1] = byte(id>>8), byte(id)
	if l.serialRange != nil {
		lo, _ := l.serialRange(l.src.info(seq).zone)
		s.lo.Store(lo)
	}
	s.t.Store(t)
	s.seq.Store(seq + 1)
	l.inflight.Add(1)
	l.sb.StageConnected(j, l.qbuf)
}

func (l *lane) flush(m int) {
	if m == 0 {
		return
	}
	sent, _, _ := l.sb.Flush(m)
	l.sent += int64(m)
	_ = sent // unsent datagrams stay outstanding and expire as lost
}

// expire advances low past resolved slots, failing queries older than
// queryTimeout.
func (l *lane) expire(now int64) {
	for l.low < l.next {
		s := &l.slots[l.low%l.ids]
		cur := s.seq.Load()
		if cur != l.low+1 {
			l.low++
			continue
		}
		if now-s.t.Load() < int64(queryTimeout) {
			return
		}
		if s.seq.CompareAndSwap(cur, 0) {
			l.lost.Add(1)
			l.inflight.Add(-1)
		}
		l.low++
	}
}

// closedLoop keeps window queries outstanding until the deadline.
func (l *lane) closedLoop(window int, until time.Time) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for time.Now().Before(until) {
		now := l.now()
		l.expire(now)
		m := 0
		for int(l.inflight.Load()) < window && m < batchK {
			l.stage(m, l.next, now)
			l.next++
			m++
		}
		l.flush(m)
		if m > 0 {
			continue
		}
		l.waiting.Store(true)
		if int(l.inflight.Load()) < window {
			l.waiting.Store(false)
			continue
		}
		timer.Reset(5 * time.Millisecond)
		select {
		case <-l.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
			l.waiting.Store(false)
		}
	}
}

// tickPeriod is the open-loop sender's wake period. Each query is due at
// its even-spaced send time rounded down to a tick, so traffic leaves in
// small bursts, each query timed from when it was due.
const tickPeriod = time.Millisecond

// flow is one lane's part of an open loop: the lane sends at rate.
type flow struct {
	l    *lane
	rate float64
}

// openLoop sends each flow at its fixed rate until the deadline, all from
// the calling goroutine on one tick grid. At each tick the flows send
// what is due in the order given, so their queries reach the server in
// that order; with a goroutine per flow it would depend on which one the
// runtime woke first. Each query is stamped with its due time, so a
// stalled sender's backlog shows in the latencies, and each lane's
// sender lateness is recorded.
func openLoop(until time.Time, flows ...flow) error {
	tk, firstTick, err := newTicker(tickPeriod)
	if err != nil {
		return err
	}
	defer tk.close()
	dues := make([]func(int64) int64, len(flows))
	var end int64
	for i, f := range flows {
		start, err := f.l.sinceEpoch(firstTick)
		if err != nil {
			return err
		}
		if i == 0 {
			end = int64(time.Until(until)) + start
		}
		interval := float64(time.Second) / f.rate
		first := f.l.next
		dues[i] = func(seq int64) int64 {
			at := int64(float64(seq-first) * interval)
			return start + at - at%int64(tickPeriod)
		}
	}
	for {
		if err := tk.wait(); err != nil {
			return err
		}
		for i, f := range flows {
			now := f.l.now()
			if i == 0 && now >= end {
				return nil
			}
			f.l.expire(now)
			f.l.sendDue(now, dues[i])
		}
	}
}

// sendDue sends every query due by now.
func (l *lane) sendDue(now int64, due func(int64) int64) {
	for {
		m := 0
		for m < batchK {
			d := due(l.next)
			if d > now {
				break
			}
			l.behind.add(time.Duration(now - d))
			l.stage(m, l.next, d)
			l.next++
			m++
		}
		l.flush(m)
		if m < batchK {
			return
		}
	}
}

// drain waits until every outstanding query is answered or expired.
func (l *lane) drain() {
	for l.inflight.Load() > 0 {
		l.expire(l.now())
		time.Sleep(time.Millisecond)
		if l.low >= l.next {
			break
		}
	}
}

// counts is a snapshot of a lane's outcome counters.
type counts struct{ sent, answered, wrong, lost int64 }

func (l *lane) counts() counts {
	return counts{sent: l.sent, answered: l.answered.Load(), wrong: l.wrong.Load(), lost: l.lost.Load()}
}
