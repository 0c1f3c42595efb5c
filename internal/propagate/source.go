package propagate

import (
	"sync"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// Source is the controller side of the pull protocol: it answers catalog,
// IXFR, and AXFR requests from the control plane's live store and its
// bounded version history. It is safe for concurrent use.
//
// Versions reach the history two ways: the control plane records each
// committed version explicitly (ctlplane.Config.History), and the source
// lazily snapshots any zone whose live serial has moved past the newest
// retained one (covering direct store mutations such as heartbeat serial
// bumps). Either way the serial discipline holds: a mutation without a
// serial bump is invisible to propagation, exactly as in real DNS.
type Source struct {
	store *zone.Store
	hist  *zone.History
	mu    sync.Mutex // serializes lazy history sync
	// syncedGen is the store generation the last completed sync swept
	// (meaningful once synced is set): an unchanged generation means no
	// serial can have moved since.
	syncedGen uint64
	synced    bool
}

// NewSource serves the pull protocol from store, using hist for deltas.
func NewSource(store *zone.Store, hist *zone.History) *Source {
	if hist == nil {
		hist = zone.NewHistory(8)
	}
	return &Source{store: store, hist: hist}
}

// History exposes the delta history (for wiring into ctlplane config).
func (s *Source) History() *zone.History { return s.hist }

// Store exposes the authoritative store the source serves from.
func (s *Source) Store() *zone.Store { return s.store }

// sync records any zone whose live serial is not the newest retained one.
// The sweep is O(zones), so it runs only when the store generation moved
// since the last one; otherwise a machine's cold sync, one request per
// zone, would cost O(zones²).
func (s *Source) sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Read the generation before the serial snapshot: a mutation bumps the
	// generation after changing the serial, so one the snapshot misses
	// leaves the generation past gen and the next request sweeps again.
	gen := s.store.Gen()
	if s.synced && gen == s.syncedGen {
		return
	}
	for origin, serial := range s.store.Serials() {
		if s.hist.Latest(origin) != serial {
			if z := s.store.Get(origin); z != nil {
				s.hist.Record(z)
			}
		}
	}
	s.syncedGen, s.synced = gen, true
}

// Handle answers one request synchronously. Transports call it at
// delivery time.
func (s *Source) Handle(req Request) *Response {
	s.sync()
	resp := &Response{Op: req.Op, Origin: req.Origin}
	switch req.Op {
	case OpCatalog:
		resp.Serials = s.store.Serials()
	case OpIXFR:
		s.handleIXFR(req, resp)
	case OpAXFR:
		s.handleAXFR(req, resp)
	}
	resp.Seal()
	return resp
}

func (s *Source) handleIXFR(req Request, resp *Response) {
	d, st := s.hist.DeltaFrom(req.Origin, req.FromSerial)
	if st != zone.DeltaOK {
		// Evicted, unknown, or no history at all: the client cannot be
		// served a delta and must take a full transfer.
		resp.Resync = true
		return
	}
	target := s.hist.Version(req.Origin, d.ToSerial)
	if target == nil {
		// The target version raced out of the history between DeltaFrom
		// and here; the delta cannot be content-verified, so resync.
		resp.Resync = true
		return
	}
	resp.Delta = d
	resp.ToSerial = d.ToSerial
	resp.ZoneSum = ZoneSum(target)
}

func (s *Source) handleAXFR(req Request, resp *Response) {
	recs := s.store.Transfer(req.Origin)
	if recs == nil {
		// Origin gone (or never served): nil Records tells the client to
		// delete its copy.
		return
	}
	resp.Records = recs
	if soa, ok := recs[0].(*dnswire.SOA); ok {
		resp.ToSerial = soa.Serial
	}
	// Transfer frames SOA ... SOA; the zone content is the stream minus
	// the trailing SOA, and its multiset hash equals the hash of the
	// reassembled zone on the client.
	resp.ZoneSum = hashStr("zone:"+req.Origin.String()) ^ recordsSum(recs[:len(recs)-1])
}
