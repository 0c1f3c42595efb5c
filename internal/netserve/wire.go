package netserve

// This file is the wire tier: it answers any well-formed, non-client-
// specific UDP query without decoding it. An exact repeat is replayed from
// the packed-response hot cache; anything else — including the random-
// subdomain NXDOMAIN floods and delegation walks that are cache misses by
// construction — is assembled by appending pre-packed RRset bytes from the
// matched zone's immutable compiled View straight into the response
// buffer: no locks, no message decode, no per-query allocations.

import (
	"bytes"
	"net/netip"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/qod"
	"akamaidns/internal/zone"
)

// qodMarkerWire is the crash-trap label in wire-comparable form. Matching
// raw folded qname bytes can false-positive (a length octet masquerading as
// a marker character) but never false-negative — the marker contains no
// dots, so a text match is always contiguous within one label. A false
// positive merely routes the query to the decode path.
var qodMarkerWire = []byte(dnswire.QoDMarkerLabel)

// optEcho is the engine's fixed EDNS echo — NewOPT(1232) — in wire form:
// root owner, TYPE=OPT, CLASS=1232, zero TTL and RDLENGTH.
var optEcho = []byte{0, 0, 0x29, 0x04, 0xD0, 0, 0, 0, 0, 0, 0}

// wireEligible reports whether the wire tier may answer a query: a plain IN
// query, not a transfer or ANY, whose answer is the same for every client —
// no ECS tailoring, no cookie echo, no per-client Tailor hook, and no
// cookie requirement the decode path must enforce.
func (s *Server) wireEligible(v dnswire.QueryView) bool {
	if v.OpCode() != dnswire.OpQuery || v.QClass != dnswire.ClassINET || v.HasECS || v.HasCookie {
		return false
	}
	switch v.QType {
	case dnswire.TypeAXFR, dnswire.TypeIXFR, dnswire.TypeANY:
		return false
	}
	return s.Engine.Tailor == nil && !s.Cfg.RequireCookies
}

// sizeClassUDP buckets a query's advertised payload limit so one cached
// wire can serve every client in the bucket: the cached response is fitted
// to the bucket's floor, the smallest limit a member may have advertised.
// Clients advertising below the classic 512-octet minimum are eccentric
// enough to skip the cache.
func sizeClassUDP(v dnswire.QueryView) (class byte, floor int, ok bool) {
	if !v.HasOPT {
		return 2, dnswire.MaxUDPPayload, true
	}
	size := int(v.UDPSize)
	switch {
	case size < dnswire.MaxUDPPayload:
		return 0, 0, false
	case size < 1232:
		return 3, dnswire.MaxUDPPayload, true
	case size < 4096:
		return 4, 1232, true
	default:
		return 5, 4096, true
	}
}

// handleWire serves one wireEligible UDP query. The hot cache is consulted
// first, before any qname folding: a hit is replayed with the ID, RD bit
// and qname casing patched, so 0x20 mixed-case encoding round-trips. A miss
// passes the Degraded gate, is scored and admitted once, and is answered
// from the compiled view; answers for names that exist in the zone
// (wa.Cacheable) are inserted into the cache, so the key space stays
// bounded by zone contents and random-subdomain floods never insert. What
// the view cannot answer — a crash-trap name, a label the name parser would
// reject, an exotic record without pre-packed wire, an answer over the
// client's payload limit — goes on to the decode path, which does not score
// an admitted query again.
func (s *Server) handleWire(wire []byte, v dnswire.QueryView, src netip.AddrPort, sc *scratch, level int) []byte {
	span := s.Tracer.Begin()
	span.Mark(obs.StageReceive)
	span.Mark(obs.StageCookie)
	sc.note.QnameWire = v.QnameWire(wire)
	sc.note.QType = uint16(v.QType)
	gen := s.Engine.Store.Gen()
	class, floor, cacheable := sizeClassUDP(v)
	cacheable = cacheable && s.hot != nil
	if cacheable {
		sc.key = v.AppendCacheKey(sc.key[:0], wire, class)
		if e, hit := s.hot.Lookup(sc.key, gen); hit {
			// Hits are scored with the entry's parsed name and zone but skip
			// the clean-only refusal: replaying costs less than refusing.
			if s.scoring() {
				fq := filters.Query{Resolver: s.resolverKey(src.Addr()), Name: e.Name, Type: v.QType, Zone: e.Zone}
				if ok, _ := s.admit(sc, &span, &fq, false); !ok {
					return nil
				}
			}
			span.Mark(obs.StageLookup)
			sc.dispose(flight.VerdictCached, uint8(e.RCode), zoneLabel(e.Zone))
			out := append(sc.out[:0], e.Wire...)
			out[0], out[1] = byte(v.ID>>8), byte(v.ID)
			if v.RecursionDesired() {
				out[2] |= 0x01
			} else {
				out[2] &^= 0x01
			}
			// Restore the client's exact qname spelling (0x20 case randomization).
			copy(out[12:12+v.QnameLen], wire[12:12+v.QnameLen])
			sc.out = out
			span.Mark(obs.StageWrite)
			span.End()
			return out
		}
	}
	if out, shed := s.shedDegraded(wire, v, true, src, sc, level); shed {
		return out
	}
	qfold, ok := v.AppendQnameFolded(sc.vq[:0], wire)
	sc.vq = qfold[:0]
	if !ok || bytes.Contains(qfold, qodMarkerWire) {
		// A label byte the name parser would reject gets the decode path's
		// FORMERR handling; crash-trap names must reach the engine inside the
		// containment boundary so quarantine and journaling see them.
		return s.handleSlow(wire, src, false, sc, level, false)
	}
	z, _, found := s.Engine.Store.FindWire(qfold)
	admitted := false
	if s.scoring() {
		// Building the filters.Query costs the one Name allocation; without a
		// pipeline the path stays allocation-free.
		name, okN := dnswire.NameFromFoldedWire(qfold)
		if !okN {
			return s.handleSlow(wire, src, false, sc, level, false)
		}
		fq := filters.Query{Resolver: s.resolverKey(src.Addr()), Name: name, Type: v.QType}
		if found {
			fq.Zone = z.Origin()
		}
		ok, refuse := s.admit(sc, &span, &fq, level >= qod.LevelCleanOnly)
		if !ok {
			if refuse {
				return refuseWire(wire, v, sc)
			}
			return nil
		}
		admitted = true
	}
	if !found {
		// Outside every hosted zone: REFUSED in the engine's shape, which
		// echoes EDNS.
		sc.dispose(flight.VerdictView, uint8(dnswire.RCodeRefused), "")
		out := refuseWire(wire, v, sc)
		if v.HasOPT {
			out[11] = 1
			out = append(out, optEcho...)
			sc.out = out
		}
		span.Mark(obs.StageLookup)
		span.Mark(obs.StageWrite)
		span.End()
		s.Metrics.ViewServed.Add(1)
		return out
	}
	view := z.View()
	// Header + question echo: ID, QR|RD, counts patched below; the question
	// is replayed raw so 0x20 mixed-case spelling round-trips, and the
	// answer owners point into it (case-insensitively equal to the folded
	// bytes the lookup matched on).
	out := append(sc.out[:0],
		wire[0], wire[1],
		0x80|wire[2]&0x01, 0,
		0, 1, 0, 0, 0, 0, 0, 0)
	out = append(out, wire[12:12+v.QnameLen+4]...)
	out, wa, okA := view.AppendAnswer(out, qfold, 12, v.QType)
	if !okA {
		sc.out = out[:0]
		return s.handleSlow(wire, src, false, sc, level, admitted)
	}
	aa := byte(0x04)
	var rcode dnswire.RCode
	switch wa.Result {
	case zone.Delegation:
		aa = 0
	case zone.NXDomain:
		rcode = dnswire.RCodeNXDomain
	}
	out[2] |= aa
	out[3] = byte(rcode)
	ar := wa.Additional
	if v.HasOPT {
		out = append(out, optEcho...)
		ar++
	}
	out[6], out[7] = byte(wa.Answer>>8), byte(wa.Answer)
	out[8], out[9] = byte(wa.Authority>>8), byte(wa.Authority)
	out[10], out[11] = byte(ar>>8), byte(ar)
	limit := dnswire.MaxUDPPayload
	if v.HasOPT && int(v.UDPSize) > limit {
		limit = int(v.UDPSize)
	}
	if len(out) > limit {
		// Oversize: the decode path owns truncation and TC signaling.
		sc.out = out[:0]
		return s.handleSlow(wire, src, false, sc, level, admitted)
	}
	sc.out = out
	if cacheable && wa.Cacheable && len(out) <= floor {
		s.hot.Insert(sc.key, &nameserver.HotEntry{
			Wire:     append([]byte(nil), out...),
			QnameLen: v.QnameLen,
			Name:     wa.Name,
			Zone:     view.Origin(),
			RCode:    rcode,
		}, gen)
	}
	span.Mark(obs.StageLookup)
	span.Mark(obs.StageWrite)
	span.End()
	s.Metrics.ViewServed.Add(1)
	sc.dispose(flight.VerdictView, uint8(rcode), zoneLabel(view.Origin()))
	return out
}
