package main

import (
	"bytes"

	"akamaidns/internal/dnswire"
)

// verdict is the oracle's judgement of one response.
type verdict uint8

const (
	verdictOK verdict = iota
	verdictWrong
)

// tmplKey identifies responses that must be byte-identical after the
// question section: same zone, kind, EDNS, question length and serial.
type tmplKey struct {
	zone   int32
	kind   uint8
	edns   bool
	qlen   uint8
	serial uint32
}

// approved is a response shape the oracle has fully checked: header
// bytes 2..11 (flags and counts) and everything after the question.
type approved struct {
	hdr  [10]byte
	tail []byte
}

// oracle checks responses against the zone model. Every response gets the
// full semantic check (decode, then compare header bits and each section
// record by record against the model) the first time its shape is seen;
// a response whose bytes equal an already-checked one of the same
// template passes by byte comparison. One oracle serves one receiver.
type oracle struct {
	zs    *zoneSet
	memo  map[tmplKey]approved
	bytes int64 // approximate heap held by memo
}

func newOracle(zs *zoneSet) *oracle {
	return &oracle{zs: zs, memo: make(map[tmplKey]approved)}
}

// memoEntryBytes approximates one memo entry's map slot and slice header.
const memoEntryBytes = 64

// questionEnd returns the offset just past the question of a query wire.
func questionEnd(q []byte) int {
	o := 12
	for q[o] != 0 {
		o += 1 + int(q[o])
	}
	return o + 1 + 4
}

// check judges resp as the answer to query (whose ID is id) described by
// qi, accepting any zone serial in [lo, hi].
func (o *oracle) check(resp, query []byte, id uint16, qi qinfo, lo, hi uint32) verdict {
	if len(resp) < 12 || uint16(resp[0])<<8|uint16(resp[1]) != id {
		return verdictWrong
	}
	qend := questionEnd(query)
	if len(resp) < qend || !bytes.Equal(resp[12:qend], query[12:qend]) {
		return verdictWrong
	}
	serialBound := qi.kind == kindWWW || qi.kind == kindNX
	if !serialBound {
		lo, hi = 1, 1
	}
	for s := hi; ; s-- {
		k := tmplKey{zone: qi.zone, kind: qi.kind, edns: qi.edns, qlen: uint8(qend - 12), serial: s}
		if a, ok := o.memo[k]; ok && bytes.Equal(resp[2:12], a.hdr[:]) && bytes.Equal(resp[qend:], a.tail) {
			return verdictOK
		}
		if s == lo {
			break
		}
	}
	m, err := dnswire.Unpack(append([]byte(nil), resp...))
	if err != nil || len(m.Questions) != 1 {
		return verdictWrong
	}
	for s := hi; ; s-- {
		if o.semantic(m, qi, s) {
			k := tmplKey{zone: qi.zone, kind: qi.kind, edns: qi.edns, qlen: uint8(qend - 12), serial: s}
			a := approved{tail: append([]byte(nil), resp[qend:]...)}
			copy(a.hdr[:], resp[2:12])
			o.memo[k] = a
			o.bytes += int64(len(a.tail)) + memoEntryBytes
			return verdictOK
		}
		if s == lo {
			break
		}
	}
	return verdictWrong
}

// semantic compares a decoded response with the model's answer at serial.
func (o *oracle) semantic(m *dnswire.Message, qi qinfo, serial uint32) bool {
	want := o.zs.expect(int(qi.zone), int(qi.kind), serial, m.Questions[0].Name)
	if !m.Response || m.OpCode != dnswire.OpQuery || m.Truncated || m.RecursionDesired ||
		m.Authoritative != want.aa || m.RCode != want.rcode {
		return false
	}
	var glue []dnswire.RR
	opts := 0
	for _, rr := range m.Additional {
		if rr.Header().Type == dnswire.TypeOPT {
			opts++
			continue
		}
		glue = append(glue, rr)
	}
	if (opts == 1) != qi.edns || opts > 1 {
		return false
	}
	return bytes.Equal(canon(m.Answers...), want.answer) &&
		bytes.Equal(canon(m.Authority...), want.authority) &&
		bytes.Equal(canon(glue...), want.glue)
}
