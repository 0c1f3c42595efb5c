package main

// The benchmark's own model of the zones it generates, the query corpus
// drawn from it, and the answer oracle that checks every response against
// the model rather than against anything the server computed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// Query kinds of the model.
const (
	kindWWW   = iota // www.<zone> A: one A record, serial-coded in churn zones
	kindAPI          // api.<zone> A: one fixed A record
	kindNX           // <random>.<zone> A: NXDOMAIN with the SOA in authority
	kindRefer        // <random>.sub.<zone> A: referral, NS plus glue, AA clear
)

const (
	ttl        = 300
	ednsSize   = 1232
	labelBytes = 12 // random labels of NXDOMAIN and referral names
)

// zoneSet is the model of n generated zones. Zone i's origin is
// origin(i); its records depend only on i and a serial, so the oracle can
// rebuild any expected answer from (zone, kind, serial).
type zoneSet struct {
	n      int
	suffix string // "bench." or "churn."
}

func newZoneSet(n int, suffix string) *zoneSet { return &zoneSet{n: n, suffix: suffix} }

func (zs *zoneSet) originText(i int) string { return fmt.Sprintf("z%06d.%s", i, zs.suffix) }

func (zs *zoneSet) origin(i int) dnswire.Name { return dnswire.MustName(zs.originText(i)) }

// wwwAddr encodes the zone index and serial in the low 24 bits, so an
// answer from the wrong zone fails the oracle and a churned zone's answer
// tells which version served it.
func wwwAddr(i int, serial uint32) netip.Addr {
	x := uint32(i)*40503 + serial
	return netip.AddrFrom4([4]byte{10, byte(x >> 16), byte(x >> 8), byte(x)})
}

func apiAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{172, byte(i >> 16), byte(i >> 8), byte(i)})
}

var (
	nsAddr   = netip.MustParseAddr("192.0.2.1")
	glueAddr = netip.MustParseAddr("192.0.2.53")
)

func hdr(name dnswire.Name, t dnswire.Type) dnswire.RRHeader {
	return dnswire.RRHeader{Name: name, Type: t, Class: dnswire.ClassINET, TTL: ttl}
}

func (zs *zoneSet) soa(i int, serial uint32) *dnswire.SOA {
	o := zs.origin(i)
	return &dnswire.SOA{RRHeader: hdr(o, dnswire.TypeSOA),
		MName: child(o, "ns1"), RName: child(o, "hostmaster"),
		Serial: serial, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 300}
}

func child(parent dnswire.Name, label string) dnswire.Name {
	n, err := parent.Prepend(label)
	if err != nil {
		panic(err) // labels are fixed and short
	}
	return n
}

// records is zone i at serial: apex SOA and NS, the nameserver address,
// www and api, and a delegated child "sub" with in-bailiwick glue.
func (zs *zoneSet) records(i int, serial uint32) []dnswire.RR {
	o := zs.origin(i)
	sub := child(o, "sub")
	return []dnswire.RR{
		zs.soa(i, serial),
		&dnswire.NS{RRHeader: hdr(o, dnswire.TypeNS), Target: child(o, "ns1")},
		&dnswire.A{RRHeader: hdr(child(o, "ns1"), dnswire.TypeA), Addr: nsAddr},
		&dnswire.A{RRHeader: hdr(child(o, "www"), dnswire.TypeA), Addr: wwwAddr(i, serial)},
		&dnswire.A{RRHeader: hdr(child(o, "api"), dnswire.TypeA), Addr: apiAddr(i)},
		&dnswire.NS{RRHeader: hdr(sub, dnswire.TypeNS), Target: child(sub, "ns")},
		&dnswire.A{RRHeader: hdr(child(sub, "ns"), dnswire.TypeA), Addr: glueAddr},
	}
}

// build constructs zone i with zone.New and Add.
func (zs *zoneSet) build(i int, serial uint32) (*zone.Zone, error) {
	z := zone.New(zs.origin(i))
	for _, rr := range zs.records(i, serial) {
		if err := z.Add(rr); err != nil {
			return nil, err
		}
	}
	return z, nil
}

// masterText renders zone i at serial as master-file text, the form the
// control plane's HTTP API accepts.
func (zs *zoneSet) masterText(i int, serial uint32) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "$TTL %d\n", ttl)
	for _, rr := range zs.records(i, serial) {
		b.WriteString(rr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// expected is the model's answer to one query: the header bits that must
// hold and each section rendered record by record in canonical
// (uncompressed) wire form.
type expected struct {
	rcode     dnswire.RCode
	aa        bool
	answer    []byte
	authority []byte
	glue      []byte
}

func canon(rrs ...dnswire.RR) []byte {
	var out []byte
	for _, rr := range rrs {
		var err error
		if out, err = dnswire.AppendRR(out, rr); err != nil {
			panic(err) // model records are well formed
		}
	}
	return out
}

// expect computes the model's answer for a query of kind k against zone i
// at serial, for query name qname.
func (zs *zoneSet) expect(i, k int, serial uint32, qname dnswire.Name) expected {
	o := zs.origin(i)
	switch k {
	case kindWWW:
		return expected{aa: true, answer: canon(&dnswire.A{RRHeader: hdr(qname, dnswire.TypeA), Addr: wwwAddr(i, serial)})}
	case kindAPI:
		return expected{aa: true, answer: canon(&dnswire.A{RRHeader: hdr(qname, dnswire.TypeA), Addr: apiAddr(i)})}
	case kindNX:
		return expected{rcode: dnswire.RCodeNXDomain, aa: true, authority: canon(zs.soa(i, serial))}
	default:
		sub := child(o, "sub")
		return expected{
			authority: canon(&dnswire.NS{RRHeader: hdr(sub, dnswire.TypeNS), Target: child(sub, "ns")}),
			glue:      canon(&dnswire.A{RRHeader: hdr(child(sub, "ns"), dnswire.TypeA), Addr: glueAddr}),
		}
	}
}

// qinfo describes one generated query.
type qinfo struct {
	zone int32
	kind uint8
	edns bool
}

// packQuery builds the wire form of one query (ID 0; the sender patches it).
func packQuery(name dnswire.Name, edns bool) []byte {
	q := dnswire.NewQuery(0, name, dnswire.TypeA)
	if edns {
		q.Additional = append(q.Additional, dnswire.NewOPT(ednsSize))
	}
	wire, err := q.Pack()
	if err != nil {
		panic(err) // generated names are valid
	}
	return wire
}

// randLabel draws a fixed-length lowercase label.
func randLabel(rng *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, labelBytes)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// mix is a query mix over a zone set: the share of EDNS queries, of
// NXDOMAIN names and of names below the delegation; the rest split evenly
// between www and api.
type mix struct {
	edns, nx, refer float64
}

// corpus is a fixed, seeded list of queries. The load generators cycle
// through it and the traced replay runs it through the serving layers.
type corpus struct {
	wires [][]byte
	infos []qinfo
}

// popularitySeed fixes which zones are popular. It is part of the
// workload, like the zone set: with the ranking drawn from the run's seed,
// whichever few zones took the head of the distribution moved capacity
// and CPU per answer by a third from seed to seed. The run's seed draws
// the traffic sampled from the ranking.
const popularitySeed = 1

// byPopularity lists the zone indices from most to least popular.
func byPopularity(zs *zoneSet) []int { return rand.New(rand.NewSource(popularitySeed)).Perm(zs.n) }

// zipfCorpus draws n queries whose zones follow a Zipf(s) law over a fixed
// permutation of the zone indices, so the popular zones are scattered
// over the store.
func zipfCorpus(zs *zoneSet, n int, s float64, m mix, rng *rand.Rand) *corpus {
	perm := byPopularity(zs)
	// Inverse-CDF sampling over the exact Zipf weights (rand.Zipf needs
	// s > 1 and draws its own stream; this keeps one seeded stream).
	cdf := make([]float64, zs.n)
	sum := 0.0
	for r := 0; r < zs.n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	c := &corpus{wires: make([][]byte, 0, n), infos: make([]qinfo, 0, n)}
	for len(c.wires) < n {
		u := rng.Float64() * sum
		lo, hi := 0, zs.n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		zi := perm[lo]
		c.add(zs, zi, pickKind(rng, m), rng.Float64() < m.edns, rng)
	}
	return c
}

// uniformCorpus draws n queries over zones chosen uniformly.
func uniformCorpus(zs *zoneSet, n int, m mix, rng *rand.Rand) *corpus {
	c := &corpus{wires: make([][]byte, 0, n), infos: make([]qinfo, 0, n)}
	for len(c.wires) < n {
		c.add(zs, rng.Intn(zs.n), pickKind(rng, m), rng.Float64() < m.edns, rng)
	}
	return c
}

func pickKind(rng *rand.Rand, m mix) int {
	u := rng.Float64()
	switch {
	case u < m.nx:
		return kindNX
	case u < m.nx+m.refer:
		return kindRefer
	case u < m.nx+m.refer+(1-m.nx-m.refer)/2:
		return kindWWW
	}
	return kindAPI
}

func (c *corpus) add(zs *zoneSet, zi, kind int, edns bool, rng *rand.Rand) {
	o := zs.origin(zi)
	var name dnswire.Name
	switch kind {
	case kindWWW:
		name = child(o, "www")
	case kindAPI:
		name = child(o, "api")
	case kindNX:
		name = child(o, randLabel(rng))
	default:
		name = child(child(o, "sub"), randLabel(rng))
	}
	c.wires = append(c.wires, packQuery(name, edns))
	c.infos = append(c.infos, qinfo{zone: int32(zi), kind: uint8(kind), edns: edns})
}

// hash is the SHA-256 of every query wire in order: same seed, same hash.
func (c *corpus) hash(h []byte) []byte {
	d := sha256.New()
	d.Write(h)
	var n [4]byte
	for _, w := range c.wires {
		binary.BigEndian.PutUint32(n[:], uint32(len(w)))
		d.Write(n[:])
		d.Write(w)
	}
	return d.Sum(nil)
}

func hashHex(b []byte) string { return hex.EncodeToString(b[:8]) }

// attackSource renders unique random-subdomain queries under one victim
// zone: the seq'th name's first label is a fixed-length hex rendering of
// a mix of (seed, seq), so every name is distinct and the stream is
// reproducible without storing it.
type attackSource struct {
	seed   uint64
	victim int32
	suffix []byte // victim origin in wire form, then type A, class IN
}

func newAttackSource(zs *zoneSet, victim int, seed int64) *attackSource {
	suffix := zs.origin(victim).AppendWire(nil)
	return &attackSource{seed: uint64(seed), victim: int32(victim), suffix: append(suffix, 0, 1, 0, 1)}
}

func (a *attackSource) query(dst []byte, seq int64) []byte {
	const hexd = "0123456789abcdef"
	x := a.seed*0x9E3779B97F4A7C15 ^ uint64(seq)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	dst = append(dst[:0], 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, labelBytes)
	for i := 0; i < labelBytes; i++ {
		dst = append(dst, hexd[(x>>(4*uint(i)))&15])
	}
	return append(dst, a.suffix...)
}

func (a *attackSource) info(int64) qinfo { return qinfo{zone: a.victim, kind: kindNX} }

// query and info make a corpus a cyclic query source.
func (c *corpus) query(dst []byte, seq int64) []byte {
	return append(dst[:0], c.wires[seq%int64(len(c.wires))]...)
}

func (c *corpus) info(seq int64) qinfo { return c.infos[seq%int64(len(c.infos))] }
