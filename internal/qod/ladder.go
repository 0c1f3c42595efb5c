package qod

import "sync/atomic"

// Degradation ladder positions (§5.2: shed by score, not at random). The
// socket server has two serving tiers — the wire tier (hot cache, then
// compiled views) and the decode path — behind one admission gate that
// scores every query once. Each level keeps everything the levels below it
// keep and sheds more:
//
//	LevelFull      — full service; the gate only discards at S >= Smax.
//	LevelDegraded  — hot-cache hits are still served to everyone; any other
//	                 query, in either tier, is reserved for allowlisted
//	                 resolvers, and everyone else gets a cheap REFUSED.
//	CleanOnly      — additionally, the gate refuses compiled-view and
//	                 decode-path queries scoring above the lowest-penalty
//	                 queue rung (hot-cache hits are still served).
//	LevelSaturated — above the in-flight ceiling: drop without answering
//	                 (the backstop the kernel would otherwise apply blindly).
const (
	LevelFull = iota
	LevelDegraded
	LevelCleanOnly
	LevelSaturated
)

// LevelName names a ladder position for logs and metrics.
func LevelName(level int) string {
	switch level {
	case LevelFull:
		return "full"
	case LevelDegraded:
		return "degraded"
	case LevelCleanOnly:
		return "clean-only"
	case LevelSaturated:
		return "saturated"
	}
	return "unknown"
}

// Ladder tracks in-flight handlers (active UDP/TCP handlers plus open TCP
// connections — the socket backlog proxy) against a ceiling and maps the
// load fraction onto a degradation level. Enter/Exit are single atomic
// adds; the level thresholds are 50% (degraded) and 85% (clean-only) of
// the ceiling.
type Ladder struct {
	max      int64
	inflight atomic.Int64
}

// NewLadder builds a ladder with the given in-flight ceiling.
func NewLadder(maxInflight int) *Ladder {
	if maxInflight <= 0 {
		return nil
	}
	return &Ladder{max: int64(maxInflight)}
}

// Enter registers one in-flight unit and reports the ladder level the new
// occupancy maps to. Every Enter must be paired with an Exit.
func (l *Ladder) Enter() int {
	return l.levelFor(l.inflight.Add(1))
}

// Exit releases one in-flight unit.
func (l *Ladder) Exit() { l.inflight.Add(-1) }

// Inflight reports the current occupancy.
func (l *Ladder) Inflight() int64 { return l.inflight.Load() }

// Level reports the level of the current occupancy (for the obs gauge).
func (l *Ladder) Level() int { return l.levelFor(l.inflight.Load()) }

func (l *Ladder) levelFor(n int64) int {
	switch {
	case n > l.max:
		return LevelSaturated
	case n*100 >= l.max*85:
		return LevelCleanOnly
	case n*100 >= l.max*50:
		return LevelDegraded
	}
	return LevelFull
}
