// Package sessions groups a client's transfers into sessions, making the
// paper's Section 2.2 terminology executable.
//
// A client session is "the interval of time during which the client is
// actively engaged in requesting (and receiving) live objects ... such
// that the duration of any period of no transfers between the server and
// the client does not exceed a preset threshold T_o". Figure 1 relates
// the resulting ON/OFF structure at the session layer (session ON time,
// session OFF a.k.a. "log-off" time) and at the transfer layer (transfer
// ON runs, transfer OFF a.k.a. "think" times, necessarily below T_o).
//
// The paper settles on T_o = 1,500 seconds after the sensitivity sweep of
// Figure 9; DefaultTimeout mirrors that.
package sessions

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/trace"
)

// DefaultTimeout is the paper's session timeout T_o = 1,500 seconds.
const DefaultTimeout int64 = 1500

// ErrBadTimeout reports a non-positive T_o.
var ErrBadTimeout = errors.New("sessions: timeout must be positive")

// Session is one client session: a maximal run of transfers by one client
// with no silent gap exceeding T_o.
type Session struct {
	Client    int
	Transfers []int // indices into the trace's Transfers slice, start order
	Start     int64 // start of the first transfer
	End       int64 // latest end among the session's transfers
}

// On returns the session ON time l(i) = End - Start, in seconds.
func (s Session) On() int64 { return s.End - s.Start }

// Count returns the number of transfers in the session.
func (s Session) Count() int { return len(s.Transfers) }

// Set is the result of sessionizing a trace at a given timeout.
type Set struct {
	Timeout  int64
	Sessions []Session // sorted by (Start, Client)
	tr       *trace.Trace
}

// Sessionize groups each client's transfers into sessions using timeout
// T_o (seconds).
func Sessionize(tr *trace.Trace, timeout int64) (*Set, error) {
	if timeout <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadTimeout, timeout)
	}
	var out []Session
	for client, idxs := range tr.ByClient() { //lsm:nondet -- the sort below re-imposes the (Start, Client) total order
		out = append(out, sessionizeClient(tr, client, idxs, timeout)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Client < out[j].Client
	})
	return &Set{Timeout: timeout, Sessions: out, tr: tr}, nil
}

// sessionizeClient walks one client's start-ordered transfers, closing the
// running session whenever the silent gap (next start minus coverage end)
// exceeds the timeout. Overlapping transfers extend coverage and can never
// split a session.
func sessionizeClient(tr *trace.Trace, client int, idxs []int, timeout int64) []Session {
	var out []Session
	var cur *Session
	for _, i := range idxs {
		t := tr.Transfers[i]
		if cur != nil && t.Start-cur.End > timeout {
			out = append(out, *cur)
			cur = nil
		}
		if cur == nil {
			cur = &Session{Client: client, Start: t.Start, End: t.End()}
		}
		cur.Transfers = append(cur.Transfers, i)
		if t.End() > cur.End {
			cur.End = t.End()
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// Count returns the number of sessions.
func (s *Set) Count() int { return len(s.Sessions) }

// Trace returns the underlying trace.
func (s *Set) Trace() *trace.Trace { return s.tr }

// OnTimes returns l(i) for every session, honoring the paper's ⌊t+1⌋
// convention via +1 applied by callers when needed; raw seconds here.
func (s *Set) OnTimes() []float64 {
	out := make([]float64, len(s.Sessions))
	for i, sess := range s.Sessions {
		out[i] = float64(sess.On())
	}
	return out
}

// OffTimes returns the session OFF times f(i) = t(j) - t(i) - l(i) for
// every pair of consecutive sessions (i, j) of the same client.
func (s *Set) OffTimes() []float64 {
	// Group session indices per client in start order (Sessions is
	// globally start-sorted, so per-client order is preserved).
	perClient := make(map[int][]int)
	for i, sess := range s.Sessions {
		perClient[sess.Client] = append(perClient[sess.Client], i)
	}
	var out []float64
	for _, idxs := range perClient { //lsm:nondet -- sort.Float64s below re-imposes a total order
		for k := 1; k < len(idxs); k++ {
			prev := s.Sessions[idxs[k-1]]
			next := s.Sessions[idxs[k]]
			off := float64(next.Start - prev.Start - prev.On())
			if off >= 0 {
				out = append(out, off)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// TransfersPerSession returns the transfer count of every session.
func (s *Set) TransfersPerSession() []int {
	out := make([]int, len(s.Sessions))
	for i, sess := range s.Sessions {
		out[i] = sess.Count()
	}
	return out
}

// IntraSessionInterarrivals returns the gaps between consecutive transfer
// start times within each session (Figure 14's variable).
func (s *Set) IntraSessionInterarrivals() []float64 {
	var out []float64
	for _, sess := range s.Sessions {
		for k := 1; k < len(sess.Transfers); k++ {
			a := s.tr.Transfers[sess.Transfers[k-1]].Start
			b := s.tr.Transfers[sess.Transfers[k]].Start
			out = append(out, float64(b-a))
		}
	}
	return out
}

// TransferOffTimes returns the silent gaps inside sessions — the "think"
// (active OFF) times of Figure 1. Every value is <= T_o by construction.
func (s *Set) TransferOffTimes() []float64 {
	var out []float64
	for _, sess := range s.Sessions {
		coverageEnd := int64(-1)
		for _, ti := range sess.Transfers {
			t := s.tr.Transfers[ti]
			if coverageEnd >= 0 && t.Start > coverageEnd {
				out = append(out, float64(t.Start-coverageEnd))
			}
			if t.End() > coverageEnd {
				coverageEnd = t.End()
			}
		}
	}
	return out
}

// TransferOnRuns returns the lengths of maximal intervals within sessions
// during which at least one transfer is active (the transfer ON times of
// Figure 1, which can span overlapped transfers of multiple objects).
func (s *Set) TransferOnRuns() []float64 {
	var out []float64
	for _, sess := range s.Sessions {
		runStart := int64(-1)
		coverageEnd := int64(-1)
		for _, ti := range sess.Transfers {
			t := s.tr.Transfers[ti]
			if runStart < 0 {
				runStart, coverageEnd = t.Start, t.End()
				continue
			}
			if t.Start > coverageEnd {
				out = append(out, float64(coverageEnd-runStart))
				runStart, coverageEnd = t.Start, t.End()
				continue
			}
			if t.End() > coverageEnd {
				coverageEnd = t.End()
			}
		}
		if runStart >= 0 {
			out = append(out, float64(coverageEnd-runStart))
		}
	}
	return out
}

// ArrivalTimes returns every session's start time in seconds, sorted.
func (s *Set) ArrivalTimes() []int64 {
	out := make([]int64, len(s.Sessions))
	for i, sess := range s.Sessions {
		out[i] = sess.Start
	}
	return out
}

// SweepPoint is one (timeout, session count) sample of the Figure 9 curve.
type SweepPoint struct {
	Timeout  int64
	Sessions int
}

// SweepTimeout evaluates the number of sessions at each timeout value —
// the sensitivity analysis of Figure 9 ("the number of sessions does not
// change drastically for T_o > 1,500 seconds"). Every point equals
// Sessionize(tr, T).Count(), but all of them come from one pass over
// the trace.
//
// The pass rests on a gap identity. Call a client's k-th gap its k-th
// transfer's Start minus the largest End among its earlier transfers.
// Sessionize's running session End is always that prefix maximum:
// within a session it is the maximum by definition, and a transfer that
// opens a new session starts more than T_o past the old maximum, so its
// own End (Start + Duration, Duration >= 0 as Sanitize and the log
// parsers guarantee) is the new maximum. A session therefore closes
// exactly at the gaps that exceed T_o, and since no gap depends on T_o,
//
//	sessions(T_o) = clients + #{gaps > T_o}
//
// for every T_o at once.
func SweepTimeout(tr *trace.Trace, timeouts []int64) ([]SweepPoint, error) {
	for _, to := range timeouts {
		if to <= 0 {
			return nil, fmt.Errorf("%w: %d", ErrBadTimeout, to)
		}
	}
	// Distinct thresholds ascending; gap g lands in bucket
	// #{thresholds < g}, so the gaps exceeding thresholds[k] are those in
	// buckets k+1 and above.
	thresholds := slices.Clone(timeouts)
	slices.Sort(thresholds)
	thresholds = slices.Compact(thresholds)
	buckets := make([]int, len(thresholds)+1)

	// Clients are dense indices, so the per-client coverage end lives in
	// a slice offset by the smallest index; seen marks clients already
	// counted.
	lo, hi := clientRange(tr.Transfers)
	coverEnd := make([]int64, hi-lo+1)
	seen := make([]bool, hi-lo+1)
	clients := 0
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		c := t.Client - lo
		end := t.End()
		if !seen[c] {
			seen[c] = true
			clients++
			coverEnd[c] = end
			continue
		}
		if gap := t.Start - coverEnd[c]; gap > 0 {
			buckets[sort.Search(len(thresholds), func(k int) bool { return thresholds[k] >= gap })]++
		}
		if end > coverEnd[c] {
			coverEnd[c] = end
		}
	}

	// exceeding[k] = #{gaps > thresholds[k]}.
	exceeding := make([]int, len(thresholds))
	run := 0
	for k := len(thresholds) - 1; k >= 0; k-- {
		run += buckets[k+1]
		exceeding[k] = run
	}
	out := make([]SweepPoint, 0, len(timeouts))
	for _, to := range timeouts {
		k := sort.Search(len(thresholds), func(k int) bool { return thresholds[k] >= to })
		out = append(out, SweepPoint{Timeout: to, Sessions: clients + exceeding[k]})
	}
	return out, nil
}

// clientRange returns the smallest and largest client index among the
// transfers, or (0, -1) when there are none.
func clientRange(ts []trace.Transfer) (lo, hi int) {
	if len(ts) == 0 {
		return 0, -1
	}
	lo, hi = ts[0].Client, ts[0].Client
	for i := range ts {
		if c := ts[i].Client; c < lo {
			lo = c
		} else if c > hi {
			hi = c
		}
	}
	return lo, hi
}
