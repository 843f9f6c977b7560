package sessions

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// mk builds a trace from (client, start, duration) triples.
func mk(t *testing.T, horizon int64, rows ...[3]int64) *trace.Trace {
	t.Helper()
	transfers := make([]trace.Transfer, len(rows))
	for i, r := range rows {
		transfers[i] = trace.Transfer{
			Client: int(r[0]), Start: r[1], Duration: r[2],
			IP: "1.1.1.1", Country: "BR", AS: 1,
		}
	}
	tr, err := trace.New(horizon, transfers)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSessionizeSplitsOnTimeout(t *testing.T) {
	// Client 1: transfers at [0,10], [100,110], [2000,2010] with To=500:
	// gap 0->100 is 90 (same session), gap 110->2000 is 1890 (new session).
	tr := mk(t, 10000,
		[3]int64{1, 0, 10},
		[3]int64{1, 100, 10},
		[3]int64{1, 2000, 10},
	)
	set, err := Sessionize(tr, 500)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 2 {
		t.Fatalf("sessions = %d, want 2", set.Count())
	}
	s0, s1 := set.Sessions[0], set.Sessions[1]
	if s0.Start != 0 || s0.End != 110 || s0.Count() != 2 {
		t.Errorf("s0 = %+v", s0)
	}
	if s1.Start != 2000 || s1.End != 2010 || s1.Count() != 1 {
		t.Errorf("s1 = %+v", s1)
	}
	if s0.On() != 110 || s1.On() != 10 {
		t.Errorf("ON times: %d, %d", s0.On(), s1.On())
	}
}

func TestSessionizeGapExactlyTimeoutStays(t *testing.T) {
	// Gap equal to To does not split ("does not exceed").
	tr := mk(t, 10000,
		[3]int64{1, 0, 10},
		[3]int64{1, 510, 10}, // gap = 500 = To
	)
	set, err := Sessionize(tr, 500)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 1 {
		t.Fatalf("sessions = %d, want 1", set.Count())
	}
}

func TestSessionizeOverlappingTransfersNeverSplit(t *testing.T) {
	// Figure 1: overlapped transfers of the two feeds.
	tr := mk(t, 10000,
		[3]int64{1, 0, 1000},
		[3]int64{1, 400, 100}, // entirely inside the first
		[3]int64{1, 900, 600}, // overlaps the tail
	)
	set, err := Sessionize(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 1 {
		t.Fatalf("sessions = %d, want 1", set.Count())
	}
	if set.Sessions[0].On() != 1500 {
		t.Errorf("ON = %d, want 1500", set.Sessions[0].On())
	}
}

func TestSessionizeRejectsBadTimeout(t *testing.T) {
	tr := mk(t, 100, [3]int64{1, 0, 1})
	if _, err := Sessionize(tr, 0); err == nil {
		t.Error("zero timeout: want error")
	}
	if _, err := Sessionize(tr, -5); err == nil {
		t.Error("negative timeout: want error")
	}
}

func TestSessionizeMultipleClientsIndependent(t *testing.T) {
	tr := mk(t, 10000,
		[3]int64{1, 0, 10},
		[3]int64{2, 5, 10}, // interleaved with client 1 but separate
		[3]int64{1, 5000, 10},
		[3]int64{2, 5005, 10},
	)
	set, err := Sessionize(tr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 4 {
		t.Fatalf("sessions = %d, want 4", set.Count())
	}
	// Globally start-sorted.
	for i := 1; i < len(set.Sessions); i++ {
		if set.Sessions[i].Start < set.Sessions[i-1].Start {
			t.Error("sessions not start-sorted")
		}
	}
}

func TestOffTimes(t *testing.T) {
	// Client 1: session A = [0, 110], session B starts 5000.
	// f = t(B) - t(A) - l(A) = 5000 - 0 - 110 = 4890.
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 100, 10},
		[3]int64{1, 5000, 10},
	)
	set, err := Sessionize(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	off := set.OffTimes()
	if len(off) != 1 || off[0] != 4890 {
		t.Errorf("OffTimes = %v, want [4890]", off)
	}
}

func TestTransfersPerSessionAndInterarrivals(t *testing.T) {
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 30, 10},
		[3]int64{1, 90, 10},
		[3]int64{2, 1000, 20},
	)
	set, err := Sessionize(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	counts := set.TransfersPerSession()
	sort.Ints(counts)
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 3 {
		t.Errorf("TransfersPerSession = %v", counts)
	}
	inter := set.IntraSessionInterarrivals()
	sort.Float64s(inter)
	if len(inter) != 2 || inter[0] != 30 || inter[1] != 60 {
		t.Errorf("interarrivals = %v, want [30 60]", inter)
	}
}

func TestTransferOffTimesAndOnRuns(t *testing.T) {
	// One session: [0,10], gap 20, [30,40] overlapped by [35,60], gap 40, [100,110].
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 30, 10},
		[3]int64{1, 35, 25},
		[3]int64{1, 100, 10},
	)
	set, err := Sessionize(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 1 {
		t.Fatalf("sessions = %d", set.Count())
	}
	off := set.TransferOffTimes()
	sort.Float64s(off)
	if len(off) != 2 || off[0] != 20 || off[1] != 40 {
		t.Errorf("TransferOffTimes = %v, want [20 40]", off)
	}
	on := set.TransferOnRuns()
	sort.Float64s(on)
	// Runs: [0,10]=10, [30,60]=30, [100,110]=10.
	if len(on) != 3 || on[0] != 10 || on[1] != 10 || on[2] != 30 {
		t.Errorf("TransferOnRuns = %v, want [10 10 30]", on)
	}
	// Every transfer OFF must be <= To by construction.
	for _, o := range off {
		if o > float64(set.Timeout) {
			t.Errorf("transfer OFF %v exceeds To", o)
		}
	}
}

func TestOnTimesAndArrivalTimes(t *testing.T) {
	tr := mk(t, 100000,
		[3]int64{1, 100, 50},
		[3]int64{2, 200, 70},
	)
	set, err := Sessionize(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	on := set.OnTimes()
	sort.Float64s(on)
	if on[0] != 50 || on[1] != 70 {
		t.Errorf("OnTimes = %v", on)
	}
	arr := set.ArrivalTimes()
	if arr[0] != 100 || arr[1] != 200 {
		t.Errorf("ArrivalTimes = %v", arr)
	}
}

func TestSweepTimeoutMonotone(t *testing.T) {
	// More timeout -> fewer or equal sessions (merging only).
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 500, 10},
		[3]int64{1, 1500, 10},
		[3]int64{1, 4000, 10},
		[3]int64{2, 100, 10},
		[3]int64{2, 3000, 10},
	)
	points, err := SweepTimeout(tr, []int64{100, 500, 1000, 2500, 5000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Sessions > points[i-1].Sessions {
			t.Errorf("session count increased with timeout: %v", points)
		}
	}
	if points[0].Sessions != 6 {
		t.Errorf("smallest timeout should isolate every transfer: %v", points[0])
	}
	if points[len(points)-1].Sessions != 2 {
		t.Errorf("largest timeout should merge per client: %v", points[len(points)-1])
	}
	if _, err := SweepTimeout(tr, []int64{0}); err == nil {
		t.Error("sweep with bad timeout: want error")
	}
}

// Property: sessionization is a partition — every transfer appears in
// exactly one session, and within-session gaps never exceed To.
func TestSessionizePartitionProperty(t *testing.T) {
	f := func(raw []uint32, toRaw uint16) bool {
		to := int64(toRaw%3000) + 1
		rows := make([][3]int64, 0, len(raw))
		for i, r := range raw {
			start := int64(r % 500000)
			dur := int64((r >> 8) % 3600)
			client := int64(i % 5)
			rows = append(rows, [3]int64{client, start, dur})
		}
		transfers := make([]trace.Transfer, len(rows))
		for i, r := range rows {
			transfers[i] = trace.Transfer{Client: int(r[0]), Start: r[1], Duration: r[2], IP: "x", Country: "BR", AS: 1}
		}
		tr, err := trace.New(1000000, transfers)
		if err != nil {
			return false
		}
		set, err := Sessionize(tr, to)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		total := 0
		for _, sess := range set.Sessions {
			coverageEnd := int64(math.MinInt64)
			for _, ti := range sess.Transfers {
				if seen[ti] {
					return false // transfer in two sessions
				}
				seen[ti] = true
				total++
				tt := tr.Transfers[ti]
				if coverageEnd != math.MinInt64 && tt.Start-coverageEnd > to {
					return false // uncut gap
				}
				if tt.End() > coverageEnd {
					coverageEnd = tt.End()
				}
				if tt.Start < sess.Start || tt.End() > sess.End {
					return false // transfer escapes session bounds
				}
			}
		}
		return total == len(tr.Transfers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The one-pass sweep must agree with a full Sessionize at every timeout
// on traces built to stress the gap identity: overlapping, nested,
// zero-duration and equal-start transfers, clients whose indices do not
// start at zero, and timeouts given unsorted and with repeats.
func TestSweepTimeoutMatchesSessionize(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	timeouts := []int64{1500, 1, 40, 3, 40, 2, 500, 10, 7, 100000}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		clients := 1 + rng.Intn(6)
		base := rng.Intn(4) * 1000 // non-zero lowest client index
		span := int64(1 + rng.Intn(400))
		transfers := make([]trace.Transfer, n)
		for i := range transfers {
			var dur int64
			switch rng.Intn(4) {
			case 0: // zero-duration
			case 1: // long enough to nest later transfers
				dur = rng.Int63n(4 * span)
			default:
				dur = rng.Int63n(20)
			}
			transfers[i] = trace.Transfer{
				Client:   base + rng.Intn(clients),
				Start:    rng.Int63n(span), // small span forces equal starts
				Duration: dur,
			}
		}
		tr, err := trace.New(10*span+1, transfers)
		if err != nil {
			t.Fatal(err)
		}
		// Sessionize walks transfers in index order, so the identity holds
		// for an unsorted trace too.
		unsorted := &trace.Trace{Horizon: tr.Horizon, Transfers: transfers}
		for _, tr := range []*trace.Trace{tr, unsorted} {
			pts, err := SweepTimeout(tr, timeouts)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != len(timeouts) {
				t.Fatalf("trial %d: %d points for %d timeouts", trial, len(pts), len(timeouts))
			}
			for i, p := range pts {
				set, err := Sessionize(tr, timeouts[i])
				if err != nil {
					t.Fatal(err)
				}
				if p.Timeout != timeouts[i] || p.Sessions != set.Count() {
					t.Fatalf("trial %d: point %d = %+v, Sessionize(%d).Count() = %d",
						trial, i, p, timeouts[i], set.Count())
				}
			}
		}
	}
}

func TestSweepTimeoutErrorsAndEdges(t *testing.T) {
	tr := mk(t, 1000, [3]int64{3, 0, 10}, [3]int64{3, 500, 10})
	for _, bad := range [][]int64{{0}, {-5}, {1500, 0}, {10, 20, -1, 30}} {
		if _, err := SweepTimeout(tr, bad); !errors.Is(err, ErrBadTimeout) {
			t.Errorf("SweepTimeout(%v) err = %v, want ErrBadTimeout", bad, err)
		}
	}
	pts, err := SweepTimeout(tr, nil)
	if err != nil || pts == nil || len(pts) != 0 {
		t.Errorf("no timeouts: got %v, %v; want an empty slice", pts, err)
	}
	empty, err := trace.New(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, err = SweepTimeout(empty, []int64{1, 1500})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Sessions != 0 {
			t.Errorf("empty trace: %+v, want 0 sessions", p)
		}
	}
}
