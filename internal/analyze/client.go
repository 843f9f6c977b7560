package analyze

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/sessions"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ClientLayer is the Section 3 characterization: the client population's
// concurrency profile, interarrival process, and interest profile.
type ClientLayer struct {
	// Concurrency is c(t), the number of clients with an ongoing session
	// (Figures 3, 4 and 8).
	Concurrency *ConcurrencyReport

	// Interarrivals are the gaps a(i) = t(i+1) - t(i) between session
	// arrivals of different clients, in seconds (Figure 5). Zero gaps are
	// kept; display code applies the ⌊t+1⌋ convention.
	Interarrivals []float64

	// TransfersPerClient and SessionsPerClient are the per-client access
	// counts behind the interest profile, in rank order (descending).
	TransfersPerClient []int
	SessionsPerClient  []int

	// InterestTransfers is the Zipf fit of transfer frequency versus
	// client rank (Figure 7 left; paper: α = 0.7194).
	InterestTransfers dist.ZipfFit
	// InterestSessions is the Zipf fit of session frequency versus client
	// rank (Figure 7 right; paper: α = 0.4704).
	InterestSessions dist.ZipfFit
}

// AnalyzeClientLayer runs the Section 3 pipeline on a sessionized trace.
func AnalyzeClientLayer(set *sessions.Set) (*ClientLayer, error) {
	tr := set.Trace()
	if tr == nil || set.Count() == 0 {
		return nil, fmt.Errorf("%w: empty session set", ErrBadInput)
	}

	// c(t): a client is active while one of its sessions is ongoing.
	intervals := make([]Interval, set.Count())
	for i, s := range set.Sessions {
		intervals[i] = Interval{Start: s.Start, End: s.End}
	}
	conc, err := Concurrency(intervals, tr.Horizon)
	if err != nil {
		return nil, err
	}

	out := &ClientLayer{
		Concurrency:   conc,
		Interarrivals: ClientInterarrivals(set),
	}

	// Interest profile: per-client counts of transfers and sessions, in
	// rank order (descending) so the slices do not depend on map order.
	byClient := tr.ByClient()
	out.TransfersPerClient = make([]int, 0, len(byClient))
	for _, idxs := range byClient {
		out.TransfersPerClient = append(out.TransfersPerClient, len(idxs))
	}
	sortDescending(out.TransfersPerClient)
	sessCounts := make(map[int]int)
	for _, s := range set.Sessions {
		sessCounts[s.Client]++
	}
	out.SessionsPerClient = make([]int, 0, len(sessCounts))
	for _, c := range sessCounts {
		out.SessionsPerClient = append(out.SessionsPerClient, c)
	}
	sortDescending(out.SessionsPerClient)

	if out.InterestTransfers, err = dist.FitZipfCounts(out.TransfersPerClient); err != nil {
		return nil, fmt.Errorf("interest (transfers): %w", err)
	}
	if out.InterestSessions, err = dist.FitZipfCounts(out.SessionsPerClient); err != nil {
		return nil, fmt.Errorf("interest (sessions): %w", err)
	}
	return out, nil
}

// sortDescending sorts counts into rank order, largest first.
func sortDescending(counts []int) {
	slices.SortFunc(counts, func(a, b int) int { return cmp.Compare(b, a) })
}

// ClientInterarrivals computes a(i) = t(i+1) - t(i) over session arrivals,
// skipping consecutive pairs that belong to the same client per the
// paper's definition ("where sessions i and i+1 belong to different
// clients").
func ClientInterarrivals(set *sessions.Set) []float64 {
	type arrival struct {
		t      int64
		client int
	}
	arr := make([]arrival, set.Count())
	for i, s := range set.Sessions {
		arr[i] = arrival{t: s.Start, client: s.Client}
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i].t < arr[j].t })
	out := make([]float64, 0, len(arr))
	for i := 1; i < len(arr); i++ {
		if arr[i].client == arr[i-1].client {
			continue
		}
		out = append(out, float64(arr[i].t-arr[i-1].t))
	}
	return out
}

// InterarrivalDisplay returns the interarrivals shifted by the paper's
// ⌊t+1⌋ display convention, for log-scale plotting and fitting.
func InterarrivalDisplay(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = stats.LogDisplayValue(x)
	}
	return out
}

// Diversity is the Figure 2 characterization of the client population's
// topological and geographical spread.
type Diversity struct {
	// ASTransferShare is the descending share of transfers per AS
	// (Figure 2 left).
	ASTransferShare []float64
	// ASIPShare is the descending share of distinct client IPs per AS
	// (Figure 2 center).
	ASIPShare []float64
	// CountryShare maps country code to its share of transfers
	// (Figure 2 right).
	CountryShare map[string]float64
	// NumAS is the number of distinct ASes observed.
	NumAS int
	// ObjectShare is the descending share of transfers per live object —
	// the feed-preference split (Table 1 observes two feeds). Element 0
	// is the dominant feed's share; calibrate.Fit reads FeedPreference
	// off it.
	ObjectShare []float64
}

// AnalyzeDiversity computes the Figure 2 series from a trace.
func AnalyzeDiversity(tr *trace.Trace) (*Diversity, error) {
	if tr.NumTransfers() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	transferPerAS := make(map[int]int)
	ipsPerAS := make(map[int]map[string]struct{})
	countryCount := make(map[string]int)
	objectCount := make(map[int]int)
	for _, t := range tr.Transfers {
		transferPerAS[t.AS]++
		objectCount[t.Object]++
		set := ipsPerAS[t.AS]
		if set == nil {
			set = make(map[string]struct{})
			ipsPerAS[t.AS] = set
		}
		set[t.IP] = struct{}{}
		countryCount[t.Country]++
	}

	d := &Diversity{NumAS: len(transferPerAS), CountryShare: make(map[string]float64, len(countryCount))}
	tCounts := make([]int, 0, len(transferPerAS))
	for _, c := range transferPerAS {
		tCounts = append(tCounts, c)
	}
	d.ASTransferShare = stats.RankFrequencies(tCounts)

	ipCounts := make([]int, 0, len(ipsPerAS))
	for _, set := range ipsPerAS {
		ipCounts = append(ipCounts, len(set))
	}
	d.ASIPShare = stats.RankFrequencies(ipCounts)

	total := float64(tr.NumTransfers())
	for c, n := range countryCount {
		d.CountryShare[c] = float64(n) / total
	}

	oCounts := make([]int, 0, len(objectCount))
	for _, c := range objectCount {
		oCounts = append(oCounts, c)
	}
	d.ObjectShare = stats.RankFrequencies(oCounts)
	return d, nil
}
