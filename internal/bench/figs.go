package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cuckoohash/internal/core"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

// Experiment is one reproducible figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) *Report
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Highest throughput by hash table, 50% insert (Figure 1)", Fig1},
		{"fig2", "Insert throughput vs threads, single-writer tables ± TSX (Figure 2)", Fig2},
		{"fig5a", "Factor analysis, single-thread Insert (Figure 5a)", Fig5a},
		{"fig5b", "Factor analysis, 8-thread Insert, both orders (Figure 5b)", Fig5b},
		{"fig6a", "Throughput vs threads, fill 0-95% (Figure 6a)", Fig6a},
		{"fig6b", "Throughput vs threads at 0.90-0.95 occupancy (Figure 6b)", Fig6b},
		{"fig7", "Scaling to 16 cores, cuckoo+ vs TBB (Figure 7)", Fig7},
		{"fig8", "Lookup throughput vs set-associativity at 95% (Figure 8)", Fig8},
		{"fig9", "Throughput vs load factor by associativity (Figure 9)", Fig9},
		{"fig10a", "Value-size sweep, fixed entry count (Figure 10a)", Fig10a},
		{"fig10b", "Value-size sweep, fixed table size (Figure 10b)", Fig10b},
		{"memory", "Memory per entry vs chained/open tables (§6.2)", Memory},
		{"latency", "Per-op latency distribution (predictability, §4.1)", Latency},
		{"eq1", "Cuckoo-path invalidation probability (Eq. 1 / Appendix B)", Eq1},
		{"eq2", "BFS maximum path length (Eq. 2 / Appendix C)", Eq2},
		{"naive", "Naive concurrency control fails (§2.3)", Naive},
		{"probes", "Probe-layer signals: path lengths, lock contention, grows", Probes},
		{"zipf", "Skewed (zipf) workloads: extension beyond the paper's uniform keys", Zipf},
		{"churn", "Steady-state delete+insert at fixed occupancy (§6.3's second use mode)", Churn},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// windows used by the factor-analysis figures.
var fillBounds = []float64{0, 0.75, 0.90, 0.95}

const (
	wOverall = "0.00-0.95"
	wMid     = "0.75-0.90"
	wHigh    = "0.90-0.95"
)

// Fig1 measures the best mixed-workload (50% insert) throughput of each
// hash table across thread counts.
func Fig1(sc Scale) *Report {
	r := &Report{
		ID:      "fig1",
		Title:   "Highest throughput, 50% insert / 50% lookup",
		Unit:    "Mops/s",
		Columns: []string{"best Mops/s", "best threads"},
	}
	type cand struct {
		s       Scheme
		threads []int
	}
	cands := []cand{
		{CuckooPlusTSX("cuckoo+ with TSX*", htm.PolicyTuned, core.SearchBFS, true), sc.Threads},
		{CuckooPlusFG(), sc.Threads},
		{TBB(), sc.Threads},
		{Memc3(8), sc.Threads},
		{Unordered(), []int{1}},
		{Dense(), []int{1}},
	}
	for _, c := range cands {
		best, bestT := 0.0, 1
		for _, th := range c.threads {
			tab := c.s.New(sc.Slots, 1, th, sc.Seed)
			res := Fill(tab, FillSpec{
				Threads: th, Mix: workload.Mix5050,
				TargetLoad: 0.95, Slots: sc.Slots, Seed: sc.Seed,
			})
			if res.Overall > best {
				best, bestT = res.Overall, th
			}
		}
		r.AddRow(c.s.Name, best, float64(bestT))
	}
	r.AddNote("paper shape: cuckoo+ (both flavours) on top, then TBB; single-thread tables at the bottom")
	return r
}

// Fig2 measures the aggregate insert throughput of single-writer tables
// with a global lock vs (emulated) TSX lock elision.
func Fig2(sc Scale) *Report {
	r := &Report{
		ID:    "fig2",
		Title: fmt.Sprintf("Insert throughput vs threads (%d keys per run)", sc.Fig2Keys),
		Unit:  "Mops/s",
	}
	for _, th := range sc.Threads {
		r.Columns = append(r.Columns, fmt.Sprintf("%dthr", th))
	}
	slots := sc.Fig2Keys * 8 // low occupancy, like 16M keys into a 134M-slot table
	schemes := []Scheme{
		Memc3TSX("cuckoo w/ TSX", htm.PolicyGlibc, 4),
		Memc3(4),
		DenseTSX("dense_hash_map w/ TSX", htm.PolicyGlibc),
		LockWrapped("dense_hash_map w/ lock", Dense()),
		UnorderedTSX("unordered_map w/ TSX", htm.PolicyGlibc),
		LockWrapped("unordered_map w/ lock", Unordered()),
	}
	for _, s := range schemes {
		row := Row{Name: s.Name}
		var lastTx *htm.Stats
		for _, th := range sc.Threads {
			tab := s.New(slots, 1, th, sc.Seed)
			res := Fill(tab, FillSpec{
				Threads: th, Mix: workload.InsertOnly,
				TargetLoad: float64(sc.Fig2Keys) / float64(slots),
				Slots:      slots, Seed: sc.Seed,
			})
			row.Values = append(row.Values, res.Overall)
			lastTx = res.Tx
		}
		r.Rows = append(r.Rows, row)
		if lastTx != nil {
			r.AddNote("%s @%dthr: abort-rate %.1f%%, fallbacks %d, capacity aborts %d",
				s.Name, sc.Threads[len(sc.Threads)-1], 100*lastTx.AbortRate(), lastTx.Fallbacks, lastTx.CapacityAborts)
		}
	}
	r.AddNote("paper shape: multi-thread throughput below 1-thread for every scheme; elision above plain lock")
	return r
}

// fig5Run measures one variant over the fill windows.
func fig5Run(s Scheme, threads int, sc Scale) (overall, mid, high float64) {
	tab := s.New(sc.Slots, 1, threads, sc.Seed)
	res := Fill(tab, FillSpec{
		Threads: threads, Mix: workload.InsertOnly,
		TargetLoad: 0.95, Slots: sc.Slots, Seed: sc.Seed,
		WindowBounds: fillBounds,
	})
	return res.Windows[wOverall], res.Windows[wMid], res.Windows[wHigh]
}

// Fig5a is the single-thread factor analysis: DFS baseline, +BFS,
// +prefetch, over three occupancy windows.
func Fig5a(sc Scale) *Report {
	r := &Report{
		ID:      "fig5a",
		Title:   "Single-thread Insert factor analysis",
		Unit:    "Mops/s",
		Columns: []string{"load 0-0.95", "load 0.75-0.9", "load 0.9-0.95"},
	}
	variants := []Scheme{
		CuckooPlusVariant("cuckoo (DFS)", core.LockGlobal, core.SearchDFS, false),
		CuckooPlusVariant("+BFS", core.LockGlobal, core.SearchBFS, false),
		CuckooPlusVariant("+prefetch", core.LockGlobal, core.SearchBFS, true),
	}
	for _, v := range variants {
		o, m, h := fig5Run(v, 1, sc)
		r.AddRow(v.Name, o, m, h)
	}
	r.AddNote("paper shape: BFS helps most at high occupancy (~26%%), prefetch adds ~9%%")
	return r
}

// Fig5b is the 8-thread factor analysis in both cumulative orders.
func Fig5b(sc Scale) *Report {
	threads := sc.Threads[len(sc.Threads)-1]
	r := &Report{
		ID:      "fig5b",
		Title:   fmt.Sprintf("%d-thread Insert factor analysis, both orders", threads),
		Unit:    "Mops/s",
		Columns: []string{"load 0-0.95", "load 0.75-0.9", "load 0.9-0.95"},
	}
	elisionFirst := []Scheme{
		Memc3(8),
		Memc3TSX("+TSX-glibc", htm.PolicyGlibc, 8),
		Memc3TSX("+TSX*", htm.PolicyTuned, 8),
		CuckooPlusTSX("+lock later", htm.PolicyTuned, core.SearchDFS, false),
		CuckooPlusTSX("+BFS w/ prefetch", htm.PolicyTuned, core.SearchBFS, true),
	}
	algoFirst := []Scheme{
		Memc3(8),
		CuckooPlusVariant("+lock later", core.LockGlobal, core.SearchDFS, false),
		CuckooPlusVariant("+BFS w/ prefetch", core.LockGlobal, core.SearchBFS, true),
		CuckooPlusTSX("+TSX-glibc", htm.PolicyGlibc, core.SearchBFS, true),
		CuckooPlusTSX("+TSX*", htm.PolicyTuned, core.SearchBFS, true),
	}
	for _, v := range elisionFirst {
		o, m, h := fig5Run(v, threads, sc)
		r.AddRow("[elision-first] "+v.Name, o, m, h)
	}
	for _, v := range algoFirst {
		o, m, h := fig5Run(v, threads, sc)
		r.AddRow("[algo-first] "+v.Name, o, m, h)
	}
	r.AddNote("paper shape: neither elision alone nor algorithm alone reaches the combined throughput")
	return r
}

func fig6Schemes() []Scheme {
	return []Scheme{
		Memc3(8),
		Memc3TSX("cuckoo w/ TSX", htm.PolicyTuned, 8),
		CuckooPlusGlobal(),
		CuckooPlusTSX("cuckoo+ w/ TSX", htm.PolicyTuned, core.SearchBFS, true),
		CuckooPlusFG(),
		TBB(),
	}
}

var fig6Mixes = []workload.Mix{workload.InsertOnly, workload.Mix5050, workload.Mix1090}

func fig6(sc Scale, id, title, window string) *Report {
	r := &Report{ID: id, Title: title, Unit: "Mops/s"}
	for _, mix := range fig6Mixes {
		for _, th := range sc.Threads {
			r.Columns = append(r.Columns, fmt.Sprintf("%s/%dt", shortMix(mix), th))
		}
	}
	for _, s := range fig6Schemes() {
		row := Row{Name: s.Name}
		for _, mix := range fig6Mixes {
			for _, th := range sc.Threads {
				tab := s.New(sc.Slots, 1, th, sc.Seed)
				res := Fill(tab, FillSpec{
					Threads: th, Mix: mix,
					TargetLoad: 0.95, Slots: sc.Slots, Seed: sc.Seed,
					WindowBounds: fillBounds,
				})
				v := res.Overall
				if window != "" {
					v = res.Windows[window]
				}
				row.Values = append(row.Values, v)
			}
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("paper shape: cuckoo+ variants scale with threads; cuckoo drops with threads on write-heavy mixes; cuckoo+ > TBB")
	return r
}

func shortMix(m workload.Mix) string {
	switch m {
	case workload.InsertOnly:
		return "100%ins"
	case workload.Mix5050:
		return "50%ins"
	case workload.Mix1090:
		return "10%ins"
	}
	return "mix"
}

// Fig6a is throughput vs threads over the whole 0-95% fill.
func Fig6a(sc Scale) *Report {
	return fig6(sc, "fig6a", "Throughput vs threads, fill 0-95%", "")
}

// Fig6b is throughput vs threads in the 0.90-0.95 occupancy window.
func Fig6b(sc Scale) *Report {
	return fig6(sc, "fig6b", "Throughput vs threads at 0.90-0.95 occupancy", wHigh)
}

// Fig7 scales cuckoo+ (fine-grained) against the TBB-analog up to the full
// machine (the paper's 16-core Xeon had no TSX, hence no elided rows).
func Fig7(sc Scale) *Report {
	r := &Report{ID: "fig7", Title: "Scaling to many cores, fill 0-95%", Unit: "Mops/s"}
	for _, mix := range fig6Mixes {
		for _, th := range sc.MaxThreads {
			r.Columns = append(r.Columns, fmt.Sprintf("%s/%dt", shortMix(mix), th))
		}
	}
	for _, s := range []Scheme{CuckooPlusFG(), TBB()} {
		row := Row{Name: s.Name}
		for _, mix := range fig6Mixes {
			for _, th := range sc.MaxThreads {
				tab := s.New(sc.Slots, 1, th, sc.Seed)
				res := Fill(tab, FillSpec{
					Threads: th, Mix: mix,
					TargetLoad: 0.95, Slots: sc.Slots, Seed: sc.Seed,
				})
				row.Values = append(row.Values, res.Overall)
			}
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("paper shape: cuckoo+ keeps scaling on write-heavy mixes where TBB flattens")
	return r
}

// Fig8 measures lookup-only throughput at 95% occupancy for 4/8/16-way
// tables.
func Fig8(sc Scale) *Report {
	threads := sc.Threads[len(sc.Threads)-1]
	r := &Report{
		ID:      "fig8",
		Title:   fmt.Sprintf("%d-thread Lookup throughput at 95%% occupancy", threads),
		Unit:    "Mops/s",
		Columns: []string{"Mops/s"},
	}
	for _, assoc := range []int{4, 8, 16} {
		s := CuckooPlusAssoc(assoc, fmt.Sprintf("%d-way", assoc))
		tab := s.New(sc.Slots, 1, threads, sc.Seed)
		counts := PreFill(tab, sc.Slots, 0.95, 8, sc.Seed)
		res := Lookups(tab, LookupSpec{Threads: threads, OpsPerThread: sc.LookupOps, Seed: sc.Seed}, counts)
		r.AddRow(s.Name, res.Overall)
	}
	r.AddNote("paper used the TSX-elided table; here reads run on the optimistic fine-grained table because the software-HTM per-op overhead would mask the per-associativity scan cost the figure measures (DESIGN.md §2)")
	r.AddNote("paper shape: lower associativity reads faster (68.95 / 63.64 / 54.17 Mops in the paper)")
	return r
}

// Fig9 measures throughput per occupancy window for 4/8/16-way tables and
// the three mixes.
func Fig9(sc Scale) *Report {
	bounds := []float64{0, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95}
	threads := sc.Threads[len(sc.Threads)-1]
	r := &Report{
		ID:    "fig9",
		Title: fmt.Sprintf("%d-thread throughput vs load factor by associativity", threads),
		Unit:  "Mops/s",
	}
	for i := 1; i < len(bounds); i++ {
		r.Columns = append(r.Columns, fmt.Sprintf("@%.2f", bounds[i]))
	}
	for _, mix := range fig6Mixes {
		for _, assoc := range []int{4, 8, 16} {
			s := CuckooPlusAssoc(assoc, fmt.Sprintf("%d-way %s", assoc, shortMix(mix)))
			tab := s.New(sc.Slots, 1, threads, sc.Seed)
			res := Fill(tab, FillSpec{
				Threads: threads, Mix: mix,
				TargetLoad: 0.95, Slots: sc.Slots, Seed: sc.Seed,
				WindowBounds: bounds,
			})
			row := Row{Name: s.Name}
			for i := 1; i < len(bounds); i++ {
				row.Values = append(row.Values, res.Windows[windowKey(bounds[i-1], bounds[i])])
			}
			r.Rows = append(r.Rows, row)
		}
	}
	r.AddNote("fine-grained table (see fig8 note); paper shape: 8-way best overall for write mixes; 16-way worst at low load, best above ~0.92")
	return r
}

// Fig10a sweeps the value size with a fixed entry count.
func Fig10a(sc Scale) *Report {
	entries := sc.Slots / 4
	valueWords := []int{1, 2, 4, 8, 16, 32}
	r := &Report{ID: "fig10a", Title: "Throughput vs value size, fixed entry count", Unit: "Mops/s"}
	for _, vw := range valueWords {
		r.Columns = append(r.Columns, fmt.Sprintf("%dB", vw*8))
	}
	maxT := sc.Threads[len(sc.Threads)-1]
	midT := 4
	if midT > maxT {
		midT = maxT
	}
	configs := []struct {
		name    string
		threads int
		mix     workload.Mix
	}{
		{fmt.Sprintf("%d-thr 100%% Ins", maxT), maxT, workload.InsertOnly},
		{fmt.Sprintf("%d-thr 100%% Ins", midT), midT, workload.InsertOnly},
		{"1-thr 100% Ins", 1, workload.InsertOnly},
		{fmt.Sprintf("%d-thr 10%% Ins", maxT), maxT, workload.Mix1090},
		{"1-thr 10% Ins", 1, workload.Mix1090},
	}
	for _, cfg := range configs {
		row := Row{Name: cfg.name}
		for _, vw := range valueWords {
			s := CuckooPlusTSX("", htm.PolicyTuned, core.SearchBFS, true)
			slots := entries * 100 / 95
			tab := s.New(slots, vw, cfg.threads, sc.Seed)
			res := Fill(tab, FillSpec{
				Threads: cfg.threads, Mix: cfg.mix,
				TargetLoad: float64(entries) / float64(slots),
				Slots:      slots, Seed: sc.Seed,
			})
			row.Values = append(row.Values, res.Overall)
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("paper shape: throughput decays with value size; multi-thread advantage shrinks as memory bandwidth saturates")
	return r
}

// Fig10b sweeps the value size with a fixed table byte budget, comparing
// fine-grained locking with elision.
func Fig10b(sc Scale) *Report {
	budgetWords := sc.Slots * 2 // 16 B/slot at vw=1
	valueWords := []int{1, 2, 4, 8, 16, 32, 64, 128}
	r := &Report{ID: "fig10b", Title: "Throughput vs value size, fixed table bytes", Unit: "Mops/s"}
	for _, vw := range valueWords {
		r.Columns = append(r.Columns, fmt.Sprintf("%dB", vw*8))
	}
	maxT := sc.Threads[len(sc.Threads)-1]
	configs := []struct {
		name    string
		scheme  func() Scheme
		threads int
		mix     workload.Mix
	}{
		{fmt.Sprintf("%d-thr 100%% Ins - fine-grained", maxT), func() Scheme { return CuckooPlusFG() }, maxT, workload.InsertOnly},
		{fmt.Sprintf("%d-thr 100%% Ins - TSX", maxT), func() Scheme {
			return CuckooPlusTSX("", htm.PolicyTuned, core.SearchBFS, true)
		}, maxT, workload.InsertOnly},
		{"1-thr 100% Ins - TSX", func() Scheme {
			return CuckooPlusTSX("", htm.PolicyTuned, core.SearchBFS, true)
		}, 1, workload.InsertOnly},
		{fmt.Sprintf("%d-thr 10%% Ins - TSX", maxT), func() Scheme {
			return CuckooPlusTSX("", htm.PolicyTuned, core.SearchBFS, true)
		}, maxT, workload.Mix1090},
		{"1-thr 10% Ins - TSX", func() Scheme {
			return CuckooPlusTSX("", htm.PolicyTuned, core.SearchBFS, true)
		}, 1, workload.Mix1090},
	}
	for _, cfg := range configs {
		row := Row{Name: cfg.name}
		for _, vw := range valueWords {
			slots := budgetWords / uint64(1+vw)
			if slots < 1024 {
				slots = 1024
			}
			tab := cfg.scheme().New(slots, vw, cfg.threads, sc.Seed)
			res := Fill(tab, FillSpec{
				Threads: cfg.threads, Mix: cfg.mix,
				TargetLoad: 0.90, Slots: slots, Seed: sc.Seed,
			})
			row.Values = append(row.Values, res.Overall)
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("paper shape: elision wins at small values, loses to fine-grained locking near 1 KB (capacity/conflict footprint grows with the value)")
	return r
}

// fill95 builds a table from o and fills it to 95% with concurrent
// writers, so that most late inserts need a cuckoo path; a writer stops at
// its first refusal.
func fill95(o core.Options, threads int, seed uint64) *core.Table {
	tab := core.MustNewTable(o)
	var wg sync.WaitGroup
	quota := uint64(0.95*float64(tab.Cap())) / uint64(threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			gen := workload.NewUniformKeys(seed, th)
			for i := uint64(0); i < quota; i++ {
				if err := tab.Insert(gen.NextKey(), i); err != nil {
					return
				}
			}
		}(th)
	}
	wg.Wait()
	return tab
}

// Eq1 compares the measured path-invalidation rate against the analytic
// upper bound Pinvalid_max = 1 - ((N-L)/N)^(L(T-1)).
func Eq1(sc Scale) *Report {
	threads := sc.Threads[len(sc.Threads)-1]
	r := &Report{
		ID:      "eq1",
		Title:   fmt.Sprintf("Path invalidation probability, %d writers", threads),
		Columns: []string{"analytic max", "measured", "max path L"},
	}
	for _, mode := range []core.SearchMode{core.SearchDFS, core.SearchBFS} {
		o := core.Defaults(sc.Slots)
		o.Seed = sc.Seed
		o.Search = mode
		tab := fill95(o, threads, sc.Seed)
		st := tab.Stats()
		measured := 0.0
		if st.Searches > 0 {
			measured = float64(st.PathRestarts) / float64(st.Searches)
		}
		n := float64(tab.Cap())
		l := float64(st.MaxPathLen)
		analytic := 1 - math.Pow((n-l)/n, l*float64(threads-1))
		name := "BFS"
		if mode == core.SearchDFS {
			name = "DFS"
		}
		r.AddRow(name, analytic, measured, l)
	}
	r.AddNote("Eq. 1 is an upper bound assuming all paths at max length; measured rates must fall below it")
	return r
}

// Eq2 compares measured maximum BFS path lengths against the closed form
// L = ceil(log_B(M/2 - M/2B + 1)).
func Eq2(sc Scale) *Report {
	const m = 2000
	r := &Report{
		ID:      "eq2",
		Title:   "BFS maximum cuckoo-path length, M=2000",
		Columns: []string{"Eq.2 bound", "measured max"},
	}
	for _, assoc := range []int{2, 4, 8, 16} {
		o := core.Defaults(sc.Slots / 4)
		o.Assoc = assoc
		buckets := uint64(2)
		for buckets*uint64(assoc) < sc.Slots/4 {
			buckets <<= 1
		}
		o.Buckets = buckets
		o.MaxSearchSlots = m
		o.Seed = sc.Seed
		tab := core.MustNewTable(o)
		gen := workload.NewSequentialKeys(1)
		for {
			if err := tab.Insert(gen.NextKey(), 0); err != nil {
				break
			}
		}
		bound := core.MaxBFSPathLen(assoc, m)
		r.AddRow(fmt.Sprintf("B=%d", assoc), float64(bound), float64(tab.Stats().MaxPathLen))
	}
	r.AddNote("paper: B=4 gives L_BFS=5 vs 250 for two-way DFS")
	return r
}

// Naive reproduces the §2.3 narrative numbers: 1-thread vs 8-thread insert
// throughput and abort rates for naive global locking and glibc elision.
func Naive(sc Scale) *Report {
	threads := sc.Threads[len(sc.Threads)-1]
	r := &Report{
		ID:      "naive",
		Title:   "Naive concurrency control (§2.3)",
		Unit:    "Mops/s",
		Columns: []string{"1-thread", fmt.Sprintf("%d-thread", threads), "abort rate", "fallback frac"},
	}
	slots := sc.Fig2Keys * 8
	schemes := []Scheme{
		Memc3(4),
		Memc3TSX("cuckoo w/ TSX-glibc", htm.PolicyGlibc, 4),
		LockWrapped("dense w/ lock", Dense()),
		DenseTSX("dense w/ TSX-glibc", htm.PolicyGlibc),
		LockWrapped("unordered w/ lock", Unordered()),
		UnorderedTSX("unordered w/ TSX-glibc", htm.PolicyGlibc),
	}
	for _, s := range schemes {
		run := func(th int) RunResult {
			tab := s.New(slots, 1, th, sc.Seed)
			return Fill(tab, FillSpec{
				Threads: th, Mix: workload.InsertOnly,
				TargetLoad: float64(sc.Fig2Keys) / float64(slots),
				Slots:      slots, Seed: sc.Seed,
			})
		}
		one := run(1)
		many := run(threads)
		abortRate, fallbackFrac := math.NaN(), math.NaN()
		if many.Tx != nil {
			abortRate = many.Tx.AbortRate()
			if c := many.Tx.Commits + many.Tx.Fallbacks; c > 0 {
				fallbackFrac = float64(many.Tx.Fallbacks) / float64(c)
			}
		}
		r.AddRow(s.Name, one.Overall, many.Overall, abortRate, fallbackFrac)
	}
	r.AddNote("paper: multi-thread < single-thread for all; elision > lock but still < 1 thread; abort rates above 80%% in hardware")
	return r
}

// Probes exercises the observability probe layer end to end: it fills a
// table with concurrent writers and reports the signals the probes collect
// along the way — the BFS path-length distribution (what the Eq. 2 bound
// caps), the stripe-lock contention counters, and the displacement totals.
// The same counters back the daemon's /metrics endpoint.
func Probes(sc Scale) *Report {
	threads := sc.Threads[len(sc.Threads)-1]
	r := &Report{
		ID:      "probes",
		Title:   fmt.Sprintf("Probe-layer signals, %d writers filling to 95%%", threads),
		Columns: []string{"value"},
	}
	o := core.Defaults(sc.Slots)
	o.Seed = sc.Seed
	tab := fill95(o, threads, sc.Seed)
	st := tab.Stats()
	ls := tab.LockStats()
	r.AddRow("searches", float64(st.Searches))
	r.AddRow("displacements", float64(st.Displacements))
	r.AddRow("path_restarts", float64(st.PathRestarts))
	r.AddRow("max_path_len", float64(st.MaxPathLen))
	r.AddRow("lock_acquisitions", float64(ls.Acquisitions))
	r.AddRow("lock_contended", float64(ls.Contended))
	r.AddRow("lock_yields", float64(ls.Yields))
	r.AddRow("lock_contention_rate", ls.ContentionRate())
	hist := ""
	for i, n := range st.PathLenHist {
		if n > 0 {
			hist += fmt.Sprintf(" len%d:%d", i, n)
		}
	}
	r.AddNote("path-length histogram:%s", hist)
	r.AddNote("paper shape: path lengths concentrate at 0-1 with a tail bounded by Eq. 2; contention rate stays low because stripes outnumber writers")
	return r
}

// SortRowsByValue orders a report's rows by their first value descending
// (used by fig1-style "best of" reports).
func (r *Report) SortRowsByValue() {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		return r.Rows[i].Values[0] > r.Rows[j].Values[0]
	})
}
