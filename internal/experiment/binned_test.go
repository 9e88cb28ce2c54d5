package experiment

import (
	"math"
	"testing"
)

// TestBinnedMatchesExactOnPaperMetrics judges histogram-binned training
// the way the paper judges a REDS metamodel: by the scenarios it yields
// (Table 3). On the default functions, REDS on binned rf and xgb (RPfb,
// RPxb) must match REDS on the exact trainers (RPf, RPx) in mean PR AUC
// and in the mean number of restricted inputs on a shared uniform test
// set. Every method sees the same training data per repetition, so the
// pairs differ only in how the metamodel trains.
func TestBinnedMatchesExactOnPaperMetrics(t *testing.T) {
	if raceEnabled {
		// Its subject is numbers, and it runs ~10x slower under the race
		// detector; TestRunCellBasics and friends race-test RunCell.
		t.Skip("paper-metric check skipped under -race")
	}
	const (
		maxPRAUCDiff      = 0.02
		maxRestrictedDiff = 0.5
	)
	pairs := [][2]string{{"RPf", "RPfb"}, {"RPx", "RPxb"}}
	type totals struct{ prauc, restricted, n float64 }
	sums := map[string]*totals{}
	for _, pair := range pairs {
		for _, m := range pair {
			sums[m] = &totals{}
		}
	}
	for _, name := range DefaultFuncs {
		f, err := Function(name)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := RunCell(Cell{
			Function: f, N: 400, Reps: 2,
			Methods: []string{"RPf", "RPfb", "RPx", "RPxb"},
			LPrim:   10000,
			Test:    CachedTestSet(f, 5000, 1),
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for m, outs := range cell.ByMethod {
			for _, o := range outs {
				sums[m].prauc += o.PRAUC
				sums[m].restricted += float64(o.Restricted)
				sums[m].n++
			}
		}
	}
	for _, pair := range pairs {
		exact, binned := sums[pair[0]], sums[pair[1]]
		ep, bp := exact.prauc/exact.n, binned.prauc/binned.n
		er, br := exact.restricted/exact.n, binned.restricted/binned.n
		t.Logf("%s vs %s: PR AUC %.3f vs %.3f, restricted inputs %.2f vs %.2f", pair[0], pair[1], ep, bp, er, br)
		if d := math.Abs(ep - bp); d > maxPRAUCDiff {
			t.Errorf("%s vs %s: mean PR AUC differs by %.3f > %g", pair[0], pair[1], d, maxPRAUCDiff)
		}
		if d := math.Abs(er - br); d > maxRestrictedDiff {
			t.Errorf("%s vs %s: mean restricted inputs differ by %.2f > %g", pair[0], pair[1], d, maxRestrictedDiff)
		}
	}
}
