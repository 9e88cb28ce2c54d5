package prim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/sd"
)

// diffDataset draws n points with m continuous inputs and a noisy
// two-feature interaction label.
func diffDataset(n, m int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0] < 0.6 && row[m/2] > 0.25 {
			y[i] = 1
		}
		if rng.Float64() < 0.05 {
			y[i] = 1 - y[i]
		}
	}
	return dataset.MustNew(x, y)
}

func sameTrajectory(t *testing.T, name string, got, want *sd.Result) {
	t.Helper()
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, want %d", name, len(got.Steps), len(want.Steps))
	}
	if got.FinalIndex != want.FinalIndex {
		t.Fatalf("%s: final index %d, want %d", name, got.FinalIndex, want.FinalIndex)
	}
	for i := range got.Steps {
		if !reflect.DeepEqual(got.Steps[i].Box.Lo, want.Steps[i].Box.Lo) ||
			!reflect.DeepEqual(got.Steps[i].Box.Hi, want.Steps[i].Box.Hi) {
			t.Fatalf("%s: step %d box differs\ngot:  %v\nwant: %v", name, i, got.Steps[i].Box, want.Steps[i].Box)
		}
		if got.Steps[i].Train != want.Steps[i].Train || got.Steps[i].Val != want.Steps[i].Val {
			t.Fatalf("%s: step %d stats differ", name, i)
		}
	}
}

// TestFastPeelerMatchesReference peels seeded random datasets with the
// presorted columnar engine (at the test's GOMAXPROCS and at 4) and
// with the original quickselect implementation, asserting
// byte-identical trajectories: every box bound, every step statistic,
// the selected final box.
func TestFastPeelerMatchesReference(t *testing.T) {
	configs := []Peeler{
		{},
		{Alpha: 0.1, MinPoints: 10},
		{Objective: ObjectiveLift},
		{Alpha: 0.03, Paste: true},
	}
	for ci, base := range configs {
		for _, seed := range []int64{1, 7, 42} {
			d := diffDataset(800, 6, seed)
			val := diffDataset(400, 6, seed+100)

			want := discoverReference(base, d, val)

			fast := base
			got, err := fast.Discover(d, val, nil)
			if err != nil {
				t.Fatalf("config %d seed %d: fast: %v", ci, seed, err)
			}
			sameTrajectory(t, "serial fast", got, want)

			prev := runtime.GOMAXPROCS(4)
			got, err = fast.Discover(d, val, nil)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("config %d seed %d: parallel: %v", ci, seed, err)
			}
			sameTrajectory(t, "parallel fast", got, want)
		}
	}
}

// TestFastPeelerMatchesReferenceWithTies exercises tied values (a
// discretized column and bootstrap-style duplicated rows, then the
// bootstrap replicas bumping peels, one by one), where the tie-grouped
// removal logic has to agree between the two paths.
func TestFastPeelerMatchesReferenceWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 500, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		if i%5 == 0 && i > 0 {
			x[i] = x[i-1] // duplicated row, as bumping's bootstraps produce
			y[i] = y[i-1]
			continue
		}
		row := make([]float64, m)
		for j := range row {
			if j == 1 {
				row[j] = float64(rng.Intn(5)) / 4 // discretized: heavy ties
			} else {
				row[j] = rng.Float64()
			}
		}
		x[i] = row
		if row[0] < 0.6 && row[2] > 0.25 {
			y[i] = 1
		}
	}
	d := dataset.MustNew(x, y)

	got, err := (&Peeler{}).Discover(d, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "ties", got, discoverReference(Peeler{}, d, d))

	// Bumping's replicas, drawn as Bumping.Discover draws them for
	// &Bumping{Q: 12, SubsetSize: 3, MinPoints: 10} from seed 9.
	train := diffDataset(300, 5, 11)
	rng = rand.New(rand.NewSource(9))
	peeler := Peeler{MinPoints: 10}
	for rep := 0; rep < 12; rep++ {
		bs := train.Bootstrap(rng)
		cols := rng.Perm(train.M())[:3]
		sort.Ints(cols)
		sub := bs.SelectColumns(cols)
		got, err := peeler.Discover(sub, sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory(t, fmt.Sprintf("bumping replica %d", rep), got, discoverReference(peeler, sub, sub))
	}
}

// TestFastPeelerMatchesReferenceProbLabels repeats the comparison with
// fractional labels — the engine's ProbLabels mode hands PRIM raw
// metamodel probabilities — where candidate scores are sums of
// non-identical floats and summation order matters most.
func TestFastPeelerMatchesReferenceProbLabels(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		n, m := 800, 6
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			row := make([]float64, m)
			for j := range row {
				row[j] = rng.Float64()
			}
			x[i] = row
			// A smooth probability surface peaking in the target region.
			y[i] = 1 / (1 + 40*(row[0]-0.3)*(row[0]-0.3) + 40*(row[m/2]-0.7)*(row[m/2]-0.7))
		}
		d := dataset.MustNew(x, y)

		got, err := (&Peeler{}).Discover(d, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory(t, "prob labels", got, discoverReference(Peeler{}, d, d))
	}
}

// TestParallelBumpingMatchesSerial runs bumping at GOMAXPROCS 4 against
// a serial run at GOMAXPROCS 1 from identical seeds and asserts
// byte-identical results. TestFastPeelerMatchesReferenceWithTies checks
// the same replicas' peels against the reference peeler.
func TestParallelBumpingMatchesSerial(t *testing.T) {
	d := diffDataset(300, 5, 11)
	val := diffDataset(200, 5, 12)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := &Bumping{Q: 12, SubsetSize: 3, MinPoints: 10}
	want, err := b.Discover(d, val, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(4)
	got, err := b.Discover(d, val, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "parallel bumping", got, want)
}

// fuzzSpecials are the values a fuzzed column draws besides its plain
// levels: both infinities, both zeros, the smallest subnormal and the
// floats next to 1, so that peels cut at each of them.
var fuzzSpecials = []float64{
	math.Inf(-1), -1, math.Copysign(0, -1), 0, 5e-324,
	math.Nextafter(1, 0), 1, math.Nextafter(1, 2), math.Inf(1),
}

// fuzzDataset decodes a training set of m inputs from data, m+1 bytes a
// row: a value byte per input, then a label byte. A value byte ending
// in 00 picks from fuzzSpecials, one ending in 01 one of four levels,
// and any other one of 64 levels in [0, 1). A label byte with its top
// bit set repeats the previous row's inputs, as a bootstrap does; its
// low bit is a hard label, and its low seven bits over 127 a
// fractional one.
func fuzzDataset(data []byte, m int, frac bool) *dataset.Dataset {
	var x [][]float64
	var y []float64
	for ; len(data) > m && len(x) < 300; data = data[m+1:] {
		lb := data[m]
		row := make([]float64, m)
		for j, b := range data[:m] {
			switch b & 3 {
			case 0:
				row[j] = fuzzSpecials[int(b>>2)%len(fuzzSpecials)]
			case 1:
				row[j] = float64(b >> 2 & 3)
			default:
				row[j] = float64(b>>2) / 64
			}
		}
		if lb&0x80 != 0 && len(x) > 0 {
			row = x[len(x)-1]
		}
		x = append(x, row)
		if frac {
			y = append(y, float64(lb&0x7f)/127)
		} else {
			y = append(y, float64(lb&1))
		}
	}
	return dataset.MustNew(x, y)
}

// FuzzPeelerMatchesReference peels a decoded training set with the
// engine and with discoverReference and asserts byte-identical
// trajectories. cfg picks α ∈ {0.03, 0.05, 0.1, 0.3} (bits 0–1), the
// lift objective (bit 2), fractional labels (bit 3), a MinPoints of 1
// to 8 (bits 4–6), small so that a peel runs on until an order has
// gone many steps between compactions, whether the validation set is
// every other training row instead of all of them (bit 7), and 1 to 4
// inputs (bits 8–9). The seeds mix few-level and many-level columns,
// duplicated rows, and both infinities, both zeros and adjacent floats
// at the cuts.
func FuzzPeelerMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 32; i++ {
		cfg := uint16(rng.Intn(1 << 10))
		data := make([]byte, (1+int(cfg>>8&3)+1)*(20+rng.Intn(180)))
		rng.Read(data)
		f.Add(cfg, data)
	}
	f.Fuzz(func(t *testing.T, cfg uint16, data []byte) {
		m := 1 + int(cfg>>8&3)
		d := fuzzDataset(data, m, cfg&8 != 0)
		if d.N() < 2 {
			return
		}
		val := d
		if cfg&0x80 != 0 {
			var half []int
			for i := 0; i < d.N(); i += 2 {
				half = append(half, i)
			}
			val = d.Subset(half)
		}
		p := Peeler{
			Alpha:     []float64{0.03, 0.05, 0.1, 0.3}[cfg&3],
			MinPoints: 1 + int(cfg>>4&7),
		}
		if cfg&4 != 0 {
			p.Objective = ObjectiveLift
		}
		got, err := p.Discover(d, val, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory(t, "fuzz", got, discoverReference(p, d, val))
	})
}

// TestConcurrentPeelsLeaveSortedOrders runs two Discover calls at once
// on one training set, as the engine's prim and bi variants share one
// cached label set, and then holds that set's SortedOrders to a fresh
// dataset's: the engine reads the shared orders and must never write
// them. Under the race detector a write would also show as a race.
func TestConcurrentPeelsLeaveSortedOrders(t *testing.T) {
	d := diffDataset(3000, 5, 21)
	val := diffDataset(300, 5, 22)
	var wg sync.WaitGroup
	res := make([]*sd.Result, 2)
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if res[i], err = (&Peeler{MinPoints: 5}).Discover(d, val, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sameTrajectory(t, "concurrent peels", res[1], res[0])
	if got, want := d.SortedOrders(), dataset.MustNew(d.X, d.Y).SortedOrders(); !reflect.DeepEqual(got, want) {
		t.Fatal("Discover changed the training set's shared sorted orders")
	}
}
