package experiment

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/sample"
)

// tiny returns a minimal configuration that exercises every code path in
// seconds.
func tiny() Config {
	return Config{
		Funcs: []string{"f2", "hart3"},
		Reps:  3,
		Ns:    []int{100},
		TestN: 800,
		LPrim: 1500,
		LBI:   800,
		Seed:  7,
	}
}

func TestMethodRegistry(t *testing.T) {
	want := []string{"P", "Pc", "PB", "PBc", "RPf", "RPx", "RPs", "RPfp", "RPxp", "RPcxp",
		"RPfb", "RPxb", "BI", "BI5", "BIc", "RBIcxp", "RBIcfp"}
	for _, name := range want {
		if _, err := Get(name); err != nil {
			t.Errorf("method %q missing: %v", name, err)
		}
	}
	if _, err := Get("XYZ"); err == nil {
		t.Error("unknown method must error")
	}
	if len(MethodNames()) != len(want) {
		t.Errorf("registry has %d methods, want %d", len(MethodNames()), len(want))
	}
}

func TestFunctionResolver(t *testing.T) {
	f, err := Function("dsgc")
	if err != nil || f.Name() != "dsgc" {
		t.Errorf("dsgc resolution failed: %v", err)
	}
	if _, err := Function("morris"); err != nil {
		t.Errorf("morris resolution failed: %v", err)
	}
	if _, err := Function("nope"); err == nil {
		t.Error("unknown function must error")
	}
}

func TestRunCellBasics(t *testing.T) {
	f, _ := funcs.Get("f2")
	test := CachedTestSet(f, 500, 1)
	cell, err := RunCell(Cell{
		Function: f, N: 80, Reps: 3,
		Methods: []string{"P", "RPx"},
		LPrim:   1000, LBI: 500,
		Test: test, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"P", "RPx"} {
		outs := cell.ByMethod[m]
		if len(outs) != 3 {
			t.Fatalf("%s has %d outcomes, want 3", m, len(outs))
		}
		for _, o := range outs {
			if o.PRAUC < 0 || o.PRAUC > 1 {
				t.Errorf("%s PRAUC %g out of range", m, o.PRAUC)
			}
			if o.Precision < 0 || o.Precision > 1 {
				t.Errorf("%s precision %g out of range", m, o.Precision)
			}
			if o.Final == nil {
				t.Errorf("%s missing final box", m)
			}
			if o.Seconds <= 0 {
				t.Errorf("%s missing runtime", m)
			}
		}
	}
	if c := cell.Consistency("P"); c < 0 || c > 1 {
		t.Errorf("consistency %g out of range", c)
	}
	if cell.Mean("P", MetricPRAUC) == 0 && cell.Mean("RPx", MetricPRAUC) == 0 {
		t.Error("all PR AUCs zero — trajectories empty?")
	}
}

// TestRunCellDeterministic: a fixed seed gives the same outcomes on
// every run and at every GOMAXPROCS, serial at 1 included.
func TestRunCellDeterministic(t *testing.T) {
	f, _ := funcs.Get("hart3")
	test := CachedTestSet(f, 400, 2)
	run := func(procs int) *CellResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cell, err := RunCell(Cell{
			Function: f, N: 60, Reps: 2,
			Methods: []string{"P"},
			LPrim:   500, LBI: 500,
			Test: test, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	a := run(2)
	for _, procs := range []int{2, 1} {
		b := run(procs)
		for rep, x := range a.ByMethod["P"] {
			y := b.ByMethod["P"][rep]
			if x.PRAUC != y.PRAUC || x.WRAcc != y.WRAcc || x.TrainWRAcc != y.TrainWRAcc || !x.Final.Equal(y.Final) {
				t.Fatalf("GOMAXPROCS %d: rep %d differs from GOMAXPROCS 2", procs, rep)
			}
		}
	}
}

func TestRunCellValidation(t *testing.T) {
	f, _ := funcs.Get("f2")
	if _, err := RunCell(Cell{}); err == nil {
		t.Error("empty cell must error")
	}
	if _, err := RunCell(Cell{Function: f, Test: CachedTestSet(f, 100, 1)}); err == nil {
		t.Error("degenerate cell must error")
	}
	if _, err := RunCell(Cell{Function: f, Test: CachedTestSet(f, 100, 1),
		N: 50, Reps: 1, Methods: []string{"??"}}); err == nil {
		t.Error("unknown method must error")
	}
}

func TestTable3SmokeAndRender(t *testing.T) {
	cfg := tiny()
	res, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	res.RenderFig7(&buf)
	out := buf.String()
	for _, want := range []string{"Table 3", "PR AUC", "precision", "consistency", "Figure 7", "RPx"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTable4SmokeAndRender(t *testing.T) {
	cfg := tiny()
	res, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	res.RenderFig8(&buf)
	out := buf.String()
	for _, want := range []string{"Table 4", "WRAcc", "RBIcxp", "Figure 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	cfg := tiny()
	cfg.Reps = 4
	res, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "tBIc") {
		t.Error("Figure 6 output incomplete")
	}
	// Core claim of Example 8.1: train evaluation inflates quality.
	tbi := res.Cell.Mean("BI", MetricTrainWRAcc)
	bi := res.Cell.Mean("BI", MetricWRAcc)
	if tbi < bi {
		t.Errorf("train WRAcc (%.4f) should exceed test WRAcc (%.4f)", tbi, bi)
	}
}

func TestFig13Smoke(t *testing.T) {
	cfg := tiny()
	cfg.Reps = 2
	cfg.LPrim = 1500
	res, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"TGL", "lake", "consistency"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig14Smoke(t *testing.T) {
	cfg := tiny()
	res, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "logit-normal") {
		t.Error("Figure 14 output incomplete")
	}
}

func TestSeedForDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for rep := 0; rep < 10; rep++ {
		for _, tag := range []string{"data", "P", "RPx"} {
			s := seedFor(1, "f", 100, rep, tag)
			if seen[s] {
				t.Fatalf("seed collision at rep %d tag %s", rep, tag)
			}
			seen[s] = true
		}
	}
	if seedFor(1, "f", 100, 0, "x") != seedFor(1, "f", 100, 0, "x") {
		t.Error("seedFor must be stable")
	}
}

func TestInterpPrecision(t *testing.T) {
	pts := []metrics.PRPoint{{Recall: 0.2, Precision: 1}, {Recall: 1, Precision: 0.5}}
	if p, ok := interpPrecision(pts, 0.6); !ok || p != 0.75 {
		t.Errorf("interp = %g, %v; want 0.75, true", p, ok)
	}
	if _, ok := interpPrecision(pts, 0.1); ok {
		t.Error("below range must not interpolate")
	}
	if p, ok := interpPrecision(pts, 1); !ok || p != 0.5 {
		t.Errorf("right endpoint = %g, %v", p, ok)
	}
	if _, ok := interpPrecision(nil, 0.5); ok {
		t.Error("empty curve must not interpolate")
	}
}

func TestSamplerTag(t *testing.T) {
	if samplerTag(nil) != "uniform" || samplerTag(sample.Uniform{}) != "uniform" {
		t.Error("uniform tags wrong")
	}
	if samplerTag(sample.Mixed{}) != "mixed" || samplerTag(sample.LogitNormal{}) != "logitnormal" {
		t.Error("sampler tags wrong")
	}
}

func TestShareUnder(t *testing.T) {
	f, _ := funcs.Get("f1")
	rng := rand.New(rand.NewSource(3))
	s := shareUnder(f, sample.LogitNormal{Sigma: 1}, 2000, rng)
	if s <= 0 || s >= 1 {
		t.Errorf("share = %g", s)
	}
}

func TestTable1Smoke(t *testing.T) {
	cfg := tiny()
	res, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 32 analytic functions + dsgc + TGL + lake.
	if len(res.Rows) != 35 {
		t.Fatalf("Table1 has %d rows, want 35", len(res.Rows))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{"morris", "dsgc", "TGL", "lake", "stand-in", "exact"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	cfg := tiny()
	cfg.Funcs = []string{"f2"}
	cfg.Reps = 2
	res, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"pseudo-val", "prob-labels", "lift-objective", "with-pasting", "PR AUC"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
	// Every variant must have run on the function.
	if len(res.Rows["f2"]) != len(AblationOrder) {
		t.Errorf("variants run: %d, want %d", len(res.Rows["f2"]), len(AblationOrder))
	}
}

func TestFig9Smoke(t *testing.T) {
	cfg := tiny()
	cfg.Funcs = []string{"f2"}
	cfg.Reps = 2
	res, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "runtime") {
		t.Error("Fig9 output incomplete")
	}
}

func TestFig10Smoke(t *testing.T) {
	cfg := tiny()
	cfg.Reps = 2
	res, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "mixed inputs") {
		t.Error("Fig10 output incomplete")
	}
}

func TestFig11Smoke(t *testing.T) {
	cfg := tiny()
	cfg.Reps = 2
	cfg.LPrim = 1000
	res, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "peeling trajectories") || !strings.Contains(out, "RPx") {
		t.Error("Fig11 output incomplete")
	}
}

func TestFig12Smoke(t *testing.T) {
	cfg := tiny()
	cfg.Reps = 2
	cfg.LPrim = 800
	cfg.LBI = 800
	res, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"(a)", "(b)", "(c)", "(d)", "RPxp"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig12 output missing %q", want)
		}
	}
}
