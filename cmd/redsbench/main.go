// Command redsbench regenerates the tables and figures of the paper's
// evaluation (Section 9). Each experiment prints the same rows or series
// the paper reports.
//
// Usage:
//
//	redsbench -exp table3            # one experiment at reduced scale
//	redsbench -exp all -reps 10      # everything, 10 repetitions per cell
//	redsbench -exp table3 -paper     # full paper scale (hours of CPU)
//	redsbench -exp fig12 -funcs morris,borehole
//
// Experiments: fig6, table3, fig7, table4, fig8, fig9, fig10, fig11,
// fig12, fig13, table5, fig14, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/reds-go/reds/internal/experiment"
)

func main() { os.Exit(mainRun()) }

// mainRun is main with an exit code instead of os.Exit, so the deferred
// profile writers run on every path.
func mainRun() int {
	var (
		exp        = flag.String("exp", "all", "experiment id (table1, fig6, table3, fig7, table4, fig8, fig9, fig10, fig11, fig12, fig13, table5, fig14, ablation, all)")
		reps       = flag.Int("reps", 0, "repetitions per cell (0 = config default)")
		funcsCS    = flag.String("funcs", "", "comma-separated function subset (default: representative cross-section)")
		paper      = flag.Bool("paper", false, "full paper scale: 50 reps, 33 functions, L=100000 (CPU-hours)")
		testN      = flag.Int("testn", 0, "test-set size (0 = config default)")
		lprim      = flag.Int("lprim", 0, "REDS L for PRIM-based methods (0 = config default)")
		lbi        = flag.Int("lbi", 0, "REDS L for BI-based methods (0 = config default)")
		seed       = flag.Int64("seed", 1, "experiment seed")
		workers    = flag.Int("workers", 0, "parallel repetitions (0 = GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path at exit (after a final GC)")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "redsbench: -workers must be >= 0, got %d\n", *workers)
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "redsbench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "redsbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "redsbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "redsbench: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiment.Default()
	if *paper {
		cfg = experiment.Paper()
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *funcsCS != "" {
		cfg.Funcs = strings.Split(*funcsCS, ",")
	}
	if *testN > 0 {
		cfg.TestN = *testN
	}
	if *lprim > 0 {
		cfg.LPrim = *lprim
	}
	if *lbi > 0 {
		cfg.LBI = *lbi
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Out = os.Stdout

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "fig6", "table3", "fig7", "table4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ablation"}
	}
	for _, id := range ids {
		start := time.Now()
		if err := run(id, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "redsbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(os.Stdout, "\n[%s done in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
	return 0
}

// run executes one experiment. Table3/Fig7 and Table4/Fig8 share their
// expensive suites, so asking for either renders both views.
func run(id string, cfg experiment.Config, w io.Writer) error {
	switch id {
	case "table1":
		r, err := experiment.Table1(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "ablation":
		r, err := experiment.Ablation(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig6":
		r, err := experiment.Fig6(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "table3", "fig7":
		r, err := experiment.Table3(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
		r.RenderFig7(w)
	case "table4", "fig8":
		r, err := experiment.Table4(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
		r.RenderFig8(w)
	case "fig9":
		r, err := experiment.Fig9(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig10":
		r, err := experiment.Fig10(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig11":
		r, err := experiment.Fig11(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig12":
		r, err := experiment.Fig12(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig13", "table5":
		r, err := experiment.Fig13(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig14":
		r, err := experiment.Fig14(cfg)
		if err != nil {
			return err
		}
		r.Render(w)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
