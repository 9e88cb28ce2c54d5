// Command calibrate documents how the function thresholds and stand-in
// constants of internal/funcs were fixed: for every Table 1 function it
// prints the empirical output quantile matching the paper's positive
// share, next to the output range. Verified formulas should land on the
// paper's published thresholds; stand-ins were tuned until their
// quantiles did.
package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/funcs"
)

func quantile(name string, sharePct float64) {
	f, err := funcs.Get(name)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(123))
	n := 200000
	vals := make([]float64, n)
	for i := range vals {
		x := make([]float64, f.Dim())
		for j := range x {
			x[j] = rng.Float64()
		}
		vals[i] = f.Eval(x)
	}
	sort.Float64s(vals)
	q := vals[int(float64(n)*sharePct/100)]
	fmt.Printf("%-12s share %.1f%% -> thr %.6g   (min %.4g med %.4g max %.4g)\n",
		name, sharePct, q, vals[0], vals[n/2], vals[n-1])
}

func main() {
	quantile("borehole", 30.9)
	quantile("hart6sc", 22.6)
	quantile("oakoh04", 24.9)
	quantile("ellipse", 22.5)
	quantile("soblev99", 41.3)
	quantile("morretal06", 34.5)
	quantile("moon10hd", 42.1)
	quantile("moon10hdc1", 34.2)
	quantile("moon10low", 45.6)
	quantile("loepetal13", 38.9)
	quantile("linketal06sin", 27.2)
	quantile("willetal06", 24.9)
	quantile("hart3", 33.5)
	quantile("hart4", 30.1)
	quantile("ishigami", 25.5)
	quantile("sobol", 39.2)
	quantile("welchetal92", 35.6)
	quantile("wingweight", 37.8)
	quantile("piston", 36.8)
	quantile("otlcircuit", 22.5)
	quantile("linketal06dec", 25.3)
	quantile("linketal06simple", 28.5)
	quantile("morris", 30.1)
}
