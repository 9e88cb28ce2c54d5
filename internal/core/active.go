package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
)

// ActiveREDS implements the active-learning extension sketched in
// Section 10 of the paper: instead of spending the whole simulation
// budget on an up-front space-filling design, it alternates metamodel
// fitting with uncertainty sampling — each round simulates the candidate
// points whose predicted probability is closest to the decision
// boundary, where one more label is most informative. The final
// metamodel then drives the ordinary REDS pipeline.
type ActiveREDS struct {
	// REDS configures the metamodel, sampler, L and SD exactly as for
	// the plain procedure.
	REDS
	// InitialFrac is the share of the budget spent on the initial
	// space-filling design (default 0.5).
	InitialFrac float64
	// Rounds is the number of active-learning rounds the remaining
	// budget is split across (default 4).
	Rounds int
	// PoolSize is the number of candidate points scored per round
	// (default 2000).
	PoolSize int
}

// DiscoverBudget runs the active pipeline against the simulation model f
// with a total budget of simulation runs, then returns the discovered
// scenario and the labeled dataset it used. The returned dataset allows
// callers to compare against plain REDS on the same budget.
func (a *ActiveREDS) DiscoverBudget(f funcs.Function, budget int, rng *rand.Rand) (*sd.Result, *dataset.Dataset, error) {
	if a.Metamodel == nil || a.SD == nil {
		return nil, nil, fmt.Errorf("core: ActiveREDS needs both a metamodel and an SD algorithm")
	}
	if budget < 10 {
		return nil, nil, fmt.Errorf("core: budget %d too small", budget)
	}
	frac := a.InitialFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	rounds := a.Rounds
	if rounds == 0 {
		rounds = 4
	}
	poolSize := a.PoolSize
	if poolSize == 0 {
		poolSize = 2000
	}
	smp := a.Sampler
	if smp == nil {
		smp = sample.LatinHypercube{}
	}

	nInit := int(frac * float64(budget))
	if nInit < 2 {
		nInit = 2
	}
	data := funcs.Generate(f, nInit, smp, rng)
	remaining := budget - nInit
	perRound := remaining / rounds

	for round := 0; round < rounds && remaining > 0; round++ {
		take := perRound
		if round == rounds-1 {
			take = remaining // spend any leftover in the last round
		}
		if take < 1 {
			break
		}
		model, err := a.Metamodel.Train(data, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("core: active round %d: %w", round, err)
		}
		pool := smp.Sample(poolSize, f.Dim(), rng)
		// Uncertainty sampling: |P(y=1|x) - 0.5| smallest first.
		type cand struct {
			x []float64
			u float64
		}
		probs := metamodel.PredictProbBatch(model, pool)
		cands := make([]cand, len(pool))
		for i, x := range pool {
			cands[i] = cand{x, math.Abs(probs[i] - 0.5)}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].u < cands[j].u })
		if take > len(cands) {
			take = len(cands)
		}
		// Grow into a fresh Dataset rather than appending in place:
		// trained metamodels may have materialized the old dataset's
		// cached columnar views, which must not outlive its contents.
		x, yy := data.X, data.Y
		for _, c := range cands[:take] {
			x = append(x, c.x)
			yy = append(yy, funcs.Label(f, c.x, rng))
		}
		data = &dataset.Dataset{X: x, Y: yy, Discrete: data.Discrete}
		remaining -= take
	}

	res, err := a.REDS.Discover(data, data, rng)
	return res, data, err
}
