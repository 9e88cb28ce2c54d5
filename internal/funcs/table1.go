package funcs

// Meta describes a Table 1 row: dimensionality, number of relevant inputs
// and the expected positive share (percent) under uniform inputs as
// reported in the paper.
type Meta struct {
	Name     string
	M        int
	I        int
	SharePct float64
	// Exact is true when the published formula is implemented verbatim;
	// false marks the stand-ins documented in standins.go.
	Exact bool
}

// Table1 lists the analytic functions of this package in paper order
// (dsgc, TGL and lake live in their own packages).
var Table1 = []Meta{
	{"f1", 5, 2, 47.6, false},
	{"f2", 5, 2, 25.7, false},
	{"f3", 5, 2, 8.2, false},
	{"f4", 5, 2, 18, false},
	{"f5", 5, 2, 8, false},
	{"f6", 5, 2, 8.1, false},
	{"f7", 5, 2, 35, false},
	{"f8", 5, 2, 10.9, false},
	{"f102", 15, 9, 67.2, false},
	{"borehole", 8, 8, 30.9, true},
	{"ellipse", 15, 10, 22.5, true},
	{"hart3", 3, 3, 33.5, true},
	{"hart4", 4, 4, 30.1, true},
	{"hart6sc", 6, 6, 22.6, true},
	{"ishigami", 3, 3, 25.5, true},
	{"linketal06dec", 10, 8, 25.3, true},
	{"linketal06simple", 10, 4, 28.5, true},
	{"linketal06sin", 10, 2, 27.2, false},
	{"loepetal13", 10, 7, 38.9, false},
	{"moon10hd", 20, 20, 42.1, false},
	{"moon10hdc1", 20, 5, 34.2, false},
	{"moon10low", 3, 3, 45.6, false},
	{"morretal06", 30, 10, 34.5, false},
	{"morris", 20, 20, 30.1, true},
	{"oakoh04", 15, 15, 24.9, false},
	{"otlcircuit", 6, 6, 22.5, true},
	{"piston", 7, 7, 36.8, true},
	{"soblev99", 20, 19, 41.3, false},
	{"sobol", 8, 8, 39.2, true},
	{"welchetal92", 20, 18, 35.6, true},
	{"willetal06", 3, 2, 24.9, false},
	{"wingweight", 10, 10, 37.8, true},
}
