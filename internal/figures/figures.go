// Package figures regenerates every figure of the paper's evaluation:
//
//	Figure 9  — availability, 3 available/naive copies vs 6 voting copies
//	Figure 10 — availability, 4 available/naive copies vs 8 voting copies
//	Figure 11 — multi-cast traffic per (1 write + x reads), ρ = 0.05
//	Figure 12 — unique-addressing traffic per (1 write + x reads), ρ = 0.05
//
// plus machine-checked renditions of Theorem 4.1 and the §5 cost table.
// Each generator returns plain numeric series; Render and CSV turn them
// into an ASCII plot or comma-separated data for external plotting.
package figures

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"relidev/internal/analysis"
	"relidev/internal/sim"
)

// Series is one labelled curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a set of curves with axis metadata.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// RhoRange returns the ρ grid the paper plots: 0 to 0.20.
func RhoRange(points int) []float64 {
	if points < 2 {
		points = 21
	}
	out := make([]float64, points)
	for i := range out {
		out[i] = 0.20 * float64(i) / float64(points-1)
	}
	return out
}

// availabilityFigure builds a Figure 9/10-style chart: nAC available /
// naive copies against nVote voting copies.
func availabilityFigure(id string, nAC, nVote int) (Figure, error) {
	rhos := RhoRange(21)
	mk := func(label string, f func(int, float64) (float64, error), n int) (Series, error) {
		s := Series{Label: label, X: rhos}
		for _, rho := range rhos {
			a, err := f(n, rho)
			if err != nil {
				return Series{}, err
			}
			s.Y = append(s.Y, a)
		}
		return s, nil
	}
	ac, err := mk(fmt.Sprintf("available copy (n=%d)", nAC), analysis.AvailabilityAC, nAC)
	if err != nil {
		return Figure{}, err
	}
	na, err := mk(fmt.Sprintf("naive available copy (n=%d)", nAC), analysis.AvailabilityNaive, nAC)
	if err != nil {
		return Figure{}, err
	}
	v, err := mk(fmt.Sprintf("voting (n=%d)", nVote), analysis.AvailabilityVoting, nVote)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: id,
		Title: fmt.Sprintf("Availabilities for %d Available Copies and %d Voting Copies",
			nAC, nVote),
		XLabel: "rho = lambda/mu",
		YLabel: "availability",
		Series: []Series{ac, na, v},
	}, nil
}

// Figure9 reproduces Figure 9: three available copies vs six voting
// copies over ρ in [0, 0.20].
func Figure9() (Figure, error) { return availabilityFigure("figure9", 3, 6) }

// Figure10 reproduces Figure 10: four available copies vs eight voting
// copies.
func Figure10() (Figure, error) { return availabilityFigure("figure10", 4, 8) }

// trafficFigure builds a Figure 11/12-style chart: expected transmissions
// for one write plus x reads, as a function of the number of sites n, at
// ρ = 0.05, with the voting curve drawn for x in {1, 2, 4} (read:write
// ratios 1:1, 2:1 and 4:1) and the flat available copy curves.
func trafficFigure(id string, multicast bool) (Figure, error) {
	const rho = 0.05
	ns := []int{2, 3, 4, 5, 6, 7, 8}
	nsF := make([]float64, len(ns))
	for i, n := range ns {
		nsF[i] = float64(n)
	}
	costsOf := func(s analysis.Scheme, n int) (analysis.Costs, error) {
		if multicast {
			return analysis.MulticastCosts(s, n, rho)
		}
		return analysis.UnicastCosts(s, n, rho)
	}
	var out []Series
	for _, x := range []float64{1, 2, 4} {
		s := Series{Label: fmt.Sprintf("voting, %g:1 reads:writes", x), X: nsF}
		for _, n := range ns {
			c, err := costsOf(analysis.SchemeVoting, n)
			if err != nil {
				return Figure{}, err
			}
			s.Y = append(s.Y, analysis.WorkloadCost(c, x))
		}
		out = append(out, s)
	}
	for _, sc := range []struct {
		s     analysis.Scheme
		label string
	}{
		{analysis.SchemeAvailableCopy, "available copy (any read ratio)"},
		{analysis.SchemeNaive, "naive available copy (any read ratio)"},
	} {
		s := Series{Label: sc.label, X: nsF}
		for _, n := range ns {
			c, err := costsOf(sc.s, n)
			if err != nil {
				return Figure{}, err
			}
			s.Y = append(s.Y, analysis.WorkloadCost(c, 1))
		}
		out = append(out, s)
	}
	env := "Multi-cast"
	if !multicast {
		env = "Unique Address"
	}
	return Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s Results (transmissions per one write + x reads, rho=0.05)", env),
		XLabel: "number of sites n",
		YLabel: "high-level transmissions",
		Series: out,
	}, nil
}

// Figure11 reproduces Figure 11 (multi-cast environment).
func Figure11() (Figure, error) { return trafficFigure("figure11", true) }

// Figure12 reproduces Figure 12 (unique addressing environment).
func Figure12() (Figure, error) { return trafficFigure("figure12", false) }

// WithSimulation appends a simulated-availability series (discrete-event
// run of the matching state machine) to a Figure 9/10-style figure, at a
// few spot values of ρ, so analytic and measured curves can be compared.
func WithSimulation(fig Figure, nAC int, horizon float64, seed int64) (Figure, error) {
	spots := []float64{0.05, 0.10, 0.15, 0.20}
	s := Series{Label: fmt.Sprintf("available copy (n=%d), simulated", nAC)}
	for _, rho := range spots {
		m, err := sim.NewModel(analysis.SchemeAvailableCopy, nAC)
		if err != nil {
			return Figure{}, err
		}
		res, err := sim.SimulateAvailability(m, nAC, rho, horizon, seed)
		if err != nil {
			return Figure{}, err
		}
		s.X = append(s.X, rho)
		s.Y = append(s.Y, res.Availability)
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// TheoremRow is one checked instance of Theorem 4.1.
type TheoremRow struct {
	N      int
	Rho    float64
	AC     float64
	Voting float64 // A_V(2n-1) = A_V(2n)
	Holds  bool
}

// Theorem41 evaluates Theorem 4.1 (A_A(n) > A_V(2n-1) for ρ <= 1) over a
// grid and reports each instance.
func Theorem41() ([]TheoremRow, error) {
	var rows []TheoremRow
	for n := 2; n <= 6; n++ {
		for _, rho := range []float64{0.05, 0.1, 0.2, 0.5, 1.0} {
			ac, err := analysis.AvailabilityAC(n, rho)
			if err != nil {
				return nil, err
			}
			v, err := analysis.AvailabilityVoting(2*n-1, rho)
			if err != nil {
				return nil, err
			}
			rows = append(rows, TheoremRow{N: n, Rho: rho, AC: ac, Voting: v, Holds: ac >= v})
		}
	}
	return rows, nil
}

// CostRow is one line of the §5 cost table.
type CostRow struct {
	Scheme   string
	Mode     string
	N        int
	Write    float64
	Read     float64
	Recovery float64
}

// CostTable evaluates the full §5 cost model at ρ = 0.05.
func CostTable(ns []int) ([]CostRow, error) {
	const rho = 0.05
	var rows []CostRow
	for _, n := range ns {
		for _, sc := range []analysis.Scheme{analysis.SchemeVoting, analysis.SchemeAvailableCopy, analysis.SchemeNaive} {
			for _, multicast := range []bool{true, false} {
				var c analysis.Costs
				var err error
				mode := "multicast"
				if multicast {
					c, err = analysis.MulticastCosts(sc, n, rho)
				} else {
					mode = "unicast"
					c, err = analysis.UnicastCosts(sc, n, rho)
				}
				if err != nil {
					return nil, err
				}
				rows = append(rows, CostRow{
					Scheme: sc.String(), Mode: mode, N: n,
					Write: c.Write, Read: c.Read, Recovery: c.Recovery,
				})
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].N != rows[j].N {
			return rows[i].N < rows[j].N
		}
		if rows[i].Mode != rows[j].Mode {
			return rows[i].Mode < rows[j].Mode
		}
		return rows[i].Scheme < rows[j].Scheme
	})
	return rows, nil
}

// CSV renders a figure as comma-separated values: one row per X value,
// one column per series.
func CSV(fig Figure) string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range fig.Series {
		b.WriteString(",")
		b.WriteString(strings.ReplaceAll(s.Label, ",", ";"))
	}
	b.WriteString("\n")
	// Collect the union of X values (series may have different grids).
	xs := map[float64]bool{}
	for _, s := range fig.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range fig.Series {
			val, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, ",%.9f", val)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func lookup(s Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Render draws the figure as a text plot, one symbol per series.
func Render(fig Figure, width, height int) string {
	if width < 20 {
		width = 72
	}
	if height < 5 {
		height = 20
	}
	symbols := []byte{'A', 'N', 'V', 'W', 'X', 'o', '+', '*'}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range fig.Series {
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if minX >= maxX {
		maxX = minX + 1
	}
	if minY >= maxY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range fig.Series {
		sym := symbols[si%len(symbols)]
		for i := range s.X {
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = sym
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", fig.ID, fig.Title)
	fmt.Fprintf(&b, "y: %s  [%.6g .. %.6g]\n", fig.YLabel, minY, maxY)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "   x: %s  [%g .. %g]\n", fig.XLabel, minX, maxX)
	for si, s := range fig.Series {
		fmt.Fprintf(&b, "   %c = %s\n", symbols[si%len(symbols)], s.Label)
	}
	return b.String()
}
