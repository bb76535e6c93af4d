// Command figures regenerates the figures of the paper's evaluation
// section (Figures 9-12), the Theorem 4.1 check, the §5 cost table, and
// the extension figures and table of DESIGN.md §4.
//
// Usage:
//
//	figures -fig 9                    ASCII plot of Figure 9 (10, 11, 12 likewise)
//	figures -fig 11 -csv              CSV data for Figure 11
//	figures -fig 9 -sim               overlay simulated spot measurements
//	figures -fig theorem              Theorem 4.1 over a (n, rho) grid
//	figures -fig costs                §5 cost table
//	figures -fig witness              voting with witnesses (X1)
//	figures -fig equal-availability   traffic at equal availability (X2)
//	figures -fig mttf                 mean time to first inaccessibility (X6)
//	figures -fig all                  every figure and table, 9 through mttf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"relidev/internal/analysis"
	"relidev/internal/figures"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "which figure: 9, 10, 11, 12, theorem, costs, witness, equal-availability, mttf, all")
		csv    = flag.Bool("csv", false, "emit CSV instead of an ASCII plot")
		sim    = flag.Bool("sim", false, "overlay simulated availability spot values (figures 9 and 10)")
		width  = flag.Int("width", 72, "plot width in characters")
		height = flag.Int("height", 20, "plot height in characters")
		seed   = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *fig, *csv, *sim, *width, *height, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, which string, csv, sim bool, width, height int, seed int64) error {
	printFig := func(f figures.Figure, nAC int) error {
		if sim && nAC > 0 {
			var err error
			f, err = figures.WithSimulation(f, nAC, 200000, seed)
			if err != nil {
				return err
			}
		}
		if csv {
			fmt.Fprint(w, figures.CSV(f))
		} else {
			fmt.Fprintln(w, figures.Render(f, width, height))
		}
		return nil
	}

	show := func(id string) error {
		switch id {
		case "9":
			f, err := figures.Figure9()
			if err != nil {
				return err
			}
			return printFig(f, 3)
		case "10":
			f, err := figures.Figure10()
			if err != nil {
				return err
			}
			return printFig(f, 4)
		case "11":
			f, err := figures.Figure11()
			if err != nil {
				return err
			}
			return printFig(f, 0)
		case "12":
			f, err := figures.Figure12()
			if err != nil {
				return err
			}
			return printFig(f, 0)
		case "witness":
			f, err := figures.FigureWitness()
			if err != nil {
				return err
			}
			return printFig(f, 0)
		case "equal-availability":
			f, err := figures.FigureEqualAvailability()
			if err != nil {
				return err
			}
			return printFig(f, 0)
		case "theorem":
			rows, err := figures.Theorem41()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Theorem 4.1: A_A(n) > A_V(2n-1) = A_V(2n) for rho <= 1")
			fmt.Fprintln(w, "   n    rho        A_A(n)       A_V(2n-1)  holds")
			for _, r := range rows {
				fmt.Fprintf(w, "  %2d  %5.2f  %12.9f  %12.9f  %v\n", r.N, r.Rho, r.AC, r.Voting, r.Holds)
			}
			return nil
		case "mttf":
			fmt.Fprintln(w, "Mean time to first inaccessibility (units of mean repair time), rho = 0.05")
			fmt.Fprintln(w, "   n    MTTF voting      MTTF avail-copy   ratio")
			for n := 1; n <= 8; n++ {
				v, err := analysis.MTTFVoting(n, 0.05)
				if err != nil {
					return err
				}
				ac, err := analysis.MTTFAvailableCopy(n, 0.05)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %2d  %14.4g  %16.4g  %6.4g\n", n, v, ac, ac/v)
			}
			return nil
		case "costs":
			rows, err := figures.CostTable([]int{2, 3, 4, 5, 6, 7, 8})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "§5 cost model at rho = 0.05 (high-level transmissions per operation)")
			fmt.Fprintln(w, "   n  mode       scheme              write     read  recovery")
			for _, r := range rows {
				fmt.Fprintf(w, "  %2d  %-9s  %-16s  %7.3f  %7.3f  %8.3f\n",
					r.N, r.Mode, r.Scheme, r.Write, r.Read, r.Recovery)
			}
			return nil
		default:
			return fmt.Errorf("unknown figure %q", id)
		}
	}

	if which == "all" {
		for _, id := range []string{"9", "10", "11", "12", "theorem", "costs", "witness", "equal-availability", "mttf"} {
			if err := show(id); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return show(which)
}
