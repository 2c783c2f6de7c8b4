// Command benchtables regenerates every table and figure of the GraphNER
// paper's evaluation section end-to-end over the synthetic substitute
// corpora, printing paper-style output. Artifacts (corpora, trained CRFs,
// graphs, distributional features) are cached inside the process, so
// requesting several tables shares the expensive work.
//
//	benchtables -all                    # everything, default scale
//	benchtables -table 1 -table 5       # just Tables I and V
//	benchtables -fig 3 -stats           # Figure 3 and §III-D statistics
//	benchtables -scale full -all        # paper-sized corpora (slow)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/corpus/synth"
	"repro/internal/experiments"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }
func (l *intList) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var tables, figs intList
	scaleName := flag.String("scale", "smoke", "smoke, standard, or full")
	all := flag.Bool("all", false, "regenerate every table and figure")
	statsFlag := flag.Bool("stats", false, "print §III-D graph statistics")
	statsOnly := flag.Bool("stats-only", false, "print §III-D graph statistics without training CRFs (fast path for -scale full)")
	seed := flag.Int64("seed", 1, "corpus seed")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Var(&tables, "table", "table number to regenerate (repeatable: 1-5)")
	flag.Var(&figs, "fig", "figure number to regenerate (repeatable: 2-5)")
	flag.Parse()

	var scale experiments.Scale
	switch strings.ToLower(*scaleName) {
	case "smoke":
		scale = experiments.Smoke
	case "standard":
		scale = experiments.Standard
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *all {
		tables = intList{1, 2, 3, 4, 5}
		figs = intList{2, 3, 4, 5}
		*statsFlag = true
	}
	if len(tables) == 0 && len(figs) == 0 && !*statsFlag && !*statsOnly {
		flag.Usage()
		os.Exit(2)
	}

	var log *os.File
	if !*quiet {
		log = os.Stderr
	}

	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", what, err)
		os.Exit(1)
	}

	env := experiments.NewEnv(scale, *seed, log)

	for _, t := range tables {
		switch t {
		case 1:
			tab, err := env.Table1()
			if err != nil {
				fail("table 1", err)
			}
			fmt.Println(tab)
		case 2:
			tab, err := env.Table2()
			if err != nil {
				fail("table 2", err)
			}
			fmt.Println(tab)
		case 3:
			tab, err := env.Table3()
			if err != nil {
				fail("table 3", err)
			}
			fmt.Println(tab)
		case 4:
			for _, spec := range []struct {
				p synth.Profile
				b experiments.Base
			}{
				{synth.BC2GM, experiments.BANNER},
				{synth.BC2GM, experiments.ChemDNER},
				{synth.AML, experiments.BANNER},
				{synth.AML, experiments.ChemDNER},
			} {
				grid, err := env.Table4(spec.p, spec.b, 3)
				if err != nil {
					fail("table 4", err)
				}
				best := grid[0]
				fmt.Printf("Table IV — %s / %s: best (alpha, mu, nu, #iterations) = (%g, %g, %g, %d), CV F = %.2f%%\n",
					spec.p, spec.b, best.Alpha, best.Mu, best.Nu, best.Iterations, 100*best.F1)
				for _, g := range grid[:min(5, len(grid))] {
					fmt.Printf("    (%.2g, %.0e, %.0e, %d) -> %.2f%%\n", g.Alpha, g.Mu, g.Nu, g.Iterations, 100*g.F1)
				}
			}
		case 5:
			hs, err := env.Table5()
			if err != nil {
				fail("table 5", err)
			}
			fmt.Println("Table V — approximate randomization significance tests")
			fmt.Print(experiments.FormatHypotheses(hs))
			fmt.Println()
		default:
			fail("table", fmt.Errorf("unknown table %d", t))
		}
	}

	for _, f := range figs {
		switch f {
		case 2:
			pts, err := env.Figure2(nil, 3)
			if err != nil {
				fail("figure 2", err)
			}
			fmt.Println("Figure 2 — train+test wall time by train:test ratio (BC2GM, CRF=BANNER)")
			fmt.Print(experiments.FormatFigure2(pts))
			fmt.Println()
		case 3:
			rep, err := env.Figure3(synth.BC2GM)
			if err != nil {
				fail("figure 3", err)
			}
			fmt.Println("Figure 3 — histogram of Influence(v) (BC2GM all-features graph)")
			fmt.Print(rep.Influence.String())
			fmt.Println("Figure 3 — histogram of |Influencees(v)|")
			fmt.Print(rep.Influencees.String())
			fmt.Println()
		case 4, 5:
			p := synth.AML
			if f == 5 {
				p = synth.BC2GM
			}
			rep, err := env.UpsetFigure(p)
			if err != nil {
				fail(fmt.Sprintf("figure %d", f), err)
			}
			fmt.Printf("Figure %d — false-positive UpSet, GraphNER vs BANNER-ChemDNER (%s)\n", f, p)
			fmt.Print(rep.Rendered)
			fmt.Printf("gene-related FP proportion: GraphNER %d/%d, baseline %d/%d; chi-square=%.3f p=%.3g\n\n",
				rep.GNGene, rep.GNGene+rep.GNSpurious,
				rep.BaseGene, rep.BaseGene+rep.BaseSpurious,
				rep.Chi2, rep.PValue)
		default:
			fail("figure", fmt.Errorf("unknown figure %d", f))
		}
	}

	if *statsFlag {
		for _, p := range []synth.Profile{synth.BC2GM, synth.AML} {
			st, err := env.GraphStatistics(p)
			if err != nil {
				fail("stats", err)
			}
			fmt.Println(experiments.FormatGraphStats(st))
		}
	}

	if *statsOnly {
		for _, p := range []synth.Profile{synth.BC2GM, synth.AML} {
			st, err := env.GraphStatisticsOnly(p)
			if err != nil {
				fail("stats-only", err)
			}
			fmt.Println(experiments.FormatGraphStats(st))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
